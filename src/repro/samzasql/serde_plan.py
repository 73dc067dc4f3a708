"""Plan-aware serde: column pruning, re-encode elision, whole-chain fusion.

The relational plan knows exactly which columns a query touches, so the
runtime should never decode the rest (*One SQL to Rule Them All*'s
plan-driven premise applied to the wire format).  Once per-operator
dispatch is compiled away, nearly all remaining wall-clock of a stateless
query is Avro decode/encode of columns the query never looks at.

Three layers, all decided at plan time:

1. **Column pruning** — a required-columns pass over the chain's
   expression sources (:func:`repro.samzasql.compile.chain_expressions`)
   determines which input fields feed predicates, projections, a
   window's partition key, order and arguments, the output timestamp,
   or the output key.  Everything else is *skip-scanned*: the generated
   decoder advances the cursor with varint/length skips and never
   builds a Python object.

2. **Re-encode elision** — output columns that are bare references to
   input columns of a byte-compatible kind are forwarded as raw byte
   spans sliced straight out of the incoming datum instead of being
   decoded and re-encoded.  All in-repo Avro encoders write canonical
   (minimal-varint) form, so the splice is byte-identical to a decode →
   re-encode round trip.  Where the output schema nullable-wraps a bare
   input primitive, the union branch byte is spliced in front of the
   span; when every column forwards this way the encode step is fully
   elided into one ``b"".join``.

3. **Fusion** — decode, predicate evaluation, relation lookups, and
   encode are generated into ONE function over the raw value batch,
   returning ready-to-send ``(bytes, timestamp_ms, key)`` entries.  The
   container feeds it undecoded consumer records and the producer takes
   the bytes as-is.  A stream-to-relation join stage is one ``get`` on
   the relation's store through its object API (looked up per batch, so
   whatever wraps the store's class sees every call); an INNER miss
   skips the record, a LEFT miss reads a row of nulls.  Relation columns
   are always re-encoded; stream columns still splice.  A sliding-window
   stage is Algorithm 1 inlined, as the window operator renders it
   (:meth:`~repro.samzasql.operators.sliding_window.SlidingWindowOperator.render_advance`):
   the record advances its partition's window in the operator's own
   state, writing through the stores' own put/delete (bound per batch),
   and the aggregate columns are encoded while the input columns splice.

Fusion is the only compiled path.  Anything the analysis cannot prove
safe — non-Avro serdes, unsupported schema shapes, expressions over
unknown columns — runs the interpreted router with full decode/encode,
byte-identical, and EXPLAIN reports why.  The analysis assumes a
compilable chain; :func:`repro.samzasql.decision.decide_execution` gates
on that first.
"""

from __future__ import annotations

import ast
import struct
from dataclasses import dataclass, field

from repro.common.errors import SerdeError
from repro.samzasql.compile import (
    ChainExpressions,
    CompiledChain,
    RelationLookup,
    WindowAdvance,
    _scan_string,
    strip_parens,
)
from repro.serde.avro import (
    _DOUBLE,
    _FLOAT,
    field_decode_src,
    field_write_src,
    flat_record_fields,
)
from repro.sql.codegen import CODEGEN_NAMESPACE, compile_source

#: Kinds whose canonical encodings are interchangeable byte-for-byte.
#: int and long share the zigzag-varint encoding; every other kind only
#: splices onto itself.
_VARINT_KINDS = frozenset({"int", "long"})


def _iter_refs(source: str, var: str = "r"):
    """Yield ``(start, end, name)`` for each ``r['name']`` reference.

    A character scanner rather than a regex so string literals in the
    expression are never mistaken for references (and vice versa).
    """
    i = 0
    n = len(source)
    vlen = len(var)
    while i < n:
        if (source.startswith(var, i)
                and (i == 0 or not (source[i - 1].isalnum()
                                    or source[i - 1] == "_"))
                and i + vlen < n and source[i + vlen] == "["
                and i + vlen + 1 < n and source[i + vlen + 1] in "'\""):
            j = _scan_string(source, i + vlen + 1)
            if j < n and source[j] == "]":
                yield i, j + 1, ast.literal_eval(source[i + vlen + 1:j])
                i = j + 1
                continue
        if source[i] in "'\"":
            i = _scan_string(source, i)
            continue
        i += 1


def collect_refs(source: str) -> set:
    """The set of input column names an expression source references."""
    return {name for _s, _e, name in _iter_refs(source)}


def substitute_named_refs(source: str, mapping: dict) -> str:
    """Replace each ``r['name']`` reference with ``mapping[name]``."""
    out: list[str] = []
    last = 0
    for start, end, name in _iter_refs(source):
        out.append(source[last:start])
        out.append(mapping[name])
        last = end
    out.append(source[last:])
    return "".join(out)


def _bare_ref(source: str) -> str | None:
    """The column name when ``source`` is exactly one (possibly
    parenthesized) input reference, else ``None``."""
    s = strip_parens(source)
    refs = list(_iter_refs(s))
    if len(refs) == 1 and refs[0][0] == 0 and refs[0][1] == len(s):
        return refs[0][2]
    return None


# -- the plan-time analysis ---------------------------------------------------


@dataclass
class SerdeAnalysis:
    """How a compilable chain serde-fuses: what the decision reports and
    everything the codegen needs, computed once."""

    exprs: ChainExpressions = None
    output_schema: object = None
    in_fields: list = field(default_factory=list)    # flat_record_fields
    span_fields: set = field(default_factory=set)    # input indexes spanned
    # Per output column: ("splice", input_index, prefix_byte | None) or
    # ("compute", expr_over_r, out_kind, out_null_index, field_type_def).
    columns: list = field(default_factory=list)
    required: tuple = ()   # input columns decoded into Python values
    pruned: tuple = ()     # input columns skip-scanned / span-forwarded
    spliced: tuple = ()    # output columns forwarded as raw byte spans
    computed: tuple = ()   # output columns re-encoded from values


def analyze_serde(exprs: ChainExpressions, input_schema, output_schema
                  ) -> tuple[str | None, SerdeAnalysis | None]:
    """Decide whether a compilable chain serde-fuses over its stream's
    schema: ``(None, analysis)`` when it does, ``(reason, None)`` when
    not."""
    in_def = getattr(input_schema, "definition", None)
    in_fields = flat_record_fields(in_def)
    if in_fields is None:
        return "input schema is not a record", None
    for name, kind, _null in in_fields:
        if kind is None:
            return f"input field {name!r} has an unsupported shape", None
    in_by_name = {name: (i, kind, null)
                  for i, (name, kind, null) in enumerate(in_fields)}

    out_def = getattr(output_schema, "definition", None)
    out_fields = flat_record_fields(out_def)
    if out_fields is None:
        return "output schema is not a record", None
    for name, kind, null in out_fields:
        if kind is None:
            return f"output field {name!r} has an unsupported shape", None
        if null == 1:
            return (f"output field {name!r} has a non-canonical union "
                    "ordering"), None

    if len(out_fields) != len(exprs.columns):
        return "output schema width does not match the chain", None
    if [name for name, _k, _n in out_fields] != list(exprs.insert.field_names):
        return "output schema field names do not match the chain", None

    build = SerdeAnalysis(exprs=exprs, output_schema=output_schema,
                          in_fields=in_fields)
    needed: set = set()
    # Columns whose *values* the generated function needs: predicates,
    # lookup keys and join conditions, a window's partition key, order
    # and arguments, the output timestamp, the output key, and any
    # re-encoded column.
    value_sources = [exprs.ts_expr, exprs.key_expr]
    for stage in exprs.stages:
        if isinstance(stage, RelationLookup):
            value_sources += [stage.key_expr, stage.condition]
        elif isinstance(stage, WindowAdvance):
            value_sources += [stage.key_expr, stage.order_expr,
                              *(arg for arg in stage.arg_exprs
                                if arg is not None)]
        else:
            value_sources.append(stage)

    for column, (oname, okind, onull) in zip(exprs.columns, out_fields):
        ref = _bare_ref(column)
        if ref is not None and ref in in_by_name:
            index, ikind, inull = in_by_name[ref]
            compatible = (ikind == okind
                          or (ikind in _VARINT_KINDS
                              and okind in _VARINT_KINDS))
            # A nullable input only splices onto a same-ordered nullable
            # output (the branch byte is part of the forwarded span); a
            # bare input gets the output's branch byte spliced in front.
            if compatible and (inull is None or (inull == 0 and onull == 0)):
                prefix = 2 if (inull is None and onull == 0) else None
                build.columns.append(("splice", index, prefix))
                build.span_fields.add(index)
                continue
        build.columns.append(
            ("compute", column, okind, onull,
             out_def["fields"][len(build.columns)]["type"]))
        value_sources.append(column)

    for source in value_sources:
        for name in collect_refs(source):
            if name not in in_by_name:
                return (f"expression references unknown column {name!r}",
                        None)
            needed.add(name)

    build.required = tuple(name for name, _k, _n in in_fields
                           if name in needed)
    build.pruned = tuple(name for name, _k, _n in in_fields
                         if name not in needed)
    build.spliced = tuple(name for (name, _k, _n), op
                          in zip(out_fields, build.columns)
                          if op[0] == "splice")
    build.computed = tuple(name for (name, _k, _n), op
                           in zip(out_fields, build.columns)
                           if op[0] == "compute")
    return None, build


# -- code generation ----------------------------------------------------------


def _decode_section(build: SerdeAnalysis) -> list[str]:
    """Per-field decode/skip/span lines at loop level (inside ``try``)."""
    lines: list[str] = []
    pad = " " * 12
    for i, (name, kind, null_index) in enumerate(build.in_fields):
        wanted = name in build.required
        track = i in build.span_fields
        if track:
            lines.append(f"{pad}s{i} = pos")
        lines += field_decode_src(i, kind, null_index, wanted, 3)
        if track:
            lines.append(f"{pad}e{i} = pos")
    return lines


def _splice_pieces(build: SerdeAnalysis) -> list[tuple]:
    """The elided-encode program: ``('const', bytes)`` and
    ``('span', first_field, last_field)`` pieces, coalesced."""
    pieces: list[tuple] = []
    for op in build.columns:
        _tag, index, prefix = op
        if prefix is not None:
            if pieces and pieces[-1][0] == "const":
                pieces[-1] = ("const", pieces[-1][1] + bytes([prefix]))
            else:
                pieces.append(("const", bytes([prefix])))
        # Spans are contiguous in the input datum, so a span ending at
        # field i coalesces with one starting at field i + 1.
        if (pieces and pieces[-1][0] == "span"
                and pieces[-1][2] == index - 1):
            pieces[-1] = ("span", pieces[-1][1], index)
        else:
            pieces.append(("span", index, index))
    return pieces


def compile_serde_fused(build: SerdeAnalysis, stores: dict | None = None,
                        operators: list | None = None) -> CompiledChain:
    """Generate one function spanning decode → chain → encode.

    The function takes the *raw* value batch (encoded Avro datums and
    wire timestamps) and returns ``(entries, stage_counts)`` where each
    entry is ``(message_bytes, timestamp_ms, key)`` ready for a
    pre-serialized send, and ``stage_counts`` carries the per-stage
    survivor counts (filters, relation lookups, windows) the operator
    counters need.  ``stores`` maps store names to the task's stores; a
    chain with relation lookups reads its relations there.  ``operators``
    is the task's chain of operators, leaf first; a window stage advances
    its operator's state, rendered by the operator itself.
    """
    fvars = {name: f"f{i}" for i, (name, _k, _n) in enumerate(build.in_fields)}
    stages = build.exprs.stages
    ts_expr = substitute_named_refs(build.exprs.ts_expr, fvars)
    key_expr = substitute_named_refs(build.exprs.key_expr, fvars)

    namespace = dict(CODEGEN_NAMESPACE)
    # repr: the relation-output key is a repr-join
    namespace["__builtins__"] = {**namespace["__builtins__"], "repr": repr,
                                 "bytes": bytes, "bytearray": bytearray}
    namespace.update({"SerdeError": SerdeError, "_FLOAT": _FLOAT,
                      "_DOUBLE": _DOUBLE, "_StructError": struct.error,
                      "_join": b"".join})

    encode_lines: list[str] = []
    if not build.computed:
        rendered: list[str] = []
        pieces = _splice_pieces(build)
        last = len(build.in_fields) - 1
        for piece in pieces:
            if piece[0] == "const":
                cname = f"_c{len([p for p in rendered if p.startswith('_c')])}"
                namespace[cname] = piece[1]
                rendered.append(cname)
            else:
                _tag, lo, hi = piece
                rendered.append(f"buf[s{lo}:e{hi}]")
        if rendered == [f"buf[s0:e{last}]"]:
            # Identity forward: the whole record is one verbatim span.
            msg_expr = "buf"
        elif len(rendered) == 1:
            msg_expr = rendered[0]
        else:
            msg_expr = "_join((" + ", ".join(rendered) + "))"
    else:
        pad = " " * 8
        encode_lines.append(f"{pad}out = bytearray()")
        for j, op in enumerate(build.columns):
            if op[0] == "splice":
                _tag, index, prefix = op
                if prefix is not None:
                    encode_lines.append(f"{pad}out.append({prefix})")
                encode_lines.append(f"{pad}out += buf[s{index}:e{index}]")
                continue
            _tag, column, okind, onull, type_def = op
            namespace[f"enc{j}"] = build.output_schema._compile_encoder(
                type_def)
            expr = substitute_named_refs(column, fvars)
            encode_lines.append(f"{pad}v = ({expr})")
            if onull is None:
                encode_lines += field_write_src("v", okind, 2, None)
            else:
                encode_lines += [
                    f"{pad}if v is None:",
                    f"{pad}    out.append(0)",
                    *(f"{pad}el{line.lstrip()}" if n == 0 else line
                      for n, line in enumerate(
                          field_write_src("v", okind, 2, 2))),
                ]
            encode_lines += [f"{pad}else:", f"{pad}    enc{j}(v, out)"]
        msg_expr = "bytes(out)"

    lines = ["def _fused_plan(values, timestamps):",
             "    _out = []",
             "    _append = _out.append"]
    stage_lines: list[str] = []
    end_lines: list[str] = []
    for i, stage in enumerate(stages):
        if isinstance(stage, WindowAdvance):
            scope, batch, body, end = operators[stage.operator].render_advance(
                i, stage.row, substitute_named_refs(stage.key_expr, fvars),
                substitute_named_refs(stage.order_expr, fvars),
                [None if arg is None else substitute_named_refs(arg, fvars)
                 for arg in stage.arg_exprs])
            namespace.update(scope)
            lines += batch
            stage_lines += body
            end_lines += end
        elif not isinstance(stage, RelationLookup):
            stage_lines += [
                f"        if not ({substitute_named_refs(stage, fvars)}):",
                "            continue"]
        else:
            namespace[f"_store{i}"] = stores[stage.store]
            namespace[f"_null{i}"] = (None,) * stage.width
            # the store's own get, bound per batch: whatever wraps the
            # store's class sees every lookup
            lines.append(f"    _get{i} = _store{i}.get")
            key = substitute_named_refs(stage.key_expr, fvars)
            condition = substitute_named_refs(stage.condition, fvars)
            stage_lines += [
                f"        {stage.row} = _get{i}(repr({key}))",
                f"        if {stage.row} is None or not ({condition}):",
                (f"            {stage.row} = _null{i}" if stage.outer
                 else "            continue")]
        stage_lines.append(f"        _n{i} += 1")
    lines += [f"    _n{i} = 0" for i in range(len(stages))]
    lines.append("    for buf, t in zip(values, timestamps):")
    lines.append("        blen = len(buf)")
    lines.append("        pos = 0")
    lines.append("        try:")
    lines += _decode_section(build)
    lines += [
        "        except (IndexError, _StructError):",
        "            raise SerdeError('truncated Avro datum') from None",
        "        if pos != blen:",
        "            if pos > blen:",
        "                raise SerdeError('truncated Avro datum')",
        "            raise SerdeError("
        "'trailing bytes after Avro datum: %d' % (blen - pos))",
    ]
    lines += stage_lines
    lines += encode_lines
    lines.append(f"        _append(({msg_expr}, {ts_expr}, {key_expr}))")
    lines += end_lines
    counts = ", ".join(f"_n{i}" for i in range(len(stages)))
    lines.append(f"    return _out, ({counts}{',' if counts else ''})")
    source = "\n".join(lines)

    exec(compile_source(source, "<samzasql-serde-fuse>", "exec"), namespace)  # noqa: S102 - trusted, self-generated
    return CompiledChain(source=source, fn=namespace["_fused_plan"],
                         stream=build.exprs.stream,
                         stage_flags=build.exprs.stage_flags)
