"""Plan-aware serde: column pruning, re-encode elision, whole-chain fusion.

The relational plan knows exactly which columns a query touches, so the
runtime should never decode the rest (*One SQL to Rule Them All*'s
plan-driven premise applied to the wire format).  Once per-operator
dispatch is compiled away, nearly all remaining wall-clock of a stateless
query is Avro decode/encode of columns the query never looks at.

Three layers, all decided at plan time:

1. **Column pruning** — the chain's expressions
   (:func:`repro.samzasql.compile.chain_expressions`) each carry the
   input fields they read, so the fields that feed predicates, relation
   keys and join conditions, a window's partition key, order and
   arguments, the output timestamp, the output key, or a re-encoded
   column are a union.  Everything else is *skip-scanned*: the generated
   decoder advances the cursor with varint/length skips and never builds
   a Python object.

2. **Re-encode elision** — output columns that are bare input fields of
   a byte-compatible kind are forwarded as raw byte spans sliced
   straight out of the incoming datum instead of being decoded and
   re-encoded.  All in-repo Avro encoders write canonical (minimal-varint)
   form, so the splice is byte-identical to a decode → re-encode round
   trip.  Where the output schema nullable-wraps a bare input primitive,
   the union branch byte is spliced in front of the span; when every
   column forwards this way the encode step is fully elided into one
   ``b"".join``.

3. **Fusion** — decode, the chain's stages, and encode are generated into
   ONE function over the raw value batch, returning ready-to-send
   ``(bytes, timestamp_ms, key)`` entries; the container feeds it
   undecoded records and the producer takes the bytes as-is.  It is
   rendered once per job program (:func:`render_fused`) from the plan and
   schemas alone: a filter stage inline, every other stage by its
   operator class's ``render_stage``, next to the interpreted code it
   mirrors — a relation join as one ``get`` on the decoded relation, a
   sliding window as Algorithm 1 over the operator's state and stores —
   reading the operator of whichever task binds the code (``_op<i>``).

Fusion is the only compiled path.  Anything the analysis cannot prove
safe — non-Avro serdes, unsupported schema shapes, expressions over
unknown columns — runs the interpreted router with full decode/encode,
byte-identical, and EXPLAIN reports why.  The analysis assumes a
compilable chain; :func:`repro.samzasql.decision.decide_execution` gates
on that first.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.common.errors import SerdeError
from repro.samzasql.compile import ChainExpressions, chain_expressions
from repro.samzasql.operators.router import OPERATOR_TYPES
from repro.samzasql.physical import PhysicalPlan
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


# -- the plan-time analysis ---------------------------------------------------


@dataclass(frozen=True)
class SerdeAnalysis:
    """How a compilable chain serde-fuses: what the decision reports and
    everything the codegen needs, computed once per job program and
    shared, read-only, by its tasks."""

    exprs: ChainExpressions
    output_schema: object
    in_fields: tuple        # flat_record_fields
    span_fields: frozenset  # input indexes spanned
    # Per output column: ("splice", input_index, prefix_byte | None) or
    # ("compute", expr_source, out_kind, out_null_index, field_type_def).
    columns: tuple
    required: tuple         # input columns decoded into Python values
    pruned: tuple           # input columns skip-scanned / span-forwarded
    spliced: tuple          # output columns forwarded as raw byte spans
    computed: tuple         # output columns re-encoded from values


def analyze_serde(plan: PhysicalPlan, input_schema, output_schema
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

    names = [name for name, _k, _n in in_fields]
    out_names = [name for name, _k, _n in out_fields]
    exprs = chain_expressions(plan, names)
    if len(out_fields) != len(exprs.columns):
        return "output schema width does not match the chain", None
    if out_names != list(exprs.insert.field_names):
        return "output schema field names do not match the chain", None

    columns: list[tuple] = []
    spans: set[int] = set()
    # Expressions whose *values* the generated function needs: every
    # stage's, the output timestamp, the output key, and any re-encoded
    # column.
    value_exprs = [exprs.ts_expr, exprs.key_expr]
    for stage in exprs.stages:
        value_exprs += stage.exprs

    for column, (oname, okind, onull) in zip(exprs.columns, out_fields):
        index = column.field
        if index is not None:
            _name, ikind, inull = in_fields[index]
            compatible = (ikind == okind
                          or (ikind in _VARINT_KINDS
                              and okind in _VARINT_KINDS))
            # A nullable input only splices onto a same-ordered nullable
            # output (the branch byte is part of the forwarded span); a
            # bare input gets the output's branch byte spliced in front.
            if compatible and (inull is None or (inull == 0 and onull == 0)):
                prefix = 2 if (inull is None and onull == 0) else None
                columns.append(("splice", index, prefix))
                spans.add(index)
                continue
        columns.append(("compute", column.source, okind, onull,
                        out_def["fields"][len(columns)]["type"]))
        value_exprs.append(column)

    needed: set = set()
    for expr in value_exprs:
        for k in expr.fields:
            if isinstance(k, str):
                return f"expression references unknown column {k!r}", None
            needed.add(k)

    return None, SerdeAnalysis(
        exprs, output_schema, tuple(in_fields), frozenset(spans),
        tuple(columns),
        required=tuple(n for k, n in enumerate(names) if k in needed),
        pruned=tuple(n for k, n in enumerate(names) if k not in needed),
        spliced=tuple(n for n, op in zip(out_names, columns)
                      if op[0] == "splice"),
        computed=tuple(n for n, op in zip(out_names, columns)
                       if op[0] == "compute"))


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


def render_fused(build: SerdeAnalysis) -> tuple[str, object, dict, tuple]:
    """Generate one function spanning decode → chain → encode, once per
    job program: ``(source, code, constants, slots)``.

    The function ``_fused_plan`` takes the *raw* value batch (encoded
    Avro datums and wire timestamps) and returns ``(entries,
    stage_counts)``: ``(message_bytes, timestamp_ms, key)`` entries ready
    for a pre-serialized send, and the per-stage survivor counts the
    operator counters need.  A task execs ``code`` into a copy of
    ``constants`` plus its own operators, one per slot (``_op<i>`` →
    chain position) of a stage rendered by its operator class.
    """
    stages = build.exprs.stages
    ts_expr = build.exprs.ts_expr.source
    key_expr = build.exprs.key_expr.source

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
        consts = 0
        for piece in pieces:
            if piece[0] == "const":
                cname = f"_c{consts}"
                consts += 1
                namespace[cname] = piece[1]
                rendered.append(cname)
            else:
                _tag, lo, hi = piece
                rendered.append(f"buf[s{lo}:e{hi}]")
        if pieces == [("span", 0, len(build.in_fields) - 1)]:
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
            _tag, expr, okind, onull, type_def = op
            namespace[f"enc{j}"] = build.output_schema._compile_encoder(
                type_def)
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
    slots: list[tuple] = []
    for i, stage in enumerate(stages):
        if stage.row is None:
            [predicate] = stage.exprs
            stage_lines += [f"        if not ({predicate.source}):",
                            "            continue"]
        else:
            scope, batch, body, end = OPERATOR_TYPES[
                stage.node.kind].render_stage(
                    stage.node, i, stage.row,
                    [expr.source for expr in stage.exprs])
            namespace.update(scope)
            slots.append((f"_op{i}", stage.position))
            lines += batch
            stage_lines += body
            end_lines += end
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
    return (source, compile_source(source, "<samzasql-serde-fuse>", "exec"),
            namespace, tuple(slots))
