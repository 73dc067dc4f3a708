"""Mini-Avro: JSON schemas and the Avro binary *datum* encoding.

This is a faithful subset of the Avro 1.x specification covering what
SamzaSQL needs: primitive types, records (nestable), arrays, maps and
unions.  Encoding follows the spec exactly:

* ``boolean`` — one byte, 0 or 1
* ``int`` / ``long`` — zigzag varint
* ``float`` / ``double`` — IEEE-754 little-endian, 4/8 bytes
* ``string`` / ``bytes`` — long length prefix + raw bytes
* ``record`` — field encodings concatenated in schema order
* ``array`` / ``map`` — blocks: ``count`` (long), items, terminated by 0
* ``union`` — branch index (long) + encoded value

Schemas are *compiled*: :class:`AvroSchema` builds per-type encoder and
decoder closures once, so the per-datum hot path does no schema
interpretation.  This mirrors Avro's ``SpecificDatumWriter`` speed
characteristics and is what makes the Avro serde measurably faster than
the generic :class:`~repro.serde.object_serde.ObjectSerde`, reproducing
the cost ratio the paper reports for the join benchmark.
"""

from __future__ import annotations

import json
import struct
import textwrap
from typing import Any, Callable

from repro.common.errors import SchemaError, SerdeError
from repro.common.varint import encode_zigzag, read_zigzag
from repro.serde.base import Serde

PRIMITIVES = ("null", "boolean", "int", "long", "float", "double", "string", "bytes")

#: Primitive kinds the source-generated flat-record codecs can inline.
FLAT_PRIMITIVES = ("int", "long", "string", "bytes", "boolean", "float", "double")

_FLOAT = struct.Struct("<f")
_DOUBLE = struct.Struct("<d")

_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

Encoder = Callable[[Any, bytearray], None]
# Decoders take (buf, offset) and return (value, next_offset).
Decoder = Callable[[bytes, int], tuple[Any, int]]

# -- shared codegen snippets --------------------------------------------------
#
# The flat-record codecs below, the pruned decoders, and the whole-plan
# serde fusion in :mod:`repro.samzasql.serde_plan` all emit the same
# per-field source fragments.  Each helper returns source *lines* at the
# requested indent level over a fixed register set: ``buf`` (the datum),
# ``pos`` (the cursor), ``blen`` (``len(buf)``), and the scratch names
# ``b`` / ``raw`` / ``n`` / ``end`` / ``shift``.

# One inlined little-endian base-128 varint read; leaves the raw
# (pre-zigzag) value in ``raw``.
_READ_VARINT_SRC = """\
b = buf[pos]; pos += 1
if b < 0x80:
    raw = b
else:
    raw = b & 0x7F
    shift = 7
    while True:
        b = buf[pos]; pos += 1
        raw |= (b & 0x7F) << shift
        if b < 0x80:
            break
        shift += 7
"""

# One inlined varint write of the non-negative value in ``n``.
_WRITE_VARINT_SRC = """\
if n < 0x80:
    out.append(n)
else:
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)
"""


def flat_record_fields(
        definition: Any) -> list[tuple[str, str | None, int | None]] | None:
    """``[(name, kind, null_branch_index)]`` for record schemas.

    ``kind`` is the field's primitive kind when the generated codecs can
    inline it — a plain primitive or a two-branch ``["null", primitive]``
    union (either order) — and ``None`` for any other field shape.  Such
    fields fall back to the compiled closure codecs *per field*, so one
    exotic column no longer pushes the whole record onto the interpreted
    path.  ``null_branch_index`` is ``None`` for a bare primitive, else
    the union index of the ``"null"`` branch (0 or 1).

    Returns ``None`` for non-record schemas (and field-less records),
    where the flat layout does not apply at all.
    """
    if not (isinstance(definition, dict) and definition.get("type") == "record"):
        return None
    fields: list[tuple[str, str | None, int | None]] = []
    for f in definition.get("fields", ()):
        kind = f.get("type")
        if isinstance(kind, dict) and kind.get("type") in PRIMITIVES:
            kind = kind["type"]
        null_index: int | None = None
        if isinstance(kind, list) and len(kind) == 2 and "null" in kind:
            null_index = kind.index("null")
            kind = kind[1 - null_index]
            if isinstance(kind, dict) and kind.get("type") in PRIMITIVES:
                kind = kind["type"]
        if not isinstance(kind, str) or kind not in FLAT_PRIMITIVES:
            kind, null_index = None, None
        fields.append((f["name"], kind, null_index))
    return fields if fields else None


def field_read_src(var: str, kind: str, level: int) -> list[str]:
    """Source lines reading one ``kind`` primitive into ``var``."""
    pad = " " * 4 * level
    read_varint = textwrap.indent(_READ_VARINT_SRC.rstrip(), pad)
    if kind in ("int", "long"):
        return [read_varint, f"{pad}{var} = (raw >> 1) ^ -(raw & 1)"]
    if kind in ("string", "bytes"):
        tail = (f"{var} = buf[pos:end].decode('utf-8'); pos = end"
                if kind == "string"
                else f"{var} = bytes(buf[pos:end]); pos = end")
        return [
            read_varint,
            f"{pad}n = (raw >> 1) ^ -(raw & 1)",
            f"{pad}end = pos + n",
            f"{pad}if n < 0 or end > blen:",
            f"{pad}    raise SerdeError('truncated {kind}')",
            pad + tail,
        ]
    if kind == "boolean":
        return [f"{pad}{var} = buf[pos] != 0; pos += 1"]
    packer = "_FLOAT" if kind == "float" else "_DOUBLE"
    size = 4 if kind == "float" else 8
    return [f"{pad}{var} = {packer}.unpack_from(buf, pos)[0];"
            f" pos += {size}"]


def field_skip_src(kind: str, level: int) -> list[str]:
    """Source lines advancing ``pos`` past one ``kind`` primitive without
    materializing a Python value — the column-pruning skip-scan."""
    pad = " " * 4 * level
    if kind in ("int", "long"):
        return [f"{pad}while buf[pos] >= 0x80:",
                f"{pad}    pos += 1",
                f"{pad}pos += 1"]
    if kind in ("string", "bytes"):
        read_varint = textwrap.indent(_READ_VARINT_SRC.rstrip(), pad)
        return [
            read_varint,
            f"{pad}n = (raw >> 1) ^ -(raw & 1)",
            f"{pad}pos += n",
            f"{pad}if n < 0 or pos > blen:",
            f"{pad}    raise SerdeError('truncated {kind}')",
        ]
    if kind == "boolean":
        return [f"{pad}pos += 1"]
    return [f"{pad}pos += {4 if kind == 'float' else 8}"]


def field_decode_src(i: int, kind: str, null_index: int | None,
                     wanted: bool, level: int) -> list[str]:
    """Source lines decoding flat field ``i`` — a bare primitive, or one in
    a two-branch null union — into ``f{i}``, or skip-scanning it when it
    is not ``wanted``."""
    if null_index is None:
        return (field_read_src(f"f{i}", kind, level) if wanted
                else field_skip_src(kind, level))
    pad = " " * 4 * level
    # Two-branch ["null", prim] union: branch index is a one-byte zigzag
    # varint, 0 for branch 0 and 2 for branch 1.
    null_byte = 0 if null_index == 0 else 2
    prim_byte = 2 - null_byte
    return [
        f"{pad}b = buf[pos]; pos += 1",
        f"{pad}if b == {null_byte}:",
        f"{pad}    f{i} = None" if wanted else f"{pad}    pass",
        f"{pad}elif b == {prim_byte}:",
        *(field_read_src(f"f{i}", kind, level + 1) if wanted
          else field_skip_src(kind, level + 1)),
        f"{pad}else:",
        f"{pad}    raise SerdeError('union branch index out of range')",
    ]


def field_write_src(var: str, kind: str, level: int,
                    prefix_byte: int | None) -> list[str]:
    """Fast-path write of ``var`` onto ``out`` at ``level``.

    The ``if`` type gate it emits is left *open*: the caller closes it
    with an ``else`` delegating to the per-field closure encoder, which
    keeps error semantics (and the encoding of unusual-but-valid values
    like int subclasses) identical to the non-generated path.
    ``prefix_byte`` is the union branch byte to emit before the value,
    or ``None`` for a bare primitive.
    """
    pad = " " * 4 * level
    prefix = ([f"{pad}    out.append({prefix_byte})"]
              if prefix_byte is not None else [])
    varint = textwrap.indent(_WRITE_VARINT_SRC.rstrip(), pad + "    ")
    if kind in ("int", "long"):
        lo, hi = ((_INT32_MIN, _INT32_MAX) if kind == "int"
                  else (_INT64_MIN, _INT64_MAX))
        return [
            f"{pad}if {var}.__class__ is int and {lo} <= {var} <= {hi}:",
            *prefix,
            f"{pad}    n = {var} << 1 if {var} >= 0"
            f" else ((-1 - {var}) << 1) | 1",
            varint,
        ]
    if kind == "string":
        return [
            f"{pad}if {var}.__class__ is str:",
            *prefix,
            f"{pad}    raw = {var}.encode('utf-8')",
            f"{pad}    n = len(raw) << 1",
            varint,
            f"{pad}    out += raw",
        ]
    if kind == "bytes":
        return [
            f"{pad}if {var}.__class__ is bytes:",
            *prefix,
            f"{pad}    n = len({var}) << 1",
            varint,
            f"{pad}    out += {var}",
        ]
    if kind == "boolean":
        return [
            f"{pad}if {var} is True:",
            *prefix,
            f"{pad}    out.append(1)",
            f"{pad}elif {var} is False:",
            *prefix,
            f"{pad}    out.append(0)",
        ]
    packer = "_FLOAT" if kind == "float" else "_DOUBLE"
    return [
        f"{pad}if {var}.__class__ is float:",
        *prefix,
        f"{pad}    out += {packer}.pack({var})",
    ]


def field_encode_src(i: int, var: str, kind: str, null_index: int | None,
                     level: int) -> list[str]:
    """Source lines writing flat field ``i``, held in ``var`` — a bare
    primitive, or one in a two-branch null union — through the
    :func:`field_write_src` fast path, with the gate closed by a call to
    the field's closure encoder ``slow{i}(var, out)``."""
    pad = " " * 4 * level
    slow = [f"{pad}else:", f"{pad}    slow{i}({var}, out)"]
    if null_index is None:
        return field_write_src(var, kind, level, None) + slow
    null_byte = 0 if null_index == 0 else 2
    gate = field_write_src(var, kind, level, 2 - null_byte)
    return [f"{pad}if {var} is None:",
            f"{pad}    out.append({null_byte})",
            f"{pad}el{gate[0].lstrip()}",
            *gate[1:],
            *slow]


class AvroSchema:
    """A parsed, compiled Avro schema.

    Construct from a schema *definition* — either the canonical JSON string
    or the equivalent Python structure (str for primitives, dict for
    record/array/map, list for unions).
    """

    def __init__(self, definition: Any):
        if isinstance(definition, str) and definition.strip().startswith(("{", "[", '"')):
            definition = json.loads(definition)
        self.definition = definition
        self.type_name = self._type_name(definition)
        self._encode: Encoder = self._compile_encoder(definition)
        self._decode: Decoder = self._compile_decoder(definition)
        # Batch-path codecs: flat primitive records additionally get a
        # source-generated encoder/decoder with the field loop unrolled
        # (None for any other schema shape — the closure walk is used).
        self._encode_fast: Encoder | None = self._generate_flat_encoder(definition)
        # The full decoder is the pruned one that wants every field.
        self._decode_fast: Decoder | None = self.pruned_decoder(
            {name for name, _kind, _null
             in flat_record_fields(definition) or ()})

    # -- convenience constructors -------------------------------------------

    @staticmethod
    def record(name: str, fields: list[tuple[str, Any]]) -> "AvroSchema":
        """Build a record schema from ``(field_name, field_type)`` pairs."""
        return AvroSchema(
            {
                "type": "record",
                "name": name,
                "fields": [{"name": fname, "type": ftype} for fname, ftype in fields],
            }
        )

    @staticmethod
    def array(items: Any) -> "AvroSchema":
        return AvroSchema({"type": "array", "items": items})

    @staticmethod
    def map(values: Any) -> "AvroSchema":
        return AvroSchema({"type": "map", "values": values})

    # -- public API ----------------------------------------------------------

    def encode(self, datum: Any) -> bytes:
        out = bytearray()
        self._encode(datum, out)
        return bytes(out)

    def decode(self, data: bytes) -> Any:
        value, pos = self._decode(data, 0)
        if pos != len(data):
            raise SerdeError(f"trailing bytes after Avro datum: {len(data) - pos}")
        return value

    def encode_batch(self, datums: list) -> list:
        """Encode many datums in one schema-compiled loop.

        Flat primitive records run through the source-generated encoder
        (field loop unrolled, varints inlined); other schema shapes fall
        back to the per-type closure walk.  ``None`` datums pass through
        as ``None`` (the runtime's tombstone convention), so this is NOT
        equivalent to ``encode(None)`` for schemas where null is a legal
        datum.
        """
        encode = self._encode_fast or self._encode
        out = []
        append = out.append
        for datum in datums:
            if datum is None:
                append(None)
                continue
            buf = bytearray()
            encode(datum, buf)
            append(bytes(buf))
        return out

    def decode_batch(self, datas: list) -> list:
        """Decode many buffers in one schema-compiled loop (``None`` items
        pass through, see :meth:`encode_batch`)."""
        decode = self._decode_fast or self._decode
        out = []
        append = out.append
        for data in datas:
            if data is None:
                append(None)
                continue
            value, pos = decode(data, 0)
            if pos != len(data):
                raise SerdeError(
                    f"trailing bytes after Avro datum: {len(data) - pos}")
            append(value)
        return out

    def to_json(self) -> str:
        return json.dumps(self.definition, sort_keys=True)

    @property
    def field_names(self) -> list[str]:
        """Field names for record schemas (raises for non-records)."""
        if not (isinstance(self.definition, dict) and self.definition.get("type") == "record"):
            raise SchemaError(f"schema {self.type_name!r} is not a record")
        return [f["name"] for f in self.definition["fields"]]

    def field_type(self, name: str) -> Any:
        for f in self.definition.get("fields", ()):
            if f["name"] == name:
                return f["type"]
        raise SchemaError(f"record {self.type_name!r} has no field {name!r}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AvroSchema) and self.to_json() == other.to_json()

    def __hash__(self) -> int:
        return hash(self.to_json())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AvroSchema({self.type_name})"

    # -- schema walking --------------------------------------------------------

    @staticmethod
    def _type_name(definition: Any) -> str:
        if isinstance(definition, str):
            return definition
        if isinstance(definition, list):
            return "union"
        if isinstance(definition, dict):
            kind = definition.get("type")
            if kind == "record":
                return definition.get("name", "record")
            return str(kind)
        raise SchemaError(f"unrecognized schema definition: {definition!r}")

    # -- encoder compilation ----------------------------------------------------

    def _compile_encoder(self, definition: Any) -> Encoder:
        if isinstance(definition, str):
            return self._primitive_encoder(definition)
        if isinstance(definition, list):
            return self._union_encoder(definition)
        if isinstance(definition, dict):
            kind = definition.get("type")
            if kind in PRIMITIVES:
                return self._primitive_encoder(kind)
            if kind == "record":
                return self._record_encoder(definition)
            if kind == "array":
                return self._array_encoder(definition)
            if kind == "map":
                return self._map_encoder(definition)
        raise SchemaError(f"unsupported Avro schema: {definition!r}")

    @staticmethod
    def _primitive_encoder(kind: str) -> Encoder:
        if kind == "null":

            def enc_null(datum: Any, out: bytearray) -> None:
                if datum is not None:
                    raise SerdeError(f"expected null, got {datum!r}")

            return enc_null
        if kind == "boolean":

            def enc_bool(datum: Any, out: bytearray) -> None:
                if not isinstance(datum, bool):
                    raise SerdeError(f"expected boolean, got {type(datum).__name__}")
                out.append(1 if datum else 0)

            return enc_bool
        if kind in ("int", "long"):
            lo, hi = (_INT32_MIN, _INT32_MAX) if kind == "int" else (_INT64_MIN, _INT64_MAX)

            def enc_int(datum: Any, out: bytearray) -> None:
                if not isinstance(datum, int) or isinstance(datum, bool):
                    raise SerdeError(f"expected {kind}, got {type(datum).__name__}")
                if not lo <= datum <= hi:
                    raise SerdeError(f"value {datum} out of {kind} range")
                out += encode_zigzag(datum)

            return enc_int
        if kind in ("float", "double"):
            packer = _FLOAT if kind == "float" else _DOUBLE

            def enc_float(datum: Any, out: bytearray) -> None:
                if not isinstance(datum, (int, float)) or isinstance(datum, bool):
                    raise SerdeError(f"expected {kind}, got {type(datum).__name__}")
                out += packer.pack(float(datum))

            return enc_float
        if kind == "string":

            def enc_str(datum: Any, out: bytearray) -> None:
                if not isinstance(datum, str):
                    raise SerdeError(f"expected string, got {type(datum).__name__}")
                raw = datum.encode("utf-8")
                out += encode_zigzag(len(raw))
                out += raw

            return enc_str
        if kind == "bytes":

            def enc_bytes(datum: Any, out: bytearray) -> None:
                if not isinstance(datum, (bytes, bytearray)):
                    raise SerdeError(f"expected bytes, got {type(datum).__name__}")
                out += encode_zigzag(len(datum))
                out += datum

            return enc_bytes
        raise SchemaError(f"unknown primitive type {kind!r}")

    def _record_encoder(self, definition: dict) -> Encoder:
        fields = definition.get("fields")
        if fields is None:
            raise SchemaError(f"record schema missing 'fields': {definition!r}")
        names = [f["name"] for f in fields]
        encoders = [self._compile_encoder(f["type"]) for f in fields]
        record_name = definition.get("name", "record")

        def enc_record(datum: Any, out: bytearray) -> None:
            if not isinstance(datum, dict):
                raise SerdeError(
                    f"expected dict for record {record_name!r}, got {type(datum).__name__}"
                )
            for name, encode in zip(names, encoders):
                if name not in datum:
                    raise SerdeError(f"record {record_name!r} missing field {name!r}")
                encode(datum[name], out)

        return enc_record

    def _array_encoder(self, definition: dict) -> Encoder:
        item_enc = self._compile_encoder(definition["items"])

        def enc_array(datum: Any, out: bytearray) -> None:
            if not isinstance(datum, (list, tuple)):
                raise SerdeError(f"expected list for array, got {type(datum).__name__}")
            if datum:
                out += encode_zigzag(len(datum))
                for item in datum:
                    item_enc(item, out)
            out += encode_zigzag(0)

        return enc_array

    def _map_encoder(self, definition: dict) -> Encoder:
        value_enc = self._compile_encoder(definition["values"])

        def enc_map(datum: Any, out: bytearray) -> None:
            if not isinstance(datum, dict):
                raise SerdeError(f"expected dict for map, got {type(datum).__name__}")
            if datum:
                out += encode_zigzag(len(datum))
                for key, value in datum.items():
                    if not isinstance(key, str):
                        raise SerdeError(f"map keys must be strings, got {type(key).__name__}")
                    raw = key.encode("utf-8")
                    out += encode_zigzag(len(raw))
                    out += raw
                    value_enc(value, out)
            out += encode_zigzag(0)

        return enc_map

    def _union_encoder(self, branches: list) -> Encoder:
        if not branches:
            raise SchemaError("union schema must have at least one branch")
        branch_encoders = [self._compile_encoder(b) for b in branches]
        branch_names = [self._type_name(b) for b in branches]
        # Resolve the branch for a datum by Python type; dict → first record
        # or map branch, list → array branch, etc.
        index_of: dict[str, int] = {}
        for i, name in enumerate(branch_names):
            index_of.setdefault(name, i)

        def branch_for(datum: Any) -> int:
            if datum is None and "null" in index_of:
                return index_of["null"]
            if isinstance(datum, bool) and "boolean" in index_of:
                return index_of["boolean"]
            if isinstance(datum, int) and not isinstance(datum, bool):
                for candidate in ("long", "int", "double", "float"):
                    if candidate in index_of:
                        return index_of[candidate]
            if isinstance(datum, float):
                for candidate in ("double", "float"):
                    if candidate in index_of:
                        return index_of[candidate]
            if isinstance(datum, str) and "string" in index_of:
                return index_of["string"]
            if isinstance(datum, (bytes, bytearray)) and "bytes" in index_of:
                return index_of["bytes"]
            if isinstance(datum, (list, tuple)) and "array" in index_of:
                return index_of["array"]
            if isinstance(datum, dict):
                for i, branch in enumerate(branches):
                    if isinstance(branch, dict) and branch.get("type") in ("record", "map"):
                        return i
            raise SerdeError(f"no union branch matches {type(datum).__name__}")

        def enc_union(datum: Any, out: bytearray) -> None:
            index = branch_for(datum)
            out += encode_zigzag(index)
            branch_encoders[index](datum, out)

        return enc_union

    # -- decoder compilation ----------------------------------------------------

    def _compile_decoder(self, definition: Any) -> Decoder:
        if isinstance(definition, str):
            return self._primitive_decoder(definition)
        if isinstance(definition, list):
            return self._union_decoder(definition)
        if isinstance(definition, dict):
            kind = definition.get("type")
            if kind in PRIMITIVES:
                return self._primitive_decoder(kind)
            if kind == "record":
                return self._record_decoder(definition)
            if kind == "array":
                return self._array_decoder(definition)
            if kind == "map":
                return self._map_decoder(definition)
        raise SchemaError(f"unsupported Avro schema: {definition!r}")

    @staticmethod
    def _primitive_decoder(kind: str) -> Decoder:
        if kind == "null":
            return lambda buf, pos: (None, pos)
        if kind == "boolean":

            def dec_bool(buf: bytes, pos: int) -> tuple[Any, int]:
                if pos >= len(buf):
                    raise SerdeError("truncated boolean")
                return buf[pos] != 0, pos + 1

            return dec_bool
        if kind in ("int", "long"):
            return read_zigzag
        if kind in ("float", "double"):
            packer = _FLOAT if kind == "float" else _DOUBLE
            size = packer.size

            def dec_float(buf: bytes, pos: int) -> tuple[Any, int]:
                end = pos + size
                if end > len(buf):
                    raise SerdeError(f"truncated {kind}")
                return packer.unpack_from(buf, pos)[0], end

            return dec_float
        if kind == "string":

            def dec_str(buf: bytes, pos: int) -> tuple[Any, int]:
                length, pos = read_zigzag(buf, pos)
                end = pos + length
                if length < 0 or end > len(buf):
                    raise SerdeError("truncated string")
                return buf[pos:end].decode("utf-8"), end

            return dec_str
        if kind == "bytes":

            def dec_bytes(buf: bytes, pos: int) -> tuple[Any, int]:
                length, pos = read_zigzag(buf, pos)
                end = pos + length
                if length < 0 or end > len(buf):
                    raise SerdeError("truncated bytes")
                return bytes(buf[pos:end]), end

            return dec_bytes
        raise SchemaError(f"unknown primitive type {kind!r}")

    def _record_decoder(self, definition: dict) -> Decoder:
        fields = definition["fields"]
        names = [f["name"] for f in fields]
        decoders = [self._compile_decoder(f["type"]) for f in fields]
        pairs = list(zip(names, decoders))

        def dec_record(buf: bytes, pos: int) -> tuple[Any, int]:
            out: dict[str, Any] = {}
            for name, decode in pairs:
                out[name], pos = decode(buf, pos)
            return out, pos

        return dec_record

    def _array_decoder(self, definition: dict) -> Decoder:
        item_dec = self._compile_decoder(definition["items"])

        def dec_array(buf: bytes, pos: int) -> tuple[Any, int]:
            out: list[Any] = []
            while True:
                count, pos = read_zigzag(buf, pos)
                if count == 0:
                    return out, pos
                if count < 0:
                    # Negative count blocks carry a byte size we ignore.
                    count = -count
                    _, pos = read_zigzag(buf, pos)
                for _ in range(count):
                    item, pos = item_dec(buf, pos)
                    out.append(item)

        return dec_array

    def _map_decoder(self, definition: dict) -> Decoder:
        value_dec = self._compile_decoder(definition["values"])

        def dec_map(buf: bytes, pos: int) -> tuple[Any, int]:
            out: dict[str, Any] = {}
            while True:
                count, pos = read_zigzag(buf, pos)
                if count == 0:
                    return out, pos
                if count < 0:
                    count = -count
                    _, pos = read_zigzag(buf, pos)
                for _ in range(count):
                    klen, pos = read_zigzag(buf, pos)
                    kend = pos + klen
                    if klen < 0 or kend > len(buf):
                        raise SerdeError("truncated map key")
                    key = buf[pos:kend].decode("utf-8")
                    pos = kend
                    out[key], pos = value_dec(buf, pos)

        return dec_map

    def _union_decoder(self, branches: list) -> Decoder:
        branch_decoders = [self._compile_decoder(b) for b in branches]

        def dec_union(buf: bytes, pos: int) -> tuple[Any, int]:
            index, pos = read_zigzag(buf, pos)
            if not 0 <= index < len(branch_decoders):
                raise SerdeError(f"union branch index {index} out of range")
            return branch_decoders[index](buf, pos)

        return dec_union

    # -- flat-record codegen (batch path) ---------------------------------------
    #
    # The closure-compiled codecs above pay one Python call per field.  For
    # the common case — a record whose fields are all plain primitives —
    # the batch methods instead use a *source-generated* codec: one exec'd
    # function with every field read/write and the varint loops inlined,
    # so a whole datum costs a single call.  Error semantics match the
    # closure walk: fast-path type gates delegate any non-conforming value
    # to the per-field closure encoder, which raises the canonical
    # SerdeError.

    def pruned_decoder(self, required: "set[str] | frozenset[str]"
                       ) -> Decoder | None:
        """A generated partial decoder materializing only ``required`` fields.

        Unreferenced primitive fields are skip-scanned — varint/length
        skips over the encoded bytes, no Python objects built — which is
        the plan-time column-pruning fast path.  Fields the flat layout
        cannot inline still go through their closure decoders (and are
        discarded when not required) so the cursor stays correct for any
        schema.  Names in ``required`` that the schema lacks are ignored,
        making plan-level over-collection harmless.

        Returns ``None`` for non-record schemas.  The returned callable
        has the standard ``(buf, pos) -> (dict, pos)`` decoder shape;
        like the full generated decoder it does not enforce anything
        about trailing bytes — callers check ``pos`` as
        :meth:`decode_batch` does.
        """
        fields = flat_record_fields(self.definition)
        if fields is None:
            return None

        namespace: dict[str, Any] = {
            "SerdeError": SerdeError, "_FLOAT": _FLOAT,
            "_DOUBLE": _DOUBLE, "_StructError": struct.error}
        body: list[str] = []
        kept: list[tuple[int, str]] = []
        for i, (name, kind, null_index) in enumerate(fields):
            wanted = name in required
            if wanted:
                kept.append((i, name))
            if kind is None:
                # Field shape the flat layout can't inline (nested record,
                # array, map, wide union, ...): delegate to its closure
                # decoder so the rest of the record still takes the
                # generated path.
                namespace[f"dec{i}"] = self._compile_decoder(
                    self.definition["fields"][i]["type"])
                target = f"f{i}" if wanted else "_"
                body.append(f"        {target}, pos = dec{i}(buf, pos)")
            else:
                body += field_decode_src(i, kind, null_index, wanted, 2)
        pairs = ", ".join(f"{name!r}: f{i}" for i, name in kept)
        source = "\n".join([
            "def dec(buf, pos):",
            "    try:",
            "        blen = len(buf)",
            *body,
            "        return {" + pairs + "}, pos",
            "    except (IndexError, _StructError):",
            "        raise SerdeError('truncated Avro datum') from None",
        ])
        exec(source, namespace)  # noqa: S102 - trusted generated source
        return namespace["dec"]

    def _generate_flat_encoder(self, definition: Any) -> Encoder | None:
        fields = flat_record_fields(definition)
        if fields is None:
            return None

        record_name = definition.get("name", "record")
        # Per-field closure encoders back the slow path: any value that
        # fails a fast-path type gate goes through them so the error (or
        # the encoding of unusual-but-valid values like int subclasses
        # and bools) is identical to the non-generated path.
        slow = []
        for f in definition["fields"]:
            slow.append(self._compile_encoder(f["type"]))

        body: list[str] = []
        for i, (name, kind, null_index) in enumerate(fields):
            body.append(f"        v = datum[{name!r}]")
            if kind is None:
                # No inline fast path for this field shape — always its
                # closure encoder.
                body.append(f"        slow{i}(v, out)")
            else:
                body += field_encode_src(i, "v", kind, null_index, 2)
        source = "\n".join([
            "def enc(datum, out):",
            "    if not isinstance(datum, dict):",
            "        raise SerdeError(_MSG_NOT_DICT % type(datum).__name__)",
            "    try:",
            *body,
            "        return None",
            "    except KeyError as e:",
            "        raise SerdeError(_MSG_MISSING % repr(e.args[0])) from None",
        ])
        namespace: dict[str, Any] = {
            "SerdeError": SerdeError, "_FLOAT": _FLOAT, "_DOUBLE": _DOUBLE,
            "_MSG_NOT_DICT": (
                f"expected dict for record {record_name!r}, got %s"),
            "_MSG_MISSING": f"record {record_name!r} missing field %s",
        }
        for i, encoder in enumerate(slow):
            namespace[f"slow{i}"] = encoder
        exec(source, namespace)  # noqa: S102 - trusted generated source
        return namespace["enc"]


class AvroSerde(Serde[Any]):
    """Serde over a fixed :class:`AvroSchema` (like SpecificDatumReader/Writer)."""

    def __init__(self, schema: AvroSchema | Any):
        self.schema = schema if isinstance(schema, AvroSchema) else AvroSchema(schema)

    def to_bytes(self, obj: Any) -> bytes:
        return self.schema.encode(obj)

    def from_bytes(self, data: bytes) -> Any:
        return self.schema.decode(data)

    def to_bytes_batch(self, objs: list) -> list:
        return self.schema.encode_batch(objs)

    def from_bytes_batch(self, datas: list) -> list:
        return self.schema.decode_batch(datas)
