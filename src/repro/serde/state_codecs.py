"""Plan-derived codecs for operator state: ordered keys, positional values.

A SQL operator store holds rows whose types the planner knows, so its
serdes need not discover types per element the way
:class:`~repro.serde.object_serde.ObjectSerde` does.  This module generates
two codecs, each compiled once per *layout* (the generated source goes
through :func:`~repro.common.codegen.compile_source`):

* :func:`ordered_key_serde` — keys that are a string or an integer, or a
  tuple of them (``None`` allowed in every position).  Each component is
  one tag byte plus a body, as in the FoundationDB tuple layer, so that
  the byte order of encoded keys equals Python's order of the keys:

  - ``None``: ``0x00``;
  - ``str``: ``0x02``, the UTF-8 bytes with every ``0x00`` escaped as
    ``0x00 0xFF``, then a ``0x00`` terminator — so ``"a"`` sorts before
    ``"ab"`` and before ``"a\\x00"``;
  - ``int`` (64-bit signed): ``0x14`` for zero; ``0x14 + n`` then the
    ``n``-byte big-endian magnitude for positives; ``0x14 - n`` then the
    one's complement of the ``n``-byte magnitude for negatives.

  A store scanned in byte order is therefore scanned in key order, which
  is what lets the window and join operators rebuild from one pass.

* :func:`positional_value_serde` — values that are a list of fixed width
  (a *row*) or a dict with fixed field names (a *record*), or either of
  the two when a store holds both.  Fields are encoded positionally with
  the Avro per-field emitters of :mod:`repro.serde.avro`, each field a
  ``["null", T]`` union, exactly as an output row is; a store holding
  both shapes writes one branch byte first (0 = row, 1 = record).

Both codecs are type-exact: what decodes is what was encoded, with the
same Python types.  A value outside its layout (wrong shape, wrong
component type, an int outside 64 bits) raises
:class:`~repro.common.errors.SerdeError` at encode, and bytes that do not
decode — truncated, trailing, or malformed — raise ``SerdeError`` and
nothing else.
"""

from __future__ import annotations

import functools
import struct
from typing import Any, Callable, Union

from repro.common.codegen import compile_source
from repro.common.errors import SerdeError
from repro.serde.avro import (
    FLAT_PRIMITIVES,
    AvroSchema,
    field_decode_src,
    field_encode_src,
)
from repro.serde.base import Serde

#: Key component kinds.
KEY_KINDS = ("str", "int")

#: A key layout: one kind (scalar keys) or a tuple of kinds (tuple keys).
KeyLayout = Union[str, tuple]

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

_TAG_NULL = 0x00
_TAG_STR = 0x02
_TAG_INT_ZERO = 0x14  # 0x0C..0x13 negative, 0x15..0x1C positive


def _unescape_str(buf: bytes, pos: int) -> tuple[str, int]:
    """Decode an escaped ``str`` component body starting at ``pos``:
    ``0x00 0xFF`` is a literal NUL, a lone ``0x00`` ends it."""
    out = bytearray()
    while True:
        end = buf.find(b"\x00", pos)
        if end < 0:
            raise SerdeError("unterminated str key component")
        out += buf[pos:end]
        if buf[end + 1:end + 2] != b"\xff":
            return out.decode("utf-8"), end + 1
        out.append(0)
        pos = end + 2


def _key_write_src(var: str, kind: str) -> list[str]:
    """Source lines appending component ``var`` of ``kind`` to ``out``."""
    if kind == "str":
        body = [
            f"    if {var}.__class__ is str:",
            f"        raw = {var}.encode('utf-8')",
            "        if b'\\x00' in raw:",
            "            raw = raw.replace(b'\\x00', b'\\x00\\xff')",
            f"        out.append({_TAG_STR})",
            "        out += raw",
            "        out.append(0)",
        ]
    else:
        body = [
            f"    if {var}.__class__ is int:",
            f"        if 0 < {var} < 256:",
            f"            out.append({_TAG_INT_ZERO + 1})",
            f"            out.append({var})",
            f"        elif {var} > 0:",
            f"            if {var} > {_INT64_MAX}:",
            f"                raise SerdeError(_RANGE % {var})",
            f"            n = ({var}.bit_length() + 7) >> 3",
            f"            out.append({_TAG_INT_ZERO} + n)",
            f"            out += {var}.to_bytes(n, 'big')",
            f"        elif {var} == 0:",
            f"            out.append({_TAG_INT_ZERO})",
            "        else:",
            f"            if {var} < {_INT64_MIN}:",
            f"                raise SerdeError(_RANGE % {var})",
            f"            n = ((-{var}).bit_length() + 7) >> 3",
            f"            out.append({_TAG_INT_ZERO} - n)",
            f"            out += ({var} + (1 << (n << 3)) - 1).to_bytes(n, 'big')",
        ]
    return body + [
        f"    elif {var} is None:",
        f"        out.append({_TAG_NULL})",
        "    else:",
        f"        raise SerdeError(_TYPE % ({kind!r}, type({var}).__name__))",
    ]


def _key_read_src(var: str, kind: str) -> list[str]:
    """Source lines decoding one ``kind`` component into ``var``."""
    if kind == "str":
        body = [
            f"        if tag == {_TAG_STR}:",
            "            end = buf.find(b'\\x00', pos)",
            "            if end < 0:",
            "                raise SerdeError('unterminated str key component')",
            "            if buf[end + 1:end + 2] == b'\\xff':",
            f"                {var}, pos = _unescape_str(buf, pos)",
            "            else:",
            f"                {var} = buf[pos:end].decode('utf-8')",
            "                pos = end + 1",
        ]
    else:
        body = [
            f"        if {_TAG_INT_ZERO} < tag <= {_TAG_INT_ZERO + 8}:",
            f"            end = pos + tag - {_TAG_INT_ZERO}",
            "            if end > blen:",
            "                raise SerdeError('truncated int key component')",
            f"            {var} = int.from_bytes(buf[pos:end], 'big')",
            "            pos = end",
            f"        elif tag == {_TAG_INT_ZERO}:",
            f"            {var} = 0",
            f"        elif {_TAG_INT_ZERO - 8} <= tag < {_TAG_INT_ZERO}:",
            f"            n = {_TAG_INT_ZERO} - tag",
            "            end = pos + n",
            "            if end > blen:",
            "                raise SerdeError('truncated int key component')",
            f"            {var} = (int.from_bytes(buf[pos:end], 'big')"
            " - (1 << (n << 3)) + 1)",
            "            pos = end",
        ]
    return [
        "        tag = buf[pos]",
        "        pos += 1",
        *body,
        f"        elif tag == {_TAG_NULL}:",
        f"            {var} = None",
        "        else:",
        f"            raise SerdeError(_TAG % ({kind!r}, tag))",
    ]


class OrderedKeySerde(Serde[Any]):
    """Order-preserving codec for one key layout (see the module
    docstring); build it with :func:`ordered_key_serde`."""

    def __init__(self, layout: KeyLayout):
        scalar = isinstance(layout, str)
        kinds = (layout,) if scalar else tuple(layout)
        for kind in kinds:
            if kind not in KEY_KINDS:
                raise SerdeError(f"unsupported key component kind {kind!r}")
        self.layout = layout
        names = [f"k{i}" for i in range(len(kinds))]
        if scalar:
            unpack = ["    k0 = key"]
            result = "k0"
        else:
            unpack = [
                f"    if key.__class__ is not tuple or len(key) != {len(kinds)}:",
                "        raise SerdeError(_SHAPE % (key,))",
            ]
            if kinds:
                unpack.append(f"    {', '.join(names)}, = key")
            result = "(" + "".join(name + ", " for name in names) + ")"
        writes = [line for name, kind in zip(names, kinds)
                  for line in _indent(_key_write_src(name, kind))]
        reads = [line for name, kind in zip(names, kinds)
                 for line in _key_read_src(name, kind)]
        source = "\n".join([
            "def encode(key):",
            *unpack,
            "    out = bytearray()",
            "    try:",
            *(writes or ["        pass"]),
            "    except UnicodeEncodeError:",
            "        raise SerdeError('key component is not valid text') from None",
            "    return bytes(out)",
            "",
            "def decode(buf):",
            "    blen = len(buf)",
            "    pos = 0",
            "    try:",
            *(reads or ["        pass"]),
            "    except (IndexError, UnicodeDecodeError):",
            "        raise SerdeError('truncated or malformed key') from None",
            "    if pos != blen:",
            "        raise SerdeError(f'trailing bytes after key: {blen - pos}')",
            f"    return {result}",
        ])
        namespace: dict[str, Any] = {
            "SerdeError": SerdeError, "_unescape_str": _unescape_str,
            "_SHAPE": f"key %r does not match layout {layout!r}",
            "_TYPE": "key component must be %s or None, got %s",
            "_RANGE": "int key component %d is outside 64 bits",
            "_TAG": "bad tag for a %s key component: %d",
        }
        exec(compile_source(source, "<state-key-codec>", "exec"),  # noqa: S102 - trusted, self-generated
             namespace)
        # The generated functions shadow the methods below on this
        # instance: one call per key, no dispatch.
        self.to_bytes: Callable[[Any], bytes] = namespace["encode"]
        self.from_bytes: Callable[[bytes], Any] = namespace["decode"]

    def to_bytes(self, obj: Any) -> bytes:  # replaced per instance
        raise NotImplementedError

    def from_bytes(self, data: bytes) -> Any:  # replaced per instance
        raise NotImplementedError


def _indent(lines: list[str]) -> list[str]:
    """One level deeper; an element may hold several source lines."""
    return ["    " + line for chunk in lines for line in chunk.split("\n")]


def _fields_src(kinds: list[str], first: int) -> tuple[list[str], list[str]]:
    """(encode lines, decode lines) for positional fields ``f{first}..``,
    each a ``["null", kind]`` union, at the generated functions' depth."""
    encode: list[str] = []
    decode: list[str] = []
    for offset, kind in enumerate(kinds):
        index = first + offset
        encode += field_encode_src(index, f"f{index}", kind, 0, 2)
        decode += field_decode_src(index, kind, 0, True, 2)
    return encode, decode


class PositionalValueSerde(Serde[Any]):
    """Positional codec for one value layout (see the module docstring);
    build it with :func:`positional_value_serde`."""

    def __init__(self, row: tuple | None, record: tuple | None):
        if row is None and record is None:
            raise SerdeError("a value layout needs a row or a record shape")
        kinds = list(row or ()) + [kind for _name, kind in record or ()]
        for kind in kinds:
            if kind not in FLAT_PRIMITIVES:
                raise SerdeError(f"unsupported value field kind {kind!r}")
        self.row, self.record = row, record
        union = row is not None and record is not None
        encode_src = ["def encode(value):", "    out = bytearray()",
                      "    try:"]
        decode_src = ["def decode(buf):", "    blen = len(buf)",
                      "    pos = 0", "    try:"]
        if union:
            decode_src += ["        branch = buf[pos]", "        pos += 1"]
        namespace: dict[str, Any] = {
            "SerdeError": SerdeError, "_StructError": struct.error,
            "_FLOAT": struct.Struct("<f"), "_DOUBLE": struct.Struct("<d"),
            "_SHAPE": f"value does not match layout row={row!r}, "
                      f"record={record!r}: %r",
        }
        for index, kind in enumerate(kinds):
            namespace[f"slow{index}"] = _appending(
                AvroSchema(["null", kind]).encode)
        branches = []
        if row is not None:
            names = [f"f{i}" for i in range(len(row))]
            encode, decode = _fields_src(list(row), 0)
            branches.append((
                "list",
                [f"        if len(value) != {len(row)}:",
                 "            raise SerdeError(_SHAPE % (value,))",
                 *(f"        {name} = value[{i}]"
                   for i, name in enumerate(names)),
                 *encode],
                decode + ["        value = [" + ", ".join(names) + "]"]))
        if record is not None:
            first = len(row or ())
            names = [f"f{first + i}" for i in range(len(record))]
            encode, decode = _fields_src([kind for _n, kind in record], first)
            branches.append((
                "dict",
                [f"        if len(value) != {len(record)}:",
                 "            raise SerdeError(_SHAPE % (value,))",
                 *(f"        {name} = value[{field!r}]"
                   for name, (field, _kind) in zip(names, record)),
                 *encode],
                decode + ["        value = {" + ", ".join(
                    f"{field!r}: {name}"
                    for name, (field, _kind) in zip(names, record)) + "}"]))
        for number, (cls, encode, decode) in enumerate(branches):
            keyword = "if" if number == 0 else "elif"
            encode_src += [f"        {keyword} value.__class__ is {cls}:"]
            if union:
                encode_src.append(f"            out.append({number})")
                decode_src.append(f"        {keyword} branch == {number}:")
                decode_src += _indent(decode)
            else:
                decode_src += decode
            encode_src += _indent(encode)
        encode_src += [
            "        else:",
            "            raise SerdeError(_SHAPE % (value,))",
            "    except KeyError:",
            "        raise SerdeError(_SHAPE % (value,)) from None",
            "    except UnicodeEncodeError:",
            "        raise SerdeError('value field is not valid text') from None",
            "    return bytes(out)",
        ]
        if union:
            decode_src += [
                "        else:",
                "            raise SerdeError(f'bad value branch {branch}')"]
        decode_src += [
            "    except (IndexError, _StructError, UnicodeDecodeError):",
            "        raise SerdeError('truncated or malformed value') from None",
            "    if pos != blen:",
            "        raise SerdeError(f'trailing bytes after value: {blen - pos}')",
            "    return value",
        ]
        source = "\n".join(encode_src + [""] + decode_src)
        exec(compile_source(source, "<state-value-codec>", "exec"),  # noqa: S102 - trusted, self-generated
             namespace)
        self.to_bytes: Callable[[Any], bytes] = namespace["encode"]
        self.from_bytes: Callable[[bytes], Any] = namespace["decode"]

    def to_bytes(self, obj: Any) -> bytes:  # replaced per instance
        raise NotImplementedError

    def from_bytes(self, data: bytes) -> Any:  # replaced per instance
        raise NotImplementedError


def _appending(encode: Callable[[Any], bytes]):
    """Adapt a whole-datum encoder to the generated ``slow{i}(v, out)``
    fallback: values a fast-path type gate rejects get the closure
    encoder's canonical bytes — or its canonical ``SerdeError``."""
    return lambda value, out: out.extend(encode(value))


@functools.lru_cache(maxsize=256)
def ordered_key_serde(layout: KeyLayout) -> OrderedKeySerde:
    """The key codec of ``layout`` — one shared instance per layout (the
    codecs hold no state)."""
    return OrderedKeySerde(layout)


@functools.lru_cache(maxsize=256)
def positional_value_serde(row: tuple | None = None,
                           record: tuple | None = None) -> PositionalValueSerde:
    """The value codec of a layout: ``row`` is a tuple of Avro primitive
    kinds, ``record`` a tuple of ``(field, kind)`` pairs — one shared
    instance per layout."""
    return PositionalValueSerde(row, record)
