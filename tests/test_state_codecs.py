"""Property and fuzz tests of the operator-state codecs.

The ordered key codec must round-trip type-exactly and sort encoded keys
exactly as Python sorts the keys; the positional value codec must
round-trip every SQL type a layout maps, nulls included.  Both reject a
value outside their layout at encode, and bytes that are not an encoding
— truncated, trailing, random — with ``SerdeError`` and nothing else.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import SerdeError
from repro.samzasql.physical import StoreLayout
from repro.serde.state_codecs import KEY_KINDS, ordered_key_serde
from repro.sql.types import SQL_TO_AVRO

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
INT_EDGES = [INT64_MIN, INT64_MIN + 1, -(2**56), -256, -255, -1, 0, 1, 255,
             256, 2**56 - 1, INT64_MAX - 1, INT64_MAX]
STR_EDGES = ["", "\x00", "\x00\x00", "a", "a\x00", "a\x00b", "a\x01", "ab",
             "b", "\x7f", "é", "￿", "😀"]

# The derandomized store-model convention: tier-1 sees the same examples.
CASES = settings(derandomize=True, max_examples=300, deadline=None)

ints = st.one_of(st.sampled_from(INT_EDGES),
                 st.integers(INT64_MIN, INT64_MAX))
texts = st.one_of(st.sampled_from(STR_EDGES), st.text(max_size=12))
key_layouts = st.one_of(
    st.sampled_from(KEY_KINDS),
    st.lists(st.sampled_from(KEY_KINDS), max_size=4).map(tuple))


def key_strategy(layout, nulls=True):
    def component(kind):
        value = texts if kind == "str" else ints
        return st.one_of(st.none(), value) if nulls else value

    if isinstance(layout, str):
        return component(layout)
    return st.tuples(*(component(kind) for kind in layout))


def typed(value):
    """A value with every leaf tagged by its exact type, so ``1 == True``
    or ``1 == 1.0`` cannot pass for a round trip."""
    if isinstance(value, (list, tuple)):
        return type(value), [typed(v) for v in value]
    if isinstance(value, dict):
        return dict, {k: typed(v) for k, v in value.items()}
    return type(value), value


class TestOrderedKeys:
    @CASES
    @given(st.data())
    def test_round_trip_is_type_exact(self, data):
        layout = data.draw(key_layouts)
        key = data.draw(key_strategy(layout))
        serde = ordered_key_serde(layout)
        assert typed(serde.from_bytes(serde.to_bytes(key))) == typed(key)

    @CASES
    @given(st.data())
    def test_byte_order_is_key_order(self, data):
        layout = data.draw(key_layouts)
        a, b = (data.draw(key_strategy(layout, nulls=False)) for _ in "ab")
        serde = ordered_key_serde(layout)
        assert (serde.to_bytes(a) < serde.to_bytes(b)) == (a < b)
        assert (serde.to_bytes(a) == serde.to_bytes(b)) == (a == b)

    @pytest.mark.parametrize("kind, edges", [("int", INT_EDGES),
                                             ("str", STR_EDGES)])
    def test_edges_sort_in_key_order(self, kind, edges):
        """Ints at 0 and ±2^63, strings holding NULs, non-ASCII text and
        prefixes (``"a"`` < ``"ab"``), alone and as a tuple's head."""
        for layout, wrap in ((kind, lambda v: v),
                             ((kind, "int"), lambda v: (v, 0))):
            serde = ordered_key_serde(layout)
            keys = [wrap(v) for v in edges]
            assert sorted(keys, key=serde.to_bytes) == sorted(keys)

    def test_null_sorts_first(self):
        serde = ordered_key_serde(("str", "int"))
        keys = [(None, None), (None, INT64_MIN), ("", None), ("", 0)]
        assert sorted(keys, key=serde.to_bytes) == keys

    @pytest.mark.parametrize("layout, key", [
        ("int", 2**63), ("int", INT64_MIN - 1), (("str", "int"), ("a", 2**64)),
        ("int", True), ("int", 1.0), ("int", "1"), ("str", b"a"),
        ("str", 1), ("str", ("a",)), (("str",), "a"), (("str",), ["a"]),
        (("str", "int"), ("a",)), (("str", "int"), ("a", 1, 2)),
        ((), (None,)), ("str", "\udc00"),
    ])
    def test_outside_the_layout_raises_at_encode(self, layout, key):
        with pytest.raises(SerdeError):
            ordered_key_serde(layout).to_bytes(key)

    def test_encoding_bytes(self):
        serde = ordered_key_serde(("str", "int", "int", "int"))
        assert serde.to_bytes(("a\x00", 0, 258, -2)) == (
            b"\x02a\x00\xff\x00" b"\x14" b"\x16\x01\x02" b"\x13\xfd")
        assert ordered_key_serde("str").to_bytes(None) == b"\x00"

    @CASES
    @given(st.data())
    def test_truncated_or_trailing_bytes_raise(self, data):
        """Raise, unless the cut or extended bytes happen to be another
        key's exact encoding: ``"\\x00"`` (``02 00 ff 00``) cut before its
        escape byte is ``""``, and ``"a"`` followed by ``ff 00`` is
        ``"a\\x00"``."""
        layout = data.draw(key_layouts)
        serde = ordered_key_serde(layout)
        raw = serde.to_bytes(data.draw(key_strategy(layout)))
        cut = data.draw(st.integers(0, max(len(raw) - 1, 0)))
        for broken in ([raw[:cut]] if raw else []) + [
                raw + data.draw(st.binary(min_size=1, max_size=4))]:
            try:
                key = serde.from_bytes(broken)
            except SerdeError:
                continue
            assert serde.to_bytes(key) == broken

    @CASES
    @given(key_layouts, st.binary(max_size=24))
    @example(("str",), b"\x02\xff\xfe\x00")       # invalid UTF-8
    @example("int", b"\x1d" + b"\x00" * 9)        # no such length tag
    def test_random_bytes_decode_or_raise_serde_error(self, layout, raw):
        serde = ordered_key_serde(layout)
        try:
            serde.from_bytes(raw)
        except SerdeError:
            pass


#: One row field per SQL type the planner maps, as a store layout holds it.
ALL_TYPES = [[f"f_{t.value.lower()}", t.value] for t in SQL_TO_AVRO]
SQL_VALUES = {
    "BOOLEAN": st.booleans(),
    "INTEGER": ints,
    "BIGINT": ints,
    "TIMESTAMP": ints,
    "INTERVAL": ints,
    "DOUBLE": st.floats(allow_nan=False),
    "VARCHAR": texts,
}
VALUE_LAYOUTS = {
    "row": StoreLayout.typed("str", row=ALL_TYPES),
    "record": StoreLayout.typed("str", record=ALL_TYPES),
    "row|record": StoreLayout.typed(
        "str", row=ALL_TYPES, record=[["count", "BIGINT"], ["seq", "BIGINT"]]),
}


def value_strategy(layout):
    def fields(spec):
        return [st.one_of(st.none(), SQL_VALUES[t]) for _name, t in spec]

    shapes = []
    if layout.row is not None:
        shapes.append(st.tuples(*fields(layout.row)).map(list))
    if layout.record is not None:
        names = [name for name, _t in layout.record]
        shapes.append(st.tuples(*fields(layout.record)).map(
            lambda values: dict(zip(names, values))))
    return st.one_of(*shapes)


class TestPositionalValues:
    @CASES
    @given(st.data())
    def test_every_mapped_type_round_trips_type_exactly(self, data):
        layout = VALUE_LAYOUTS[data.draw(st.sampled_from(sorted(VALUE_LAYOUTS)))]
        value = data.draw(value_strategy(layout))
        serde = layout.msg_serde()
        assert typed(serde.from_bytes(serde.to_bytes(value))) == typed(value)

    def test_integer_holds_any_64_bit_int(self):
        serde = StoreLayout.typed("str", row=[["n", "INTEGER"]]).msg_serde()
        for n in (INT64_MIN, -(2**31) - 1, 2**31, INT64_MAX):
            assert serde.from_bytes(serde.to_bytes([n])) == [n]

    @pytest.mark.parametrize("value", [
        [None] * (len(ALL_TYPES) - 1),                 # too short
        [None] * (len(ALL_TYPES) + 1),                 # too long
        (None,) * len(ALL_TYPES),                      # not a list
        {"count": 1},                                  # record field missing
        {"count": 1, "seq": 2, "extra": 3},            # record field unknown
        {"count": 1, "sequence": 2},                   # record field renamed
        ["x", *[None] * (len(ALL_TYPES) - 1)],         # str in BOOLEAN
        [None, 2**63, *[None] * (len(ALL_TYPES) - 2)],  # INTEGER > 64 bits
        [None, True, *[None] * (len(ALL_TYPES) - 2)],  # bool in INTEGER
        "row",
        None,
    ])
    def test_outside_the_layout_raises_at_encode(self, value):
        with pytest.raises(SerdeError):
            VALUE_LAYOUTS["row|record"].msg_serde().to_bytes(value)

    @CASES
    @given(st.data())
    def test_truncated_or_trailing_bytes_raise(self, data):
        layout = VALUE_LAYOUTS[data.draw(st.sampled_from(sorted(VALUE_LAYOUTS)))]
        serde = layout.msg_serde()
        raw = serde.to_bytes(data.draw(value_strategy(layout)))
        cut = data.draw(st.integers(0, len(raw) - 1))
        extra = data.draw(st.binary(min_size=1, max_size=4))
        for broken in (raw[:cut], raw + extra):
            with pytest.raises(SerdeError):
                serde.from_bytes(broken)

    @CASES
    @given(st.sampled_from(sorted(VALUE_LAYOUTS)), st.binary(max_size=64))
    def test_random_bytes_decode_or_raise_serde_error(self, name, raw):
        try:
            VALUE_LAYOUTS[name].msg_serde().from_bytes(raw)
        except SerdeError:
            pass

    def test_codecs_are_generated_once_per_layout(self):
        assert ordered_key_serde(("str", "int")) is ordered_key_serde(
            ("str", "int"))
        same = StoreLayout.typed("str", row=[["a", "BIGINT"]])
        renamed = StoreLayout.typed(["int"], row=[["b", "TIMESTAMP"]])
        assert same.msg_serde() is renamed.msg_serde()

    def test_untyped_field_keeps_the_object_serde(self):
        layout = StoreLayout.typed("str", row=[["a", "BIGINT"], ["b", "ANY"]])
        assert layout.msg_serde() is None
        assert layout.msg_serde_name == "object"
        assert layout.fallback == "field 'b' is ANY"
