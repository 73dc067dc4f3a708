"""SQL types and row types (Calcite's RelDataType role)."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import SqlValidationError


class SqlType(enum.Enum):
    """The primitive column types SamzaSQL supports (§3.1)."""

    BOOLEAN = "BOOLEAN"
    INTEGER = "INTEGER"
    BIGINT = "BIGINT"
    DOUBLE = "DOUBLE"
    VARCHAR = "VARCHAR"
    TIMESTAMP = "TIMESTAMP"   # milliseconds since epoch (rowtime et al.)
    INTERVAL = "INTERVAL"     # milliseconds duration
    ANY = "ANY"

    @property
    def is_numeric(self) -> bool:
        return self in (SqlType.INTEGER, SqlType.BIGINT, SqlType.DOUBLE,
                        SqlType.TIMESTAMP, SqlType.INTERVAL)


#: The Avro primitive each SQL type is written as; ANY has none.
SQL_TO_AVRO = {
    SqlType.BOOLEAN: "boolean",
    SqlType.INTEGER: "int",
    SqlType.BIGINT: "long",
    SqlType.DOUBLE: "double",
    SqlType.VARCHAR: "string",
    SqlType.TIMESTAMP: "long",
    SqlType.INTERVAL: "long",
}


def common_numeric_type(a: SqlType, b: SqlType) -> SqlType:
    """Result type for arithmetic between two numeric operands."""
    if not (a.is_numeric or a is SqlType.ANY) or not (b.is_numeric or b is SqlType.ANY):
        raise SqlValidationError(f"arithmetic requires numeric operands, got {a} and {b}")
    if SqlType.ANY in (a, b):
        return SqlType.ANY
    if SqlType.DOUBLE in (a, b):
        return SqlType.DOUBLE
    # timestamp +- interval stays timestamp; timestamp - timestamp is interval
    if a is SqlType.TIMESTAMP and b is SqlType.INTERVAL:
        return SqlType.TIMESTAMP
    if a is SqlType.INTERVAL and b is SqlType.TIMESTAMP:
        return SqlType.TIMESTAMP
    if a is SqlType.TIMESTAMP and b is SqlType.TIMESTAMP:
        return SqlType.INTERVAL
    if SqlType.TIMESTAMP in (a, b):
        return SqlType.TIMESTAMP
    if SqlType.BIGINT in (a, b) or SqlType.INTERVAL in (a, b):
        return SqlType.BIGINT
    return SqlType.INTEGER


@dataclass(frozen=True, slots=True)
class RelField:
    name: str
    type: SqlType


class RowType:
    """An ordered list of named, typed fields."""

    def __init__(self, fields: list[RelField] | list[tuple[str, SqlType]]):
        normalized: list[RelField] = []
        for f in fields:
            if isinstance(f, RelField):
                normalized.append(f)
            else:
                name, sql_type = f
                normalized.append(RelField(name, sql_type))
        self.fields: tuple[RelField, ...] = tuple(normalized)

    @property
    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    @property
    def field_types(self) -> list[SqlType]:
        return [f.type for f in self.fields]

    def index_of(self, name: str) -> int:
        """Case-insensitive field lookup; raises on unknown/ambiguous."""
        lowered = name.lower()
        matches = [i for i, f in enumerate(self.fields) if f.name.lower() == lowered]
        if not matches:
            raise SqlValidationError(f"unknown column {name!r}; available: {self.field_names}")
        if len(matches) > 1:
            raise SqlValidationError(f"ambiguous column {name!r}")
        return matches[0]

    def contains(self, name: str) -> bool:
        lowered = name.lower()
        return sum(1 for f in self.fields if f.name.lower() == lowered) == 1

    def field(self, index: int) -> RelField:
        return self.fields[index]

    def __len__(self) -> int:
        return len(self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RowType) and self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name} {f.type.value}" for f in self.fields)
        return f"RowType({inner})"

    def concat(self, other: "RowType") -> "RowType":
        return RowType(list(self.fields) + list(other.fields))


def avro_type_to_sql(avro_type) -> SqlType:
    """Map an Avro field type to the SQL type system.

    Nullable unions ``["null", X]`` map to X's SQL type (SQL columns are
    nullable anyway), which keeps derived streams — whose synthesized
    output schemas make every field nullable — fully typed.
    """
    mapping = {
        "boolean": SqlType.BOOLEAN,
        "int": SqlType.INTEGER,
        "long": SqlType.BIGINT,
        "float": SqlType.DOUBLE,
        "double": SqlType.DOUBLE,
        "string": SqlType.VARCHAR,
    }
    if isinstance(avro_type, str) and avro_type in mapping:
        return mapping[avro_type]
    if isinstance(avro_type, list) and len(avro_type) == 2 and "null" in avro_type:
        other = avro_type[0] if avro_type[1] == "null" else avro_type[1]
        return avro_type_to_sql(other)
    return SqlType.ANY


def row_type_from_avro(schema, rowtime_fields: tuple[str, ...] = ("rowtime", "sourcetime")) -> RowType:
    """Derive a RowType from a mini-Avro record schema.

    Long fields named like event-time attributes become TIMESTAMP so
    time-based windows validate (§3: "SamzaSQL expects a timestamp field in
    the incoming message").
    """
    fields = []
    for name in schema.field_names:
        sql_type = avro_type_to_sql(schema.field_type(name))
        if name.lower() in rowtime_fields and sql_type in (SqlType.BIGINT, SqlType.ANY):
            sql_type = SqlType.TIMESTAMP
        fields.append(RelField(name, sql_type))
    return RowType(fields)
