"""Table schema: columns and constraints.

Schemas support the constraints the paper's Table 1 and Table 2 rely on:
``NOT NULL``, ``PRIMARY KEY`` and ``REFERENCES table(column)`` (the
``driver_permission.driver_id`` foreign key into ``drivers.driver_id``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sqlengine.errors import SqlEngineError
from repro.sqlengine.types import SqlType, coerce_value


class SchemaError(SqlEngineError):
    """Invalid table or column definition."""


@dataclass(frozen=True)
class ForeignKey:
    """A REFERENCES constraint pointing at ``table(column)``."""

    table: str
    column: str


@dataclass(frozen=True)
class Column:
    """One column of a table schema."""

    name: str
    sql_type: SqlType
    not_null: bool = False
    primary_key: bool = False
    references: Optional[ForeignKey] = None

    def coerce(self, value: Any) -> Any:
        """Coerce a value to this column's type (see :func:`coerce_value`)."""
        return coerce_value(value, self.sql_type)


@dataclass
class TableSchema:
    """Ordered collection of columns defining one table."""

    name: str
    columns: List[Column] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError(f"table {self.name!r} must have at least one column")
        seen = set()
        for column in self.columns:
            lowered = column.name.lower()
            if lowered in seen:
                raise SchemaError(f"duplicate column {column.name!r} in table {self.name!r}")
            seen.add(lowered)

    @property
    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    @property
    def primary_key_columns(self) -> List[str]:
        return [column.name for column in self.columns if column.primary_key]

    def column(self, name: str) -> Column:
        """Look up a column by case-insensitive name."""
        lowered = name.lower()
        for column in self.columns:
            if column.name.lower() == lowered:
                return column
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        lowered = name.lower()
        return any(column.name.lower() == lowered for column in self.columns)

    def coerce_row(self, values: Dict[str, Any]) -> Dict[str, Any]:
        """Build a full row dict from a (possibly partial) values mapping.

        Missing columns default to NULL; unknown columns raise.
        """
        lowered_values = {key.lower(): value for key, value in values.items()}
        known = {column.name.lower() for column in self.columns}
        for key in lowered_values:
            if key not in known:
                raise SchemaError(f"table {self.name!r} has no column {key!r}")
        row: Dict[str, Any] = {}
        for column in self.columns:
            raw = lowered_values.get(column.name.lower())
            row[column.name] = column.coerce(raw)
        return row

    def primary_key_of(self, row: Dict[str, Any]) -> Optional[Tuple[Any, ...]]:
        """Extract the primary key tuple of ``row`` (None if no PK)."""
        pk_columns = self.primary_key_columns
        if not pk_columns:
            return None
        return tuple(row[name] for name in pk_columns)

    def foreign_keys(self) -> Sequence[Tuple[Column, ForeignKey]]:
        return [(column, column.references) for column in self.columns if column.references]
