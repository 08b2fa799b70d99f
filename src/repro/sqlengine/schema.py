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
    """Ordered collection of columns defining one table.

    A schema is never mutated after creation (a table adopts it for its
    lifetime), so the facts every row operation asks of it — a column by
    name, the key columns, the NOT NULL and REFERENCES columns — are worked
    out once, in ``__post_init__``.
    """

    name: str
    columns: List[Column] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError(f"table {self.name!r} must have at least one column")
        self._by_name: Dict[str, Column] = {}
        for column in self.columns:
            lowered = column.name.lower()
            if lowered in self._by_name:
                raise SchemaError(f"duplicate column {column.name!r} in table {self.name!r}")
            self._by_name[lowered] = column
        self._key_names = tuple(column.name for column in self.columns if column.primary_key)
        #: The columns a stored row must not hold NULL in.
        self.not_null_columns = tuple(column for column in self.columns if column.not_null)
        self._foreign_keys = tuple(
            (column, column.references) for column in self.columns if column.references
        )

    @property
    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    @property
    def primary_key_columns(self) -> List[str]:
        return list(self._key_names)

    def stored_name(self, name: str) -> Optional[str]:
        """The key a row stores column ``name`` under (case-insensitive), or None."""
        column = self._by_name.get(name.lower())
        return None if column is None else column.name

    def column(self, name: str) -> Column:
        """Look up a column by case-insensitive name."""
        column = self._by_name.get(name.lower())
        if column is None:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return column

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_name

    def coerce_row(self, values: Dict[str, Any]) -> Dict[str, Any]:
        """Build a full row dict from a (possibly partial) values mapping.

        Missing columns default to NULL; unknown columns raise.
        """
        lowered_values = {key.lower(): value for key, value in values.items()}
        for key in lowered_values:
            if key not in self._by_name:
                raise SchemaError(f"table {self.name!r} has no column {key!r}")
        return {
            column.name: column.coerce(lowered_values.get(lowered))
            for lowered, column in self._by_name.items()
        }

    def primary_key_of(self, row: Dict[str, Any]) -> Optional[Tuple[Any, ...]]:
        """Extract the primary key tuple of ``row`` (None if no PK)."""
        if not self._key_names:
            return None
        return tuple([row[name] for name in self._key_names])

    def foreign_keys(self) -> Sequence[Tuple[Column, ForeignKey]]:
        return self._foreign_keys
