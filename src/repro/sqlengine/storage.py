"""Row storage with constraint enforcement.

A :class:`Table` stores rows as dictionaries keyed by column name and
maintains a primary-key index. NOT NULL and PRIMARY KEY uniqueness are
checked on each row a statement writes, REFERENCES at the statement's end
(:meth:`Table.check_references`), as SQLite checks them, so the
Drivolution registry can rely on them: a ``driver_permission`` row cannot
reference a driver that was never installed, and a driver cannot be
deleted while a permission row still references it (SQLite's default
``NO ACTION``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from repro.sqlengine.errors import ConstraintViolation
from repro.sqlengine.schema import TableSchema

if TYPE_CHECKING:
    from repro.sqlengine.database import Database

Row = Dict[str, Any]


class Table:
    """One table: a schema plus its rows."""

    def __init__(self, schema: TableSchema, catalog: "Database") -> None:
        self.schema = schema
        self._rows: List[Row] = []
        self._pk_index: Dict[Tuple[Any, ...], int] = {}
        #: The database asked for REFERENCES targets.
        self._catalog = catalog
        #: ``(table, column, referenced column)`` for each REFERENCES to
        #: this table, as their rows store them; the database sets it
        #: whenever its catalog changes.
        self.referrers: List[Tuple["Table", str, str]] = []

    # -- introspection -------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        """Number of live rows."""
        return sum(1 for row in self._rows if row is not None)

    def rows(self) -> Iterable[Row]:
        """Iterate over live rows (deleted slots are skipped)."""
        return (row for row in self._rows if row is not None)

    # -- constraint checks ---------------------------------------------------

    def _check_not_null(self, row: Row) -> None:
        for column in self.schema.not_null_columns:
            if row.get(column.name) is None:
                raise ConstraintViolation(
                    f"column {column.name!r} of table {self.name!r} is NOT NULL"
                )

    def _check_primary_key(self, row: Row) -> None:
        pk = self.schema.primary_key_of(row)
        if pk is not None and pk in self._pk_index:
            raise ConstraintViolation(f"duplicate primary key {pk!r} in table {self.name!r}")

    def check_references(self, index: int, before: Optional[Row]) -> None:
        """REFERENCES hold, at the end of the statement that wrote the slot
        at ``index`` (``before``: what it held then, None for an INSERT),
        both ways, as SQLite's default ``NO ACTION`` checks them: each
        REFERENCES value the row now holds and did not hold before matches
        a row of the referenced table, and each referenced value it gave up
        is held by no referrer, unless another row of this table holds it."""
        row = self._rows[index]
        if row is not None:
            for column, foreign_key in self.schema.foreign_keys():
                value = row[column.name]
                if value is None or (before is not None and before[column.name] == value):
                    continue
                target = self._catalog.lookup_table(foreign_key.table.lower())
                if target is None:
                    raise ConstraintViolation(
                        f"foreign key on {self.name}.{column.name} references missing table "
                        f"{foreign_key.table!r}"
                    )
                if not target.has_value(foreign_key.column, value):
                    raise ConstraintViolation(
                        f"foreign key violation: {self.name}.{column.name}={value!r} has no match in "
                        f"{foreign_key.table}.{foreign_key.column}"
                    )
        if before is not None:
            for referrer, column, name in self.referrers:
                value = before[name]
                if value is None or (row is not None and row[name] == value) or self.has_value(name, value):
                    continue
                if referrer.has_value(column, value):
                    raise ConstraintViolation(
                        f"foreign key violation: {referrer.name}.{column}={value!r} still references "
                        f"{self.name}.{name}"
                    )

    def has_value(self, column_name: str, value: Any) -> bool:
        """Whether a live row has ``column_name == value``."""
        key = self.schema.column(column_name).name
        if self.schema.primary_key_columns == [key]:
            # A dict probe is the same ``==`` test the scan below makes.
            return (value,) in self._pk_index
        return any(row[key] == value for row in self.rows())

    def rows_with_keys(self, keys: List[Tuple[Any, ...]]) -> List[Tuple[int, Row]]:
        """The live rows whose primary key is (``==``) one of ``keys``, as
        :meth:`enumerate_rows` would yield them: ascending index, each once.
        One key is one dict lookup."""
        index = self._pk_index
        if len(keys) == 1:
            slot = index.get(keys[0])
            return [] if slot is None else [(slot, self._rows[slot])]
        slots = sorted({index[key] for key in keys if key in index})
        return [(slot, self._rows[slot]) for slot in slots]

    def pk_index_consistent(self) -> bool:
        """The index invariant: exactly the live rows, each under its key."""
        if not self.schema.primary_key_columns:
            return not self._pk_index
        return self._pk_index == {
            self.schema.primary_key_of(row): slot for slot, row in self.enumerate_rows()
        }

    # -- mutations -----------------------------------------------------------

    def _unindex(self, index: int) -> None:
        """Drop the key of the row now at ``index`` from the index."""
        row = self._rows[index]
        if row is not None:
            pk = self.schema.primary_key_of(row)
            if pk is not None and self._pk_index.get(pk) == index:
                del self._pk_index[pk]

    def insert(self, values: Dict[str, Any]) -> int:
        """Insert one row given a (partial) column->value mapping; returns
        the index it was stored at."""
        row = self.schema.coerce_row(values)
        self._check_not_null(row)
        self._check_primary_key(row)
        index = len(self._rows)
        self._rows.append(row)
        pk = self.schema.primary_key_of(row)
        if pk is not None:
            self._pk_index[pk] = index
        return index

    def update_at(self, index: int, new_values: Dict[str, Any]) -> Row:
        """Apply ``new_values`` to the row at ``index``; returns the row it
        replaced. A stored row is never changed in place, so the old one is
        the undo record as it is."""
        old = self._rows[index]
        updated = dict(old)
        for key, value in new_values.items():
            column = self.schema.column(key)
            updated[column.name] = column.coerce(value)
        self._check_not_null(updated)
        old_pk = self.schema.primary_key_of(old)
        new_pk = self.schema.primary_key_of(updated)
        if new_pk != old_pk:
            self._check_primary_key(updated)
            self._unindex(index)
            if new_pk is not None:
                self._pk_index[new_pk] = index
        self._rows[index] = updated
        return old

    def delete_at(self, index: int) -> Row:
        """Delete the row at ``index``; returns the removed row (never changed in place)."""
        old = self._rows[index]
        if old is None:
            raise ConstraintViolation(f"row {index} of table {self.name!r} already deleted")
        self._unindex(index)
        self._rows[index] = None  # type: ignore[call-overload]
        return old

    def clear(self) -> None:
        """Remove every row and release the slots (no undo: catalog refresh)."""
        self._rows.clear()
        self._pk_index.clear()

    def restore_at(self, index: int, row: Row) -> None:
        """Undo helper: put ``row`` back at ``index`` (used by rollback)."""
        while len(self._rows) <= index:
            self._rows.append(None)  # type: ignore[arg-type]
        # Undoing an UPDATE that changed the key: the slot still holds the new one.
        self._unindex(index)
        self._rows[index] = dict(row)
        pk = self.schema.primary_key_of(row)
        if pk is not None:
            self._pk_index[pk] = index

    def remove_at(self, index: int) -> None:
        """Undo helper: remove the row an INSERT stored at ``index``, and
        the slot too while it is the last one (nothing was stored after it)."""
        if index < len(self._rows):
            self._unindex(index)
            if index == len(self._rows) - 1:
                self._rows.pop()
            else:
                self._rows[index] = None  # type: ignore[call-overload]

    def enumerate_rows(self) -> Iterable[Tuple[int, Row]]:
        """Yield (index, row) pairs for live rows."""
        for index, row in enumerate(self._rows):
            if row is not None:
                yield index, row
