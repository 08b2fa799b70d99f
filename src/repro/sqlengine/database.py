"""A single database: a catalog of tables plus its ``information_schema``."""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Optional

from repro.sqlengine.errors import SqlExecutionError
from repro.sqlengine.executor import Plan, Planner
from repro.sqlengine.parser import STATEMENT_CACHE_SIZE
from repro.sqlengine.schema import Column, TableSchema
from repro.sqlengine.statements import Statement
from repro.sqlengine.storage import Table
from repro.sqlengine.types import SqlType


class Database:
    """Named catalog of tables.

    Tables are stored under a canonical lowercase key which may be
    schema-qualified (``information_schema.drivers``). Unqualified names
    resolve directly. The catalog also exposes a built-in
    ``information_schema.tables`` view-like table that is refreshed on
    demand so clients can introspect the catalog through plain SQL.

    The database also keeps the plans of the last
    :data:`~repro.sqlengine.parser.STATEMENT_CACHE_SIZE` distinct SQL texts
    it ran (least recently used goes first), read and run under
    :attr:`lock`. A plan holds its table, so creating or dropping a table
    forgets every plan; a plan on a refreshed catalog is never kept.
    """

    def __init__(self, name: str, clock: Callable[[], float] = time.time) -> None:
        self.name = name
        self.clock = clock
        self._tables: Dict[str, Table] = {}
        self._lock = threading.RLock()
        self._plans: "OrderedDict[str, Plan]" = OrderedDict()
        self._planner = Planner(
            self.lookup_table,
            self.create_table,
            self.drop_table,
            clock=clock,
            uncached=frozenset(self._BUILTIN_CATALOGS),
        )
        self._create_tables_catalog()

    # -- catalog -------------------------------------------------------------

    #: Built-in catalogs, refreshed on demand and hidden from themselves.
    _BUILTIN_CATALOGS = ("information_schema.tables", "information_schema.columns")

    def _create_tables_catalog(self) -> None:
        schema = TableSchema(
            name="information_schema.tables",
            columns=[
                Column("table_name", SqlType.VARCHAR, not_null=True),
                Column("table_schema", SqlType.VARCHAR),
            ],
        )
        self._tables["information_schema.tables"] = Table(schema, self)
        columns_schema = TableSchema(
            name="information_schema.columns",
            columns=[
                Column("table_name", SqlType.VARCHAR, not_null=True),
                Column("table_schema", SqlType.VARCHAR),
                Column("column_name", SqlType.VARCHAR, not_null=True),
                Column("ordinal_position", SqlType.INTEGER, not_null=True),
                Column("data_type", SqlType.VARCHAR, not_null=True),
                Column("is_nullable", SqlType.BOOLEAN),
                Column("is_primary_key", SqlType.BOOLEAN),
                Column("references_table", SqlType.VARCHAR),
                Column("references_column", SqlType.VARCHAR),
            ],
        )
        self._tables["information_schema.columns"] = Table(columns_schema, self)

    @staticmethod
    def _split_key(key: str):
        if "." in key:
            schema_name, _, table_name = key.partition(".")
            return schema_name, table_name
        return None, key

    def _refresh_tables_catalog(self) -> None:
        catalog = self._tables["information_schema.tables"]
        # Rebuild in place: simplest correct behaviour for a tiny catalog.
        catalog.clear()
        for key in sorted(self._tables):
            if key in self._BUILTIN_CATALOGS:
                continue
            schema_name, table_name = self._split_key(key)
            catalog.insert({"table_name": table_name, "table_schema": schema_name})

    def _refresh_columns_catalog(self) -> None:
        """Column-level introspection: enough detail to reconstruct every
        user table's DDL (types, NOT NULL, PRIMARY KEY, REFERENCES) —
        this is what the cluster's DatabaseDumper reads to snapshot a
        backend through plain SQL."""
        catalog = self._tables["information_schema.columns"]
        catalog.clear()
        for key in sorted(self._tables):
            if key in self._BUILTIN_CATALOGS:
                continue
            schema_name, table_name = self._split_key(key)
            table = self._tables[key]
            for position, column in enumerate(table.schema.columns, start=1):
                catalog.insert(
                    {
                        "table_name": table_name,
                        "table_schema": schema_name,
                        "column_name": column.name,
                        "ordinal_position": position,
                        "data_type": column.sql_type.value,
                        "is_nullable": not column.not_null,
                        "is_primary_key": column.primary_key,
                        "references_table": column.references.table if column.references else None,
                        "references_column": column.references.column if column.references else None,
                    }
                )

    def lookup_table(self, key: str) -> Optional[Table]:
        """Resolve a canonical lowercase table key to its table."""
        with self._lock:
            if key == "information_schema.tables":
                self._refresh_tables_catalog()
            elif key == "information_schema.columns":
                self._refresh_columns_catalog()
            return self._tables.get(key.lower())

    def create_table(self, key: str, schema: TableSchema) -> Table:
        with self._lock:
            lowered = key.lower()
            if lowered in self._tables:
                raise SqlExecutionError(f"table {key!r} already exists in database {self.name!r}")
            table = self._tables[lowered] = Table(schema, self)
            self._catalog_changed()
            return table

    def drop_table(self, key: str) -> bool:
        with self._lock:
            dropped = self._tables.pop(key.lower(), None) is not None
            self._catalog_changed()
            return dropped

    def _catalog_changed(self) -> None:
        """Forget every plan (a plan holds its table) and give each table
        the REFERENCES to it from the tables there are now."""
        self.clear_plans()
        for table in self._tables.values():
            table.referrers = []
        for table in self._tables.values():
            for column, foreign_key in table.schema.foreign_keys():
                target = self._tables.get(foreign_key.table.lower())
                name = None if target is None else target.schema.stored_name(foreign_key.column)
                if name is not None:
                    target.referrers.append((table, column.name, name))

    # -- plans ---------------------------------------------------------------

    def cached_plan(self, sql: str) -> Optional[Plan]:
        """The plan kept for ``sql``, or None. The caller holds :attr:`lock`."""
        plan = self._plans.get(sql)
        if plan is not None:
            self._plans.move_to_end(sql)
        return plan

    def plan(self, sql: str, statement: Statement) -> Plan:
        """Plan ``statement``, parsed from ``sql``, and keep the plan for
        that text if it may be kept. The caller holds :attr:`lock`."""
        plan, cacheable = self._planner.plan(statement)
        if cacheable:
            self._plans[sql] = plan
            self._plans.move_to_end(sql)
            if len(self._plans) > STATEMENT_CACHE_SIZE:
                self._plans.popitem(last=False)
        return plan

    def clear_plans(self) -> None:
        """Forget every kept plan (the catalog changed)."""
        with self._lock:
            self._plans.clear()

    @property
    def lock(self) -> threading.RLock:
        """Engine-wide statement lock (sessions serialize on this)."""
        return self._lock
