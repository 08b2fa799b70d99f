"""Statement plans for a :class:`~repro.sqlengine.database.Database`.

A statement runs as a *plan*: closures built once per statement and table
by :class:`Planner`, with every column name resolved to the key its rows
store it under, the key-probe decision's static half (which columns are the
key, what type they store) worked out, and each expression compiled
(:meth:`Expression.compile`). The database keeps the plans of recent texts
(``Database.cached_plan``), so a repeated statement is neither parsed nor
planned again. A plan reads the catalog only when it is built; what it
reads at run time is the rows, the parameters and the running session's
transaction.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.sqlengine.errors import SqlExecutionError, TableNotFound
from repro.sqlengine.expressions import ColumnRef, Compiled, Expression, KeyTerms, failing
from repro.sqlengine.schema import TableSchema
from repro.sqlengine.statements import (
    Begin,
    Commit,
    CreateTable,
    Delete,
    DropTable,
    Insert,
    Rollback,
    Select,
    SelectItem,
    Statement,
    TableName,
    Update,
)
from repro.sqlengine.storage import Row, Table
from repro.sqlengine.transactions import TransactionManager
from repro.sqlengine.types import SqlType

#: The Python type a key column of each SQL type stores. A key constant of
#: exactly that type compares to the column by plain ``==``, which is what
#: an index probe tests; any other pairing (``id = TRUE``, ``id = '5'``,
#: ``id = 5.0``) goes through ``_compare``'s coercions, so it scans.
_PROBE_TYPES = {SqlType.INTEGER: int, SqlType.BIGINT: int, SqlType.VARCHAR: str}

#: The row a table-less expression (a key constant, an INSERT value, a
#: SELECT without FROM) is evaluated on: it has no columns.
_NO_ROW: Row = {}


def _no_column(name: str) -> Optional[str]:
    return None


@dataclass
class ResultSet:
    """Result of one SQL statement execution.

    ``rows`` is the list of result tuples (SELECT only), ``columns`` the
    projected column names, ``rowcount`` the number of affected/matched
    rows.
    """

    columns: List[str] = field(default_factory=list)
    rows: List[Tuple[Any, ...]] = field(default_factory=list)
    rowcount: int = 0

    def first(self) -> Optional[Tuple[Any, ...]]:
        """The first row, or None if the result is empty."""
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        """The single value of a single-row, single-column result."""
        row = self.first()
        return row[0] if row else None

    def as_dicts(self) -> List[Dict[str, Any]]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]


#: A plan: ``plan(transactions, params, positional)`` runs the statement
#: for the session whose transactions are given (its undo log records the
#: plan's writes) and returns its result.
Plan = Callable[[TransactionManager, Dict[str, Any], Sequence[Any]], ResultSet]
#: The key-probe decision's run-time half: the primary keys a matching row
#: must have one of, or None to scan.
Probe = Callable[[Dict[str, Any], Sequence[Any]], Optional[List[Tuple[Any, ...]]]]
#: A compiled projection: one result tuple from one stored row.
Projection = Callable[[Row, Dict[str, Any], Sequence[Any]], Tuple[Any, ...]]


def _matching_rows(
    table: Table,
    probe: Optional[Probe],
    where: Optional[Compiled],
    params: Dict[str, Any],
    positional: Sequence[Any],
) -> List[Tuple[int, Row]]:
    """The rows ``where`` selects, in row order.

    The one access-path decision: when the predicate pins the whole
    primary key to constants the candidates come from the key index,
    otherwise every row is one. Either way the *whole* predicate is
    evaluated on each candidate, so the index only has to return a
    superset of the matches and can never change a result.
    """
    keys = None if probe is None else probe(params, positional)
    candidates = table.enumerate_rows() if keys is None else table.rows_with_keys(keys)
    if where is None:
        return list(candidates)
    return [(index, row) for index, row in candidates if where(row, params, positional)]


def _begin(transactions: TransactionManager, params, positional) -> ResultSet:
    transactions.begin()
    return ResultSet()


def _commit(transactions: TransactionManager, params, positional) -> ResultSet:
    transactions.commit()
    return ResultSet()


def _rollback(transactions: TransactionManager, params, positional) -> ResultSet:
    transactions.rollback()
    return ResultSet()


def _order_key(value: Any) -> Tuple[bool, Any]:
    return (value is None, value if value is not None else 0)


def _aggregate(kind: str, samples: List[Any]) -> Any:
    if kind == "COUNT":
        return len(samples)
    if kind == "MAX":
        return max(samples) if samples else None
    if kind == "MIN":
        return min(samples) if samples else None
    if kind == "SUM":
        return sum(samples) if samples else None
    if kind == "AVG":
        return sum(samples) / len(samples) if samples else None
    raise SqlExecutionError(f"unsupported aggregate {kind!r}")  # pragma: no cover - parser restricts aggregates


class Planner:
    """Builds the plan of a parsed statement against one database's catalog.

    ``lookup_table`` resolves (possibly schema-qualified) table keys to
    :class:`Table` objects and ``create_table`` / ``drop_table`` change the
    catalog; ``uncached`` names the tables whose plans must not outlive
    one execution (the catalogs ``lookup_table`` refreshes).
    """

    def __init__(
        self,
        lookup_table: Callable[[str], Optional[Table]],
        create_table: Callable[[str, TableSchema], Table],
        drop_table: Callable[[str], bool],
        clock: Callable[[], float] = time.time,
        uncached: FrozenSet[str] = frozenset(),
    ) -> None:
        self._lookup_table = lookup_table
        self._create_table = create_table
        self._drop_table = drop_table
        self._clock = clock
        self._uncached = uncached

    def plan(self, statement: Statement) -> Tuple[Plan, bool]:
        """The plan of ``statement``, and whether it may be cached for its
        text. Raises only what the statement would raise before visiting a
        row (a missing table); every other error stays in the plan."""
        if isinstance(statement, Select):
            return self._plan_select(statement)
        if isinstance(statement, Update):
            return self._plan_update(statement)
        if isinstance(statement, Insert):
            return self._plan_insert(statement)
        if isinstance(statement, Delete):
            return self._plan_delete(statement)
        if isinstance(statement, Begin):
            return _begin, True
        if isinstance(statement, Commit):
            return _commit, True
        if isinstance(statement, Rollback):
            return _rollback, True
        if isinstance(statement, CreateTable):
            return self._plan_create(statement), False
        if isinstance(statement, DropTable):
            return self._plan_drop(statement), False
        raise SqlExecutionError(f"unsupported statement type {type(statement).__name__}")

    # -- helpers ----------------------------------------------------------------

    def _require_table(self, name: TableName) -> Tuple[Table, bool]:
        key = name.key()
        table = self._lookup_table(key)
        if table is None:
            raise TableNotFound(f"table {key!r} does not exist")
        return table, key not in self._uncached

    def _compile(self, expression: Expression, schema: Optional[TableSchema]) -> Compiled:
        return expression.compile(_no_column if schema is None else schema.stored_name, self._clock)

    def _compile_where(self, statement, table: Table) -> Tuple[Optional[Probe], Optional[Compiled]]:
        where = None if statement.where is None else self._compile(statement.where, table.schema)
        return self._compile_probe(table, statement.key_terms), where

    def _compile_probe(self, table: Table, terms: KeyTerms) -> Optional[Probe]:
        """The probe for the keys ``terms`` pins, or None where the plan
        always scans.

        ``terms`` says which columns the predicate pins; whether those are
        the key is asked of the table the plan is for. When in doubt, scan:
        a key column left unpinned, a constant that is not of the column's
        stored type or cannot be evaluated, an ``IN`` list on a composite
        key. A NULL constant equals nothing, so it contributes no key.
        """
        if not terms:
            return None
        key_columns = [column for column in table.schema.columns if column.primary_key]
        if not key_columns:
            return None
        pinned: List[Tuple[type, List[Compiled]]] = []
        for column in key_columns:
            constants = terms.get(column.name.lower())
            stored_type = _PROBE_TYPES.get(column.sql_type)
            if constants is None or stored_type is None:
                return None
            if len(constants) > 1 and len(key_columns) > 1:
                return None
            pinned.append((stored_type, [self._compile(constant, None) for constant in constants]))

        def keys(params, positional):
            choices: List[List[Any]] = []
            for stored_type, constants in pinned:
                values = []
                for constant in constants:
                    try:
                        value = constant(_NO_ROW, params, positional)
                    except SqlExecutionError:
                        return None
                    if value is None:
                        continue
                    if type(value) is not stored_type:
                        return None
                    values.append(value)
                choices.append(values)
            return list(itertools.product(*choices))

        return keys

    # -- DDL ---------------------------------------------------------------------

    def _plan_create(self, statement: CreateTable) -> Plan:
        def create(transactions, params, positional):
            key = statement.table.key()
            existing = self._lookup_table(key)
            if existing is not None:
                if statement.if_not_exists:
                    return ResultSet()
                raise SqlExecutionError(f"table {statement.table.qualified!r} already exists")
            self._create_table(key, statement.schema)
            return ResultSet()

        return create

    def _plan_drop(self, statement: DropTable) -> Plan:
        def drop(transactions, params, positional):
            dropped = self._drop_table(statement.table.key())
            if not dropped and not statement.if_exists:
                raise TableNotFound(f"table {statement.table.qualified!r} does not exist")
            return ResultSet()

        return drop

    # -- DML ---------------------------------------------------------------------

    def _plan_insert(self, statement: Insert) -> Tuple[Plan, bool]:
        table, cacheable = self._require_table(statement.table)
        columns = statement.columns or table.schema.column_names
        row_values = [self._compile_values(columns, expressions) for expressions in statement.rows]

        def insert(transactions, params, positional):
            transaction = transactions.current
            for values in row_values:
                index = table.insert(values(params, positional))
                if transaction is not None:
                    transaction.record_insert(table, index)
            return ResultSet(rowcount=len(row_values))

        return insert, cacheable and statement.parameterized

    def _compile_values(
        self, columns: List[str], expressions: List[Expression]
    ) -> Callable[[Dict[str, Any], Sequence[Any]], Dict[str, Any]]:
        """One VALUES row as ``values(params, positional) -> {column: value}``."""
        if len(expressions) != len(columns):
            fail = failing(
                SqlExecutionError,
                f"INSERT column/value count mismatch: {len(columns)} columns, {len(expressions)} values",
            )
            return lambda params, positional: fail(_NO_ROW, params, positional)
        pairs = [(column, self._compile(expression, None)) for column, expression in zip(columns, expressions)]
        return lambda params, positional: {
            column: value(_NO_ROW, params, positional) for column, value in pairs
        }

    def _plan_select(self, statement: Select) -> Tuple[Plan, bool]:
        if statement.table is None:
            return self._plan_constant_select(statement.items), True
        table, cacheable = self._require_table(statement.table)
        probe, where = self._compile_where(statement, table)
        items = statement.items

        aggregates = [item for item in items if item.aggregate]
        if aggregates:
            if len(aggregates) != len(items):

                def mixed(transactions, params, positional):
                    _matching_rows(table, probe, where, params, positional)
                    raise SqlExecutionError("cannot mix aggregate and non-aggregate select items")

                return mixed, cacheable
            return self._plan_aggregates(items, table, probe, where), cacheable

        order = [
            (self._compile(item.expression, table.schema), item.descending) for item in statement.order_by
        ]
        limit = statement.limit
        columns = _projection_columns(items, table.schema)
        project = self._compile_projection(items, table.schema)

        def select(transactions, params, positional):
            matches = _matching_rows(table, probe, where, params, positional)
            for value, descending in reversed(order):
                # Stable sorts, rightmost item first: the leftmost has the highest priority.
                matches = sorted(
                    matches,
                    key=lambda entry: _order_key(value(entry[1], params, positional)),
                    reverse=descending,
                )
            if limit is not None:
                matches = matches[:limit]
            rows = [project(row, params, positional) for _index, row in matches]
            return ResultSet(columns=list(columns), rows=rows, rowcount=len(rows))

        return select, cacheable

    def _compile_projection(self, items: List[SelectItem], schema: TableSchema) -> Projection:
        values: List[Compiled] = []
        for item in items:
            if item.star:
                values.extend(_stored_column(name) for name in schema.column_names)
            else:
                assert item.expression is not None
                values.append(self._compile(item.expression, schema))
        return lambda row, params, positional: tuple([value(row, params, positional) for value in values])

    def _plan_constant_select(self, items: List[SelectItem]) -> Plan:
        """SELECT without FROM: the items evaluated on a row with no columns."""
        columns: List[str] = []
        values: List[Compiled] = []
        for position, item in enumerate(items):
            if item.star or item.expression is None:
                values.append(failing(SqlExecutionError, "SELECT * requires a FROM clause"))
                break
            columns.append(item.alias or f"col{position}")
            values.append(self._compile(item.expression, None))

        def constant(transactions, params, positional):
            row = tuple([value(_NO_ROW, params, positional) for value in values])
            return ResultSet(columns=list(columns), rows=[row], rowcount=1)

        return constant

    def _plan_aggregates(
        self, items: List[SelectItem], table: Table, probe: Optional[Probe], where: Optional[Compiled]
    ) -> Plan:
        columns: List[str] = []
        aggregates: List[Tuple[str, Optional[Compiled]]] = []
        for position, item in enumerate(items):
            assert item.aggregate is not None
            columns.append(item.alias or f"{item.aggregate.lower()}{position}")
            value = None if item.expression is None else self._compile(item.expression, table.schema)
            aggregates.append((item.aggregate, value))

        def aggregate(transactions, params, positional):
            matches = _matching_rows(table, probe, where, params, positional)
            results: List[Any] = []
            for kind, value in aggregates:
                if value is None:
                    samples: List[Any] = [1] * len(matches)
                else:
                    evaluated = (value(row, params, positional) for _index, row in matches)
                    samples = [sample for sample in evaluated if sample is not None]
                results.append(_aggregate(kind, samples))
            return ResultSet(columns=list(columns), rows=[tuple(results)], rowcount=1)

        return aggregate

    def _plan_update(self, statement: Update) -> Tuple[Plan, bool]:
        table, cacheable = self._require_table(statement.table)
        probe, where = self._compile_where(statement, table)
        # A SET column is looked up by Table.update_at on each row it
        # changes, so an unknown one fails only there.
        assignments = [
            (column, self._compile(expression, table.schema)) for column, expression in statement.assignments
        ]

        def update(transactions, params, positional):
            matches = _matching_rows(table, probe, where, params, positional)
            transaction = transactions.current
            for index, row in matches:
                before = table.update_at(
                    index, {column: value(row, params, positional) for column, value in assignments}
                )
                if transaction is not None:
                    transaction.record_update(table, index, before)
            return ResultSet(rowcount=len(matches))

        return update, cacheable

    def _plan_delete(self, statement: Delete) -> Tuple[Plan, bool]:
        table, cacheable = self._require_table(statement.table)
        probe, where = self._compile_where(statement, table)

        def delete(transactions, params, positional):
            matches = _matching_rows(table, probe, where, params, positional)
            transaction = transactions.current
            for index, _row in matches:
                before = table.delete_at(index)
                if transaction is not None:
                    transaction.record_delete(table, index, before)
            return ResultSet(rowcount=len(matches))

        return delete, cacheable


def _stored_column(name: str) -> Compiled:
    return lambda row, params, positional: row[name]


def _projection_columns(items: List[SelectItem], schema: TableSchema) -> List[str]:
    columns: List[str] = []
    for position, item in enumerate(items):
        if item.star:
            columns.extend(schema.column_names)
        elif item.alias:
            columns.append(item.alias)
        elif isinstance(item.expression, ColumnRef):
            columns.append(item.expression.name)
        else:
            columns.append(f"col{position}")
    return columns
