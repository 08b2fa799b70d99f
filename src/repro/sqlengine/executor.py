"""Statement execution against a :class:`~repro.sqlengine.database.Database`."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.sqlengine.errors import SqlExecutionError, TableNotFound
from repro.sqlengine.expressions import ColumnRef, EvalContext, KeyTerms
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
    Update,
)
from repro.sqlengine.storage import Row, Table
from repro.sqlengine.transactions import Transaction, TransactionManager
from repro.sqlengine.types import SqlType

#: The Python type a key column of each SQL type stores. A key constant of
#: exactly that type compares to the column by plain ``==``, which is what
#: an index probe tests; any other pairing (``id = TRUE``, ``id = '5'``,
#: ``id = 5.0``) goes through ``_compare``'s coercions, so it scans.
_PROBE_TYPES = {SqlType.INTEGER: int, SqlType.BIGINT: int, SqlType.VARCHAR: str}


@dataclass
class ExecutionResult:
    """Result of executing one statement.

    ``rows`` is the list of result tuples (SELECT only), ``columns`` the
    projected column names, ``rowcount`` the number of affected/matched
    rows.
    """

    columns: List[str] = field(default_factory=list)
    rows: List[Tuple[Any, ...]] = field(default_factory=list)
    rowcount: int = 0


class Executor:
    """Executes parsed statements for one session.

    ``lookup_table`` resolves (possibly schema-qualified) table names to
    :class:`Table` objects; ``create_table`` / ``drop_table`` mutate the
    catalog. The executor is deliberately session-scoped because DML
    participates in the session's transaction.
    """

    def __init__(
        self,
        lookup_table: Callable[[str], Optional[Table]],
        create_table: Callable[[str, Table], None],
        drop_table: Callable[[str], bool],
        transactions: TransactionManager,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self._lookup_table = lookup_table
        self._create_table = create_table
        self._drop_table = drop_table
        self._transactions = transactions
        self._clock = clock

    # -- public ---------------------------------------------------------------

    def execute(
        self,
        statement: Statement,
        params: Optional[Dict[str, Any]] = None,
        positional: Sequence[Any] = (),
    ) -> ExecutionResult:
        params = params or {}
        if isinstance(statement, CreateTable):
            return self._execute_create(statement)
        if isinstance(statement, DropTable):
            return self._execute_drop(statement)
        if isinstance(statement, Insert):
            return self._execute_insert(statement, params, positional)
        if isinstance(statement, Select):
            return self._execute_select(statement, params, positional)
        if isinstance(statement, Update):
            return self._execute_update(statement, params, positional)
        if isinstance(statement, Delete):
            return self._execute_delete(statement, params, positional)
        if isinstance(statement, Begin):
            self._transactions.begin()
            return ExecutionResult()
        if isinstance(statement, Commit):
            self._transactions.commit()
            return ExecutionResult()
        if isinstance(statement, Rollback):
            self._transactions.rollback()
            return ExecutionResult()
        raise SqlExecutionError(f"unsupported statement type {type(statement).__name__}")

    # -- helpers ----------------------------------------------------------------

    def _require_table(self, key: str) -> Table:
        table = self._lookup_table(key)
        if table is None:
            raise TableNotFound(f"table {key!r} does not exist")
        return table

    def _context(
        self, row: Dict[str, Any], params: Dict[str, Any], positional: Sequence[Any]
    ) -> EvalContext:
        return EvalContext(
            row={key.lower(): value for key, value in row.items()},
            params=params,
            positional=positional,
            clock=self._clock,
        )

    def _transaction(self) -> Optional[Transaction]:
        return self._transactions.current

    # -- DDL ---------------------------------------------------------------------

    def _execute_create(self, statement: CreateTable) -> ExecutionResult:
        key = statement.table.key()
        existing = self._lookup_table(key)
        if existing is not None:
            if statement.if_not_exists:
                return ExecutionResult()
            raise SqlExecutionError(f"table {statement.table.qualified!r} already exists")
        table = Table(statement.schema, resolve_table=lambda name: self._lookup_table(name.lower()))
        self._create_table(key, table)
        return ExecutionResult()

    def _execute_drop(self, statement: DropTable) -> ExecutionResult:
        key = statement.table.key()
        dropped = self._drop_table(key)
        if not dropped and not statement.if_exists:
            raise TableNotFound(f"table {statement.table.qualified!r} does not exist")
        return ExecutionResult()

    # -- DML ---------------------------------------------------------------------

    def _execute_insert(
        self, statement: Insert, params: Dict[str, Any], positional: Sequence[Any]
    ) -> ExecutionResult:
        table = self._require_table(statement.table.key())
        columns = statement.columns or table.schema.column_names
        inserted = 0
        context_row: Dict[str, Any] = {}
        shared_context = self._context(context_row, params, positional)
        for row_exprs in statement.rows:
            if len(row_exprs) != len(columns):
                raise SqlExecutionError(
                    f"INSERT column/value count mismatch: {len(columns)} columns, "
                    f"{len(row_exprs)} values"
                )
            values = {
                column: expression.evaluate(shared_context)
                for column, expression in zip(columns, row_exprs)
            }
            index = table.insert(values)
            transaction = self._transaction()
            if transaction is not None:
                transaction.record_insert(table, index)
            inserted += 1
        return ExecutionResult(rowcount=inserted)

    def _matching_rows(
        self,
        table: Table,
        statement: Union[Select, Update, Delete],
        params: Dict[str, Any],
        positional: Sequence[Any],
    ) -> List[Tuple[int, Row]]:
        """The rows ``statement.where`` selects, in row order.

        The one access-path decision: when the predicate pins the whole
        primary key to constants the candidates come from the key index,
        otherwise every row is one. Either way the *whole* predicate is
        evaluated on each candidate, so the index only has to return a
        superset of the matches and can never change a result.
        """
        where = statement.where
        keys = self._probe_keys(table, statement.key_terms, params, positional)
        candidates = table.enumerate_rows() if keys is None else table.rows_with_keys(keys)
        if where is None:
            return list(candidates)
        return [
            (index, row)
            for index, row in candidates
            if where.evaluate(self._context(row, params, positional))
        ]

    def _probe_keys(
        self,
        table: Table,
        terms: KeyTerms,
        params: Dict[str, Any],
        positional: Sequence[Any],
    ) -> Optional[List[Tuple[Any, ...]]]:
        """The primary keys a matching row must have one of, or None to scan.

        ``terms`` says which columns the predicate pins; whether those are
        the key is asked of the table as it is now. When in doubt, scan: a
        key column left unpinned, a constant that is not of the column's
        stored type or cannot be evaluated, an ``IN`` list on a composite
        key. A NULL constant equals nothing, so it contributes no key.
        """
        if not terms:
            return None
        key_columns = [column for column in table.schema.columns if column.primary_key]
        if not key_columns:
            return None
        context = self._context({}, params, positional)
        choices: List[List[Any]] = []
        for column in key_columns:
            constants = terms.get(column.name.lower())
            stored_type = _PROBE_TYPES.get(column.sql_type)
            if constants is None or stored_type is None:
                return None
            if len(constants) > 1 and len(key_columns) > 1:
                return None
            values = []
            for constant in constants:
                try:
                    value = constant.evaluate(context)
                except SqlExecutionError:
                    return None  # a missing parameter: let the scan report it, if it gets that far
                if value is None:
                    continue
                if type(value) is not stored_type:
                    return None
                values.append(value)
            choices.append(values)
        return list(itertools.product(*choices))

    def _execute_select(
        self, statement: Select, params: Dict[str, Any], positional: Sequence[Any]
    ) -> ExecutionResult:
        if statement.table is None:
            # SELECT without FROM: evaluate expressions against an empty row.
            context = self._context({}, params, positional)
            columns = []
            values = []
            for position, item in enumerate(statement.items):
                if item.star or item.expression is None:
                    raise SqlExecutionError("SELECT * requires a FROM clause")
                columns.append(item.alias or f"col{position}")
                values.append(item.expression.evaluate(context))
            return ExecutionResult(columns=columns, rows=[tuple(values)], rowcount=1)

        table = self._require_table(statement.table.key())
        matches = self._matching_rows(table, statement, params, positional)

        aggregates = [item for item in statement.items if item.aggregate]
        if aggregates:
            if len(aggregates) != len(statement.items):
                raise SqlExecutionError("cannot mix aggregate and non-aggregate select items")
            return self._execute_aggregates(statement.items, table, matches, params, positional)

        if statement.order_by:
            matches = self._apply_order(matches, statement, params, positional)
        if statement.limit is not None:
            matches = matches[: statement.limit]

        columns = self._projection_columns(statement.items, table)
        rows: List[Tuple[Any, ...]] = []
        for _index, row in matches:
            context = self._context(row, params, positional)
            projected: List[Any] = []
            for item in statement.items:
                if item.star:
                    projected.extend(row[name] for name in table.schema.column_names)
                else:
                    assert item.expression is not None
                    projected.append(item.expression.evaluate(context))
            rows.append(tuple(projected))
        return ExecutionResult(columns=columns, rows=rows, rowcount=len(rows))

    def _apply_order(
        self,
        matches: List[Tuple[int, Row]],
        statement: Select,
        params: Dict[str, Any],
        positional: Sequence[Any],
    ) -> List[Tuple[int, Row]]:
        ordered = matches
        # Stable sort per ORDER BY item, applied right-to-left so the
        # leftmost item has the highest priority and DESC flags apply per item.
        for position in range(len(statement.order_by) - 1, -1, -1):
            order_item = statement.order_by[position]

            def item_key(entry: Tuple[int, Row], _item=order_item):
                _index, row = entry
                context = self._context(row, params, positional)
                value = _item.expression.evaluate(context)
                return (value is None, value if value is not None else 0)

            ordered = sorted(ordered, key=item_key, reverse=order_item.descending)
        return ordered

    def _execute_aggregates(
        self,
        items: List[SelectItem],
        table: Table,
        matches: List[Tuple[int, Row]],
        params: Dict[str, Any],
        positional: Sequence[Any],
    ) -> ExecutionResult:
        columns: List[str] = []
        values: List[Any] = []
        for position, item in enumerate(items):
            name = item.alias or f"{item.aggregate.lower()}{position}"
            columns.append(name)
            aggregate = item.aggregate
            if aggregate == "COUNT" and item.expression is None:
                values.append(len(matches))
                continue
            samples: List[Any] = []
            for _index, row in matches:
                context = self._context(row, params, positional)
                if item.expression is None:
                    samples.append(1)
                else:
                    value = item.expression.evaluate(context)
                    if value is not None:
                        samples.append(value)
            if aggregate == "COUNT":
                values.append(len(samples))
            elif aggregate == "MAX":
                values.append(max(samples) if samples else None)
            elif aggregate == "MIN":
                values.append(min(samples) if samples else None)
            elif aggregate == "SUM":
                values.append(sum(samples) if samples else None)
            elif aggregate == "AVG":
                values.append(sum(samples) / len(samples) if samples else None)
            else:  # pragma: no cover - parser restricts aggregates
                raise SqlExecutionError(f"unsupported aggregate {aggregate!r}")
        return ExecutionResult(columns=columns, rows=[tuple(values)], rowcount=1)

    def _projection_columns(self, items: List[SelectItem], table: Table) -> List[str]:
        columns: List[str] = []
        for position, item in enumerate(items):
            if item.star:
                columns.extend(table.schema.column_names)
            elif item.alias:
                columns.append(item.alias)
            else:
                expression = item.expression
                if isinstance(expression, ColumnRef):
                    columns.append(expression.name)
                else:
                    columns.append(f"col{position}")
        return columns

    def _execute_update(
        self, statement: Update, params: Dict[str, Any], positional: Sequence[Any]
    ) -> ExecutionResult:
        table = self._require_table(statement.table.key())
        matches = self._matching_rows(table, statement, params, positional)
        updated = 0
        for index, row in matches:
            context = self._context(row, params, positional)
            new_values = {
                column: expression.evaluate(context)
                for column, expression in statement.assignments
            }
            before, _after = table.update_at(index, new_values)
            transaction = self._transaction()
            if transaction is not None:
                transaction.record_update(table, index, before)
            updated += 1
        return ExecutionResult(rowcount=updated)

    def _execute_delete(
        self, statement: Delete, params: Dict[str, Any], positional: Sequence[Any]
    ) -> ExecutionResult:
        table = self._require_table(statement.table.key())
        matches = self._matching_rows(table, statement, params, positional)
        deleted = 0
        for index, _row in matches:
            before = table.delete_at(index)
            transaction = self._transaction()
            if transaction is not None:
                transaction.record_delete(table, index, before)
            deleted += 1
        return ExecutionResult(rowcount=deleted)
