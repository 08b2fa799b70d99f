"""Lock-scope resolution: the one place that decides what a write locks.

:class:`ScopeResolver` turns a classified statement and its parameters
into the :class:`~repro.cluster.locks.LockScope` its broadcast must
hold: the rows it provably touches (a single-row INSERT/UPDATE/DELETE or
a ``pk IN (...)`` UPDATE/DELETE whose primary-key values fully resolve),
else the tables it touches, else ``EXCLUSIVE``. A table's primary key
comes from the ``primary_keys`` seed or, lazily, from an enabled
backend's ``information_schema.columns`` catalog; any failure to resolve
one yields the table scope, which is always safe.

**The generation rule.** A key scope is resolved *before* its lock is
taken, so :meth:`ScopeResolver.resolve` returns the resolver's
*generation* with the scope, and :meth:`ScopeResolver.invalidate` —
called by a DDL while it still holds its own lock scope, which conflicts
with every key on the tables it changes — bumps it. A key writer
compares the generation after acquiring: unchanged means no DDL
completed since it resolved (one still running holds a conflicting
scope, so the writer could not have acquired); changed means release
and resolve again. A catalog probe is cached only if the generation did
not move while it ran, so an answer read before a DDL is never stored
after it.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.cluster.backend import Backend
from repro.cluster.classifier import ClassifiedStatement, normalize_table_name
from repro.cluster.locks import EXCLUSIVE, LockScope

#: Statements eligible for a key-level lock scope.
KEYABLE_COMMANDS = ("INSERT", "UPDATE", "DELETE")

#: Sentinel for "no usable canonical key" (fall back to a table lock).
_NO_KEY = object()

#: ``(column, declared data_type, 1-based ordinal or None)`` of a table's
#: single-column primary key.
PrimaryKey = Tuple[str, str, Optional[int]]


def _canonical_key(value: Any, data_type: str) -> Any:
    """Reduce one resolved predicate value to the canonical key the lock
    manager compares, honouring the engine's comparison coercions (see
    ``sqlengine.expressions._compare``): an INTEGER primary key matches
    ``id = 7``, ``id = 7.0`` and ``id = '7'`` against the same row, so
    all three must collide on the same lock key. Returns ``_NO_KEY``
    when the value cannot be proven to address one key — bools coerce
    *the column* instead of the value (``id = TRUE`` matches every
    nonzero id), NULL never matches, and exotic types fall back."""
    if value is None or isinstance(value, bool):
        return _NO_KEY
    data_type = (data_type or "").upper()
    if data_type in ("INTEGER", "BIGINT"):
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            return int(value) if value.is_integer() else _NO_KEY
        if isinstance(value, str):
            # The engine compares str(row_value) == value: only the exact
            # decimal spelling matches a row ('07' matches nothing).
            try:
                parsed = int(value.strip())
            except ValueError:
                return _NO_KEY
            return parsed if str(parsed) == value.strip() else _NO_KEY
        return _NO_KEY
    if data_type == "VARCHAR":
        if isinstance(value, str):
            return value
        if isinstance(value, (int, float)):
            # The engine stringifies the number side of a str/number
            # comparison, so 7 addresses the same row as '7'.
            return str(value)
        return _NO_KEY
    # DOUBLE/TIMESTAMP/BLOB/BOOLEAN keys: equality semantics are too
    # subtle to prove key identity — table lock.
    return _NO_KEY


def _resolve_lock_key(expr: Any, params: Optional[Dict[str, Any]], data_type: str) -> Any:
    """Resolve one classifier KeyExpr to a canonical lock key, or
    ``_NO_KEY`` when it cannot be proven to address one row."""
    expr_kind, payload = expr
    if expr_kind == "value":
        value = payload
    elif expr_kind == "param":
        # Positional params ("?") can't be matched to a value here.
        if payload == "?" or not params or payload not in params:
            return _NO_KEY
        value = params[payload]
    else:  # opaque
        return _NO_KEY
    return _canonical_key(value, data_type)


def _key_expr_for(statement: ClassifiedStatement, pk_column: str, pk_ordinal: Optional[int]):
    """The classifier-extracted expression giving the PK value this
    statement addresses, or None when the statement cannot be proven
    single-key (range/absent predicate, multi-row INSERT, PK
    reassignment)."""
    if statement.command == "INSERT":
        if statement.insert_values is None:
            return None
        if statement.insert_columns is not None:
            try:
                position = statement.insert_columns.index(pk_column)
            except ValueError:
                # PK not in the column list: it takes a DEFAULT the
                # classifier cannot see.
                return None
        elif pk_ordinal is not None:
            position = pk_ordinal - 1
        else:
            return None
        if position >= len(statement.insert_values):
            return None
        return statement.insert_values[position]
    if statement.command == "UPDATE" and pk_column in statement.set_columns:
        # Reassigning the PK moves the row to a second key; a single
        # key lock would not cover the destination.
        return None
    for column, expr in statement.where_equalities:
        if column == pk_column:
            return expr
    return None


def _key_exprs_from_in_list(
    statement: ClassifiedStatement, pk_column: str
) -> Optional[Tuple[Any, ...]]:
    """The ``pk IN (...)`` elements bounding an UPDATE/DELETE's touched
    keys, or None. Sound because an AND-conjunct IN list means every
    touched row's PK is among the listed values; a PK-reassigning
    UPDATE moves rows to a key *outside* the list, so it never
    qualifies (INSERT has no WHERE at all)."""
    if statement.command not in ("UPDATE", "DELETE"):
        return None
    if statement.command == "UPDATE" and pk_column in statement.set_columns:
        return None
    for column, exprs in statement.where_in_lists:
        if column == pk_column:
            return exprs
    return None


class ScopeResolver:
    """Resolves statements to lock scopes; owns the primary-key cache.

    ``enabled_backends`` returns the backends a catalog probe may ask;
    ``primary_keys`` pre-seeds entries (table → (column, type)) for
    environments whose backends expose no catalog (experiments). Seeded
    entries are never probed and never invalidated."""

    def __init__(
        self,
        enabled_backends: Callable[[], List[Backend]],
        primary_keys: Optional[Dict[str, Tuple[str, str]]] = None,
    ) -> None:
        self._enabled_backends = enabled_backends
        self._seed: Dict[str, PrimaryKey] = {
            normalize_table_name(table): (column.lower(), data_type, None)
            for table, (column, data_type) in (primary_keys or {}).items()
        }
        self._lock = threading.Lock()
        #: table → its primary key, or None when the table has no
        #: single-column PK (or is unknown).
        self._cache: Dict[str, Optional[PrimaryKey]] = {}
        #: Bumped by every :meth:`invalidate`; see the generation rule.
        self.generation = 0

    def resolve(
        self, statement: ClassifiedStatement, params: Optional[Dict[str, Any]]
    ) -> Tuple[LockScope, int]:
        """``(scope, generation)``: what a broadcast of ``statement``
        must lock, and the generation its key resolution (if any) is
        valid for."""
        tables = statement.lock_tables
        if tables is None:
            return EXCLUSIVE, self.generation
        table_scope = LockScope(tables=tables)
        if (
            statement.command not in KEYABLE_COMMANDS
            or len(statement.write_tables) != 1
            or tables != statement.write_tables
        ):
            # Reads/REFERENCES alongside the write keep table locks: the
            # key only covers the written row, not the observed tables.
            return table_scope, self.generation
        table = next(iter(tables))
        primary_key, generation = self._primary_key(table)
        if primary_key is None:
            return table_scope, generation
        pk_column, data_type, ordinal = primary_key
        expr = _key_expr_for(statement, pk_column, ordinal)
        exprs = (expr,) if expr is not None else _key_exprs_from_in_list(statement, pk_column)
        if exprs is None:
            return table_scope, generation
        keys = set()
        for element in exprs:
            key = _resolve_lock_key(element, params, data_type)
            if key is _NO_KEY:
                # One unresolvable element poisons the whole list: the
                # statement may touch a row no listed key covers.
                return table_scope, generation
            keys.add((table, key))
        return LockScope(keys=frozenset(keys)), generation

    def invalidate(self, tables: Optional[Iterable[str]]) -> None:
        """Forget cached keys for ``tables`` (everything when the DDL's
        table set is unknown) and bump the generation. Must be called
        while the DDL still holds its lock scope — that is what lets a
        key writer's post-acquire generation compare stand for "no DDL
        touched my table since I resolved"."""
        with self._lock:
            if tables:
                for table in tables:
                    self._cache.pop(table, None)
            else:
                self._cache.clear()
            self.generation += 1

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {"primary_keys_cached": len(self._cache)}

    def _primary_key(self, table: str) -> Tuple[Optional[PrimaryKey], int]:
        """``table``'s primary key (None when it has no usable one) and
        the generation the answer was read at."""
        seeded = self._seed.get(table)
        if seeded is not None:
            return seeded, self.generation
        with self._lock:
            generation = self.generation
            if table in self._cache:
                return self._cache[table], generation
        probed = self._probe(table)
        with self._lock:
            if self.generation == generation:
                self._cache[table] = probed
        # A probe an invalidation overtook is returned with the
        # generation it started at, so its caller's compare fails and it
        # resolves again; it is not cached.
        return probed, generation

    def _probe(self, table: str) -> Optional[PrimaryKey]:
        """Ask the schema catalog for ``table``'s primary key."""
        backend = next(iter(self._enabled_backends()), None)
        if backend is None:
            return None
        try:
            _, rows, _ = backend.execute(
                "SELECT table_name, table_schema, column_name, ordinal_position, "
                "data_type, is_primary_key FROM information_schema.columns",
                None,
                track=False,
            )
            pk_columns = []
            for table_name, table_schema, column_name, ordinal, data_type, is_pk in rows:
                qualified = (
                    f"{table_schema}.{table_name}" if table_schema else str(table_name)
                )
                if normalize_table_name(qualified) != table:
                    continue
                if bool(is_pk):
                    pk_columns.append(
                        (str(column_name).lower(), str(data_type), int(ordinal))
                    )
        except Exception:
            return None
        if len(pk_columns) != 1:
            # No PK or a composite PK: one lock key cannot stand for the
            # row identity the engine enforces.
            return None
        return pk_columns[0]
