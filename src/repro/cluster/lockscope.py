"""Lock-scope resolution: the one place that decides what a statement locks.

:class:`ScopeResolver` turns a classified statement and its parameters
into the :class:`~repro.cluster.locks.LockScope` it must hold — a
write's broadcast, or a transaction's read: the rows it provably
touches (a single-row INSERT/UPDATE/DELETE/SELECT or a ``pk IN (...)``
UPDATE/DELETE/SELECT whose primary-key values fully resolve), else the
tables it touches, else ``EXCLUSIVE``. A write on a table that a
``REFERENCES`` links to another (either way) gets the table scope over
both, since the engine checks the rows of each when it writes the
other. A table's primary key and links
come from the ``primary_keys`` seed or, lazily, from an enabled
backend's ``information_schema.columns`` catalog; any failure to resolve
one yields the table scope, which is always safe.

**Keys come from the AST.** Which rows a text touches is read off
``statement.dml`` — the :mod:`repro.sqlengine.parser` AST, whose
``key_terms`` the engine's executor probes its index with — and off
nothing else: two writers under disjoint key scopes are applied in
different orders on different replicas, so a key scope has to be a
proof, and a text the parser did not read whole (``dml is None``) proves
nothing. :func:`_canonical_key` is deliberately not the executor's probe
rule: a lock key must collide for every spelling that *can* match the
row (``7``, ``7.0``, ``'7'``), an index probe only needs a superset and
scans when in doubt.

**The generation rule.** A key scope is resolved *before* its lock is
taken, so :meth:`ScopeResolver.resolve` returns the resolver's
*generation* with the scope, and :meth:`ScopeResolver.invalidate` —
called by a DDL while it still holds its own lock scope, which conflicts
with every key on the tables it changes — bumps it. A key writer (or
a transaction's key reader) compares the generation after acquiring:
unchanged means no DDL completed since it resolved (one still running
holds a conflicting scope, so the writer could not have acquired);
changed means release and resolve again. A catalog probe is cached only if the generation did
not move while it ran, so an answer read before a DDL is never stored
after it.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.cluster.backend import Backend
from repro.cluster.classifier import ClassifiedStatement, normalize_table_name
from repro.cluster.locks import EXCLUSIVE, LockScope
from repro.sqlengine.expressions import Expression, Literal, Parameter
from repro.sqlengine.statements import Delete, Insert, Select, Update

#: Sentinel for "no usable canonical key" (fall back to a table lock).
_NO_KEY = object()

#: ``(column, declared data_type, 1-based ordinal or None)`` of a table's
#: single-column primary key.
PrimaryKey = Tuple[str, str, Optional[int]]

#: What the catalog says of a table: its primary key (None when it has no
#: single-column one) and the tables a REFERENCES links it to, either way
#: (itself, if it references itself).
TableFacts = Tuple[Optional[PrimaryKey], FrozenSet[str]]
_UNKNOWN: TableFacts = (None, frozenset())


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


def _lock_key(constant: Expression, params: Optional[Dict[str, Any]], data_type: str) -> Any:
    """Resolve one AST constant to a canonical lock key, or ``_NO_KEY``
    when it cannot be proven to address one row: a positional ``?``, a
    parameter the request did not bind, any expression that is not a
    literal or a named parameter."""
    if isinstance(constant, Literal):
        value = constant.value
    elif (
        isinstance(constant, Parameter)
        and constant.name != "?"
        and params
        and constant.name in params
    ):
        value = params[constant.name]
    else:
        return _NO_KEY
    return _canonical_key(value, data_type)


def _key_constants(
    dml: Union[Select, Insert, Update, Delete], pk_column: str, pk_ordinal: Optional[int]
) -> Sequence[Expression]:
    """The expressions bounding the primary keys ``dml`` touches — every
    row it reads, inserts, changes or deletes has its key among their
    values — or nothing when the AST proves no such bound.

    For SELECT/UPDATE/DELETE that is what ``key_terms`` says the WHERE
    pins the key to (an AND-conjunct only shrinks the matched rows, so
    the other conjuncts do not matter), unless the UPDATE assigns the
    key: the row then moves to a second key no listed constant covers. For INSERT it
    is the key's element of the one VALUES row, found by name or, without
    a column list, by catalog ordinal; several rows are several keys."""
    if isinstance(dml, Insert):
        if len(dml.rows) != 1:
            return ()
        if dml.columns:
            columns = [column.lower() for column in dml.columns]
            # Absent, the key takes a DEFAULT nothing here can see; named
            # twice, which value lands is the backend's business.
            if columns.count(pk_column) != 1:
                return ()
            position = columns.index(pk_column)
        elif pk_ordinal is not None:
            position = pk_ordinal - 1
        else:
            return ()
        return dml.rows[0][position : position + 1]
    if isinstance(dml, Update):
        for column, _ in dml.assignments:
            if column.lower() == pk_column:
                return ()
    return dml.key_terms.get(pk_column, ())


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
        self._seed: Dict[str, TableFacts] = {
            normalize_table_name(table): ((column.lower(), data_type, None), frozenset())
            for table, (column, data_type) in (primary_keys or {}).items()
        }
        self._lock = threading.Lock()
        #: table → what the catalog said of it (:data:`_UNKNOWN` for an
        #: unknown table).
        self._cache: Dict[str, TableFacts] = {}
        #: Bumped by every :meth:`invalidate`; see the generation rule.
        self.generation = 0

    def resolve(
        self, statement: ClassifiedStatement, params: Optional[Dict[str, Any]]
    ) -> Tuple[LockScope, int]:
        """``(scope, generation)``: what ``statement`` must lock, and
        the generation its key resolution (if any) is valid for."""
        tables = statement.lock_tables
        if tables is None:
            return EXCLUSIVE, self.generation
        dml = statement.dml
        writes = statement.write_tables
        generation = self.generation
        primary_key = None
        linked: FrozenSet[str] = frozenset()
        for table in writes or (tables if dml is not None and len(tables) == 1 else ()):
            (primary_key, links), generation = self._facts(table)
            linked |= links
        if linked and writes:
            # A write checks the rows REFERENCES links its rows to — a
            # child's parent, a parent's referrers — on every replica, so
            # it must not run alongside any writer of those tables.
            return LockScope(tables=tables | linked), generation
        if dml is None or len(tables) != 1 or primary_key is None:
            # No reading of the text to prove a key from, reads /
            # REFERENCES alongside a write (the key only covers the
            # statement's own table's rows, not the other tables), or
            # no single-column key.
            return LockScope(tables=tables), generation
        table = next(iter(tables))
        pk_column, data_type, ordinal = primary_key
        keys = set()
        for constant in _key_constants(dml, pk_column, ordinal):
            key = _lock_key(constant, params, data_type)
            if key is _NO_KEY:
                # One unresolvable element poisons the whole list: the
                # statement may touch a row no listed key covers.
                return LockScope(tables=tables), generation
            keys.add((table, key))
        if not keys:
            return LockScope(tables=tables), generation
        return LockScope(keys=frozenset(keys)), generation

    def invalidate(self, tables: Optional[Iterable[str]]) -> None:
        """Forget what is cached of ``tables`` and of the tables
        REFERENCES links to them (everything when the DDL's table set is
        unknown) and bump the generation. Must be called while the DDL
        still holds its lock scope — that is what lets a key writer's
        post-acquire generation compare stand for "no DDL touched my
        table since I resolved"."""
        with self._lock:
            if tables:
                gone = frozenset(tables)
                for table, (_, links) in list(self._cache.items()):
                    if table in gone or links & gone:
                        del self._cache[table]
            else:
                self._cache.clear()
            self.generation += 1

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {"primary_keys_cached": len(self._cache)}

    def _facts(self, table: str) -> Tuple[TableFacts, int]:
        """What the catalog says of ``table``, and the generation the
        answer was read at."""
        seeded = self._seed.get(table)
        if seeded is not None:
            return seeded, self.generation
        with self._lock:
            generation = self.generation
            if table in self._cache:
                return self._cache[table], generation
        probed = self._probe(table)
        if probed is None:  # no enabled backend to ask: ask again next time
            return _UNKNOWN, generation
        with self._lock:
            if self.generation == generation:
                self._cache[table] = probed
        # A probe an invalidation overtook is returned with the
        # generation it started at, so its caller's compare fails and it
        # resolves again; it is not cached.
        return probed, generation

    def _probe(self, table: str) -> Optional[TableFacts]:
        """Ask the catalog for ``table``'s primary key and links (None: no one to ask)."""
        backend = next(iter(self._enabled_backends()), None)
        if backend is None:
            return None
        try:
            _, rows, _ = backend.execute(
                "SELECT table_name, table_schema, column_name, ordinal_position, "
                "data_type, is_primary_key, references_table FROM information_schema.columns",
                None,
                track=False,
            )
            pk_columns = []
            links = set()
            for table_name, table_schema, column_name, ordinal, data_type, is_pk, target in rows:
                qualified = (
                    f"{table_schema}.{table_name}" if table_schema else str(table_name)
                )
                owner = normalize_table_name(qualified)
                target = normalize_table_name(target) if target else None
                if target == table:
                    links.add(owner)
                if owner != table:
                    continue
                if target:
                    links.add(target)
                if bool(is_pk):
                    pk_columns.append(
                        (str(column_name).lower(), str(data_type), int(ordinal))
                    )
        except Exception:
            return _UNKNOWN
        # No PK or a composite PK: one lock key cannot stand for the row
        # identity the engine enforces.
        return (pk_columns[0] if len(pk_columns) == 1 else None), frozenset(links)
