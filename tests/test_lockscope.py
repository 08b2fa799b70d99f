"""The scope resolver (docs/scheduling.md §4): which statements get a
key scope, how values canonicalise, the generation rule that keeps a key
resolved before a DDL from being used — or cached — after it, and the
soundness oracle: a key scope covers every row the statement touched."""

import sys
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaos
from test_sql_property import (
    _SHAPES,
    _Rendering,
    _constants,
    _predicates,
    _renderings,
    _small_ints,
    _tables,
    _texts,
)
from repro.cluster.backend import Backend
from repro.cluster.classifier import ClassifiedStatement, classify
from repro.cluster.locks import EXCLUSIVE, LockManager, LockScope
from repro.cluster.lockscope import _NO_KEY, ScopeResolver, _canonical_key
from repro.cluster.recovery import RecoveryLog
from repro.cluster.scheduler import RequestScheduler
from repro.sqlengine import Engine
from repro.sqlengine.errors import SqlEngineError


class _CatalogConnection:
    """Backend connection whose only real answer is the
    ``information_schema.columns`` probe, served from ``primary_keys``
    (table → (pk column, type), mutable so a test can play a DDL). With
    ``gate`` set, a probe reads its answer, signals ``probing`` and
    blocks until the gate opens — a probe overtaken by a DDL."""

    def __init__(self, primary_keys):
        self.primary_keys = dict(primary_keys)
        self.probes = 0
        self.gate = None
        self.probing = threading.Event()
        self.closed = False
        self.driver_info = {"name": "catalog-stub"}

    def cursor(self):
        return _CatalogCursor(self)

    def close(self):
        self.closed = True


class _CatalogCursor:
    description = [("v", None, None, None, None, None, None)]
    rowcount = 1

    def __init__(self, connection):
        self._connection = connection
        self._rows = [(1,)]

    def execute(self, sql, params=None):
        connection = self._connection
        if "information_schema.columns" not in sql:
            return
        connection.probes += 1
        self._rows = []
        for table, (column, data_type) in connection.primary_keys.items():
            # Two columns per table, the keyed one second.
            self._rows.append((table, "", "pad", 1, "INTEGER", False, None))
            self._rows.append((table, "", column, 2, data_type, True, None))
        time.sleep(0)  # the answer is read; the round trip back takes a while
        if connection.gate is not None:
            connection.probing.set()
            assert connection.gate.wait(timeout=5.0)

    def fetchall(self):
        return self._rows

    def close(self):
        pass


def _resolver(primary_keys):
    connection = _CatalogConnection(primary_keys)
    backend = Backend("b1", lambda: connection)
    return ScopeResolver(lambda: [backend]), connection


_TABLE_T = LockScope(tables=frozenset({"t"}))


class TestResolve:
    def test_the_three_granularities(self):
        resolver, _ = _resolver({"t": ("id", "INTEGER")})
        scope, _ = resolver.resolve(classify("UPDATE t SET v = 1 WHERE id = 5"), None)
        assert scope == LockScope(keys=frozenset({("t", 5)})) and scope.kind == "key"
        scope, _ = resolver.resolve(classify("UPDATE t SET v = 1 WHERE v > 5"), None)
        assert scope == _TABLE_T and scope.kind == "table"
        scope, _ = resolver.resolve(classify("BEGIN"), None)
        assert scope is EXCLUSIVE and scope.kind == "exclusive"

    def test_catalog_is_probed_once_per_table(self):
        resolver, connection = _resolver({"t": ("id", "INTEGER")})
        for row in range(3):
            resolver.resolve(classify("DELETE FROM t WHERE id = $i"), {"i": row})
        assert connection.probes == 1
        assert resolver.stats() == {"primary_keys_cached": 1}

    def test_insert_without_column_list_uses_the_catalog_ordinal(self):
        resolver, _ = _resolver({"t": ("id", "INTEGER")})
        scope, _ = resolver.resolve(classify("INSERT INTO t VALUES ('x', 9)"), None)
        assert scope == LockScope(keys=frozenset({("t", 9)}))

    def test_seeded_key_is_never_probed_or_invalidated(self):
        connection = _CatalogConnection({})
        backend = Backend("b1", lambda: connection)
        resolver = ScopeResolver(lambda: [backend], {"T": ("ID", "INTEGER")})
        resolver.invalidate(None)
        scope, generation = resolver.resolve(classify("DELETE FROM t WHERE id = 1"), None)
        assert scope.kind == "key" and generation == 1
        assert connection.probes == 0

    def test_no_enabled_backend_or_no_catalog_means_the_table_scope(self):
        statement = classify("DELETE FROM t WHERE id = 1")
        assert ScopeResolver(lambda: []).resolve(statement, None)[0] == _TABLE_T
        resolver, _ = _resolver({})  # the catalog does not list t
        assert resolver.resolve(statement, None)[0] == _TABLE_T

    def test_lock_tables_is_computed_once_per_sql_text(self, monkeypatch):
        lock_tables = ClassifiedStatement.__dict__["lock_tables"]
        compute, computed = lock_tables.func, []

        def counting(statement):
            computed.append(statement)
            return compute(statement)

        monkeypatch.setattr(lock_tables, "func", counting)
        connection = _CatalogConnection({"lt_once": ("id", "INTEGER")})
        scheduler = RequestScheduler([Backend("b1", lambda: connection)], RecoveryLog())
        resolves = []
        resolve = scheduler._scopes.resolve
        monkeypatch.setattr(
            scheduler._scopes,
            "resolve",
            lambda statement, params: resolves.append(1) or resolve(statement, params),
        )
        for row in range(5):
            scheduler.execute("UPDATE lt_once SET v = 1 WHERE id = $i", {"i": row})
        scheduler.close()
        assert len(computed) == 1
        # One resolution per acquisition: the post-acquire check is a
        # generation compare, not a second resolve.
        assert len(resolves) == 5
        assert scheduler.stats()["locks"]["key_acquisitions"] == 5

    def test_a_write_on_a_referenced_or_referencing_table_locks_both_tables(self):
        """A parent's DELETE looks for referrers and a child's INSERT for
        its parent, on every replica: under disjoint key scopes a replica
        that ran the INSERT first would refuse the DELETE and one that ran
        the DELETE first would refuse the INSERT."""
        engine = Engine()
        engine.create_database("db")
        session = engine.open_session("db")
        for ddl in [
            "CREATE TABLE users (id INTEGER PRIMARY KEY)",
            "CREATE TABLE orders (id INTEGER PRIMARY KEY, uid INTEGER REFERENCES users(id))",
            "CREATE TABLE tree (id INTEGER PRIMARY KEY, up INTEGER REFERENCES tree(id))",
            "CREATE TABLE t (id INTEGER PRIMARY KEY)",
        ]:
            session.execute(ddl)
        catalog = SimpleNamespace(
            execute=lambda sql, params, track: ([], session.execute(sql, params=params).rows, 0)
        )
        resolver = ScopeResolver(lambda: [catalog])
        both = LockScope(tables=frozenset({"users", "orders"}))
        for sql in [
            "DELETE FROM users WHERE id = 1",
            "UPDATE users SET id = 2 WHERE id = 1",
            "INSERT INTO orders VALUES (7, 1)",
            "UPDATE orders SET uid = 1 WHERE id = 7",
        ]:
            assert resolver.resolve(classify(sql), None)[0] == both, sql
        tree = resolver.resolve(classify("DELETE FROM tree WHERE id = 1"), None)[0]
        assert tree == LockScope(tables=frozenset({"tree"}))
        # A read keeps its key; a table no REFERENCES touches too.
        assert resolver.resolve(classify("SELECT * FROM users WHERE id = 1"), None)[0].kind == "key"
        assert resolver.resolve(classify("DELETE FROM t WHERE id = 1"), None)[0].kind == "key"
        # A DDL that adds or drops a link is seen through invalidation.
        session.execute("CREATE TABLE audit (id INTEGER PRIMARY KEY, tid INTEGER REFERENCES t(id))")
        resolver.invalidate({"audit", "t"})
        assert resolver.resolve(classify("DELETE FROM t WHERE id = 1"), None)[0].kind == "table"
        session.execute("DROP TABLE audit")
        resolver.invalidate({"audit"})
        assert resolver.resolve(classify("DELETE FROM t WHERE id = 1"), None)[0].kind == "key"


@pytest.mark.parametrize(
    "value, data_type, expected",
    [
        (7, "INTEGER", 7),
        (7.0, "INTEGER", 7),
        (7.5, "INTEGER", _NO_KEY),
        ("7", "INTEGER", 7),
        (" 7 ", "INTEGER", 7),
        ("07", "INTEGER", _NO_KEY),
        ("seven", "INTEGER", _NO_KEY),
        (7, "bigint", 7),
        (7, "VARCHAR", "7"),
        (7.0, "VARCHAR", "7.0"),
        ("7", "VARCHAR", "7"),
        ("07", "VARCHAR", "07"),
        (7, "DOUBLE", _NO_KEY),
        (7.0, "DOUBLE", _NO_KEY),
        ("7", "DOUBLE", _NO_KEY),
        (True, "INTEGER", _NO_KEY),
        (True, "VARCHAR", _NO_KEY),
        (None, "INTEGER", _NO_KEY),
        (None, "VARCHAR", _NO_KEY),
        (b"7", "INTEGER", _NO_KEY),
        (7, "", _NO_KEY),
    ],
)
def test_canonical_key(value, data_type, expected):
    # Two spellings the engine compares equal must collide on one key;
    # anything it would coerce differently must not claim a key at all.
    key = _canonical_key(value, data_type)
    assert key is expected if expected is _NO_KEY else key == expected
    assert type(key) is type(expected)


class TestGenerationRule:
    def test_invalidate_bumps_the_generation_and_forgets_the_tables(self):
        resolver, connection = _resolver({"t": ("id", "INTEGER"), "u": ("id", "INTEGER")})
        for table in ("t", "u"):
            resolver.resolve(classify(f"DELETE FROM {table} WHERE id = 1"), None)
        resolver.invalidate({"t"})
        assert resolver.generation == 1
        assert resolver.stats() == {"primary_keys_cached": 1}
        resolver.invalidate(None)
        assert resolver.generation == 2
        assert resolver.stats() == {"primary_keys_cached": 0}
        assert connection.probes == 2

    def test_probe_racing_an_invalidation_is_not_cached(self):
        resolver, connection = _resolver({"t": ("id", "INTEGER")})
        statement = classify("UPDATE t SET v = 1 WHERE id = 5")
        connection.gate = threading.Event()
        raced = []
        prober = threading.Thread(
            target=lambda: raced.append(resolver.resolve(statement, None))
        )
        prober.start()
        assert connection.probing.wait(timeout=5.0)  # read PK `id`, now blocked
        # The DDL: re-key t on `name`, invalidate inside its scope.
        connection.primary_keys["t"] = ("name", "VARCHAR")
        resolver.invalidate({"t"})
        connection.gate.set()
        prober.join(timeout=5.0)
        assert not prober.is_alive()
        # The overtaken probe's answer carries the generation it started
        # at, so whoever acts on it fails the post-acquire compare...
        assert raced == [(LockScope(keys=frozenset({("t", 5)})), 0)]
        assert resolver.generation == 1
        # ...and it was not stored: `id` is no longer the key, so
        # `id = 5` pins no row and must take the table.
        assert resolver.resolve(statement, None) == (_TABLE_T, 1)
        scope, _ = resolver.resolve(classify("DELETE FROM t WHERE name = 'n'"), None)
        assert scope == LockScope(keys=frozenset({("t", "n")}))

    def test_ddl_between_resolve_and_acquire_re_resolves(self):
        connection = _CatalogConnection({"t": ("id", "INTEGER")})
        scheduler = RequestScheduler([Backend("b1", lambda: connection)], RecoveryLog())
        locks = scheduler.lock_manager
        # Stand in for a DDL on t: it holds the table while it runs.
        ddl_scope = locks.acquire_scope(_TABLE_T)
        writer = threading.Thread(
            target=scheduler.execute, args=("UPDATE t SET v = 1 WHERE id = 5",)
        )
        writer.start()
        # The writer resolved key:t[5] and queued behind the table scope.
        assert chaos.wait_until(lambda: locks.stats()["scope_waiters"] == 1)
        connection.primary_keys["t"] = ("name", "VARCHAR")
        scheduler._scopes.invalidate({"t"})
        locks.release_scope(ddl_scope)
        writer.join(timeout=5.0)
        assert not writer.is_alive()
        stats = locks.stats()
        # It acquired its stale key, saw the generation had moved, let
        # go and ended under the table scope the new schema calls for.
        assert stats["key_acquisitions"] == 1
        assert stats["table_acquisitions"] == 2  # the stand-in DDL's + the writer's
        assert stats["keys_held"] == stats["tables_held"] == 0
        assert scheduler.stats()["recovery_log_entries"] == 1
        scheduler.close()

    def test_key_writers_racing_rekeying_ddl_never_hold_a_stale_key(self):
        # More writers than cores and a short switch interval: DDLs flip
        # t's key between `id` and `name` (under the table scope, as the
        # write round does) while writers run the scheduler's
        # resolve → acquire → compare loop. A writer that keeps a key
        # scope past the compare must have the key the catalog holds —
        # which cannot change while it holds a scope on t.
        resolver, connection = _resolver({"t": ("id", "INTEGER")})
        locks = LockManager()
        statement = classify("UPDATE t SET v = 1 WHERE id = 5")
        stop = threading.Event()
        stale, held = [], []

        def writer():
            while not stop.is_set():
                scope, generation = resolver.resolve(statement, None)
                with locks.scope(scope):
                    if scope.keys and resolver.generation != generation:
                        continue
                    if scope.keys and connection.primary_keys["t"][0] != "id":
                        stale.append(scope)
                    held.append(scope.kind)

        def ddl():
            keys = [("name", "VARCHAR"), ("id", "INTEGER")]
            flips = 0
            while not stop.is_set():
                with locks.scope(_TABLE_T):
                    connection.primary_keys["t"] = keys[flips % 2]
                    resolver.invalidate({"t"})
                flips += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer) for _ in range(8)]
            threads.append(threading.Thread(target=ddl))
            for thread in threads:
                thread.start()
            time.sleep(0.5)
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert stale == []
        assert {"key", "table"} <= set(held)  # both sides of the flip were exercised
        # Quiesced: the cache holds what the catalog holds.
        keyed_on_id = connection.primary_keys["t"][0] == "id"
        assert (resolver.resolve(statement, None)[0].kind == "key") == keyed_on_id


# -- soundness oracle: a key scope covers every row the statement touched ----------------------
#
# Two writers under disjoint key scopes are applied in different orders on
# different replicas, so a key scope is a claim: this statement reads,
# inserts, changes and deletes no row whose key is outside ``scope.keys``
# (a transaction's read under a key scope runs beside writes to other rows).
# Random SELECT / INSERT / UPDATE / DELETE texts run on a real engine; the
# rows a write touched are observed by diffing the table, those a SELECT
# read are the rows it returns, not derived from the text. (The engine
# finds its rows through the same ``key_terms`` the resolver reads, so a wrong
# ``key_terms`` would fool both alike: that one is held to a full scan by
# tests/test_sql_property.py. This oracle holds the resolver to the engine.)

_SCENARIO_KEYS = {"int_key": "INTEGER", "text_key": "VARCHAR"}  # the single-column PKs
_rendered_constants = st.tuples(_constants, _renderings)
_INSERT_COLUMNS = [
    None, None, ("id", "name", "score"), ("score", "id", "name"), ("name", "id"),
    ("name", "score"), ("id", "score", "id"), ('"ID"', "name"),
]
_INSERT_VALUES = {"name": st.one_of(_texts, st.none()), "score": st.one_of(_small_ints, st.none())}
_ASSIGNMENTS = [
    [("score", _small_ints)], [("score", _small_ints)], [("name", _texts), ("score", _small_ints)],
    [("id", _constants)], [("score", _small_ints), ("id", _constants)],
]
#: Texts a dialect somewhere accepts and this parser does not: whatever
#: they mean, nothing here has read them.
_UNREAD_SUFFIXES = [
    " RETURNING id", " ORDER BY id LIMIT 1", " ON CONFLICT (id) DO UPDATE SET id = 9",
    " AND score = (SELECT max(score) FROM t)", " AND CASE WHEN id = 1 THEN 0 ELSE 1 END = 1",
]


_pins = st.one_of(
    st.tuples(st.just("eq"), st.just("id"), _rendered_constants, st.booleans()),
    st.tuples(
        st.just("in"), st.just("id"), st.lists(_rendered_constants, min_size=1, max_size=3), st.just(False)
    ),
)


@st.composite
def _statements(draw, shape):
    """One statement as a tuple ``_render_statement`` turns into SQL."""
    kind = draw(st.sampled_from(["insert", "insert", "update", "update", "delete", "move_key", "select"]))
    if kind == "insert":
        columns = draw(st.sampled_from(_INSERT_COLUMNS))
        # Any constant for the key; the other columns get their own type,
        # so most rows are ones the engine accepts.
        row = st.tuples(
            *[
                st.tuples(_INSERT_VALUES.get(column, _constants), _renderings)
                for column in columns or ("id", "name", "score")
            ]
        )
        rows = draw(st.lists(row, min_size=1, max_size=draw(st.sampled_from([1, 1, 1, 2]))))
        return kind, columns, rows
    where = draw(st.one_of(st.none(), _predicates(shape)))
    if draw(st.booleans()):
        # The shape a key scope is proven from — the key pinned by one
        # AND-conjunct — beside whatever else the predicate says.
        pin = draw(_pins)
        where = pin if where is None else draw(st.sampled_from([("and", pin, where), ("and", where, pin)]))
    if kind == "update":
        assignments = [
            (column, (draw(values), draw(_renderings)))
            for column, values in draw(st.sampled_from(_ASSIGNMENTS))
        ]
        return kind, assignments, where
    return kind, where


def _render_statement(drawn, rendering):
    kind = drawn[0]
    if kind == "insert":
        _, columns, rows = drawn
        names = f" ({', '.join(columns)})" if columns else ""
        values = ", ".join(
            "(" + ", ".join(rendering.constant(constant) for constant in row) + ")" for row in rows
        )
        return f"INSERT INTO t{names} VALUES {values}"
    if kind == "update":
        assignments = ", ".join(
            f"{column} = {rendering.constant(constant)}" for column, constant in drawn[1]
        )
        head = f"UPDATE t SET {assignments}"
    elif kind == "move_key":
        head = "UPDATE t SET id = id + 100"
    elif kind == "select":
        head = "SELECT * FROM t"
    else:
        head = "DELETE FROM t"
    where = drawn[-1]
    return head if where is None else f"{head} WHERE {rendering.predicate(where)}"


class _SpelledRendering(_Rendering):
    """Renders constants inside redundant parentheses: ``id = (5)`` and
    ``id = 5`` are one AST, so they must be one scope."""

    def constant(self, constant):
        return f"({super().constant(constant)})"


@st.composite
def _scenarios(draw):
    keyed = _tables().filter(lambda table: table[0] in _SCENARIO_KEYS)
    shape, rows = draw(st.one_of(_tables(), keyed, keyed))
    # Each statement with how it is spelled: constants in parentheses, a trailing ';'.
    spelled = st.tuples(_statements(shape), st.booleans(), st.booleans())
    return shape, rows, draw(st.lists(spelled, min_size=1, max_size=4))


def _engine_table(shape):
    """A real engine holding an empty ``t`` of ``shape``: its session, the
    table, and a resolver whose catalog probe that engine answers."""
    engine = Engine()
    engine.create_database("db")
    session = engine.open_session("db")
    session.execute(_SHAPES[shape])
    catalog = SimpleNamespace(
        execute=lambda sql, params, track: ([], session.execute(sql, params=params).rows, 0)
    )
    return session, engine.database("db").lookup_table("t"), ScopeResolver(lambda: [catalog])


@settings(max_examples=600, deadline=None)
@given(_scenarios())
def test_key_scope_covers_every_row_the_statement_touched(scenario):
    shape, rows, statements = scenario
    session, table, resolver = _engine_table(shape)
    for row in rows:
        session.execute("INSERT INTO t VALUES (?, ?, ?)", positional=list(row))

    for drawn, parenthesised, terminated in statements:
        rendering = _SpelledRendering() if parenthesised else _Rendering()
        sql = _render_statement(drawn, rendering)
        statement = sql + ";" if terminated else sql
        scope, _ = resolver.resolve(classify(statement), rendering.params)
        if shape not in _SCENARIO_KEYS:
            # A composite key or none: one lock key cannot stand for a row.
            assert scope == _TABLE_T, sql

        before = {slot: dict(row) for slot, row in table.enumerate_rows()}
        read = []
        try:
            read = session.execute(statement, params=rendering.params, positional=rendering.positional).rows
        except (SqlEngineError, TypeError):
            # Refused ('a' into an INTEGER, a duplicate key, '5' + 100):
            # whatever it did before failing is still in the diff.
            pass
        after = {slot: dict(row) for slot, row in table.enumerate_rows()}
        touched = {
            image["id"]
            for slot in before.keys() | after.keys()
            if before.get(slot) != after.get(slot)
            for image in (before.get(slot), after.get(slot))
            if image is not None
        }
        touched |= {row[0] for row in read or ()}  # a SELECT * lists the id first
        if scope.keys:
            data_type = _SCENARIO_KEYS[shape]
            uncovered = {
                key for key in touched if ("t", _canonical_key(key, data_type)) not in scope.keys
            }
            assert not uncovered, (sql, rendering.params, scope)

        for suffix in _UNREAD_SUFFIXES:
            if drawn[0] == "select" and suffix.startswith(" ORDER BY"):
                continue  # a SELECT's grammar has ORDER BY and LIMIT: that text is read
            unread = classify(sql + suffix)
            assert unread.dml is None, sql + suffix
            assert not resolver.resolve(unread, rendering.params)[0].keys, sql + suffix


def test_the_oracle_sees_key_scopes_and_touched_rows():
    """The property above is not vacuous: through the same engine-backed
    catalog, these texts get exactly these key scopes and do touch rows."""
    session, table, resolver = _engine_table("int_key")
    for sql, params, keys, live in [
        ("INSERT INTO t VALUES ($i, 'a', 1)", {"i": "5"}, {5}, {5}),
        ("INSERT INTO t (name, id) VALUES ('b', 6.0)", None, {6}, {5, 6}),
        ("UPDATE t SET score = 2 WHERE id IN (5, '6', 7) AND name LIKE '%'", None, {5, 6, 7}, {5, 6}),
        ("DELETE FROM t WHERE 5 = id", None, {5}, {6}),
        ("SELECT * FROM t WHERE id IN (6, 8)", None, {6, 8}, {6}),
    ]:
        scope, _ = resolver.resolve(classify(sql), params)
        assert scope == LockScope(keys=frozenset(("t", key) for key in keys)), sql
        assert session.execute(sql, params=params).rowcount >= 1, sql
        assert {row["id"] for _slot, row in table.enumerate_rows()} == live, sql


@pytest.mark.parametrize(
    "sql",
    [
        # Each of these got the scope key t[5] (t[1] for the INSERTs) from
        # the token matcher this resolver used to read, while touching —
        # or reading — rows outside it.
        "UPDATE t SET v = 1 WHERE CASE WHEN a = 1 AND id = 5 AND b = 2 THEN 0 ELSE 1 END = 1",
        "DELETE FROM t WHERE v BETWEEN 1 AND id = 5",
        "DELETE FROM t USING u WHERE t.k = u.k AND u.id = 5",
        "UPDATE t SET v = 1 WHERE id = 5 AND v = (SELECT max(v) FROM t)",
        "INSERT INTO t (id, v) VALUES (1, (SELECT count(*) FROM t))",
        "INSERT INTO t (id, v) VALUES (1, 2) ON CONFLICT (id) DO UPDATE SET id = 9",
    ],
    ids=["case_when", "between_and", "using", "scalar_subquery", "insert_subquery", "on_conflict"],
)
def test_unread_text_never_gets_a_key_scope(sql):
    resolver = ScopeResolver(lambda: [], {"t": ("id", "INTEGER")})
    scope, _ = resolver.resolve(classify(sql), {})
    assert scope.kind == "table" and "t" in scope.tables
