"""Unit tests for the scheduling subsystem: classifier, load-balancing
policies, query cache and write broadcaster."""

from types import SimpleNamespace

import pytest

from repro.cluster.backend import Backend, BackendState
from repro.cluster.broadcaster import WriteBroadcaster
from repro.cluster.classifier import (
    StatementKind,
    classify,
    is_transaction_control,
    is_write_statement,
)
from repro.cluster.controller import Controller, ControllerConfig
from repro.cluster.loadbalancer import (
    LeastPendingPolicy,
    RoundRobinPolicy,
    available_policies,
    create_policy,
)
from repro.cluster.locks import LockScope
from repro.cluster.lockscope import ScopeResolver
from repro.cluster.querycache import QueryCache
from repro.cluster.recovery import RecoveryLog
from repro.cluster.scheduler import RequestScheduler, SchedulerError
from repro.errors import DriverError
from repro.netsim.inmem import InMemoryNetwork


class _FakeCursor:
    def __init__(self, connection):
        self._connection = connection

    def execute(self, sql, params=None):
        if self._connection.fail_with is not None:
            raise self._connection.fail_with
        self._connection.executed.append((sql, dict(params or {})))
        # The engine's flag, as a real replica reports it on each reply.
        command = sql.split(None, 1)[0].upper()
        if command in ("BEGIN", "START"):
            self._connection.in_transaction = True
        elif command in ("COMMIT", "ROLLBACK"):
            self._connection.in_transaction = False

    @property
    def description(self):
        return [("value", None, None, None, None, None, None)]

    def fetchall(self):
        return [(self._connection.read_value,)]

    rowcount = 1

    def close(self):
        pass


class _FakeConnection:
    """In-memory backend connection recording executed statements. Like a
    real one it says whether a transaction is open on it: BEGIN opens one,
    COMMIT/ROLLBACK close it unless ``fail_with`` raises, and closing
    the connection rolls it back. The connections one replica opens
    (:meth:`another`) share its ``executed`` record and ``fail_with``."""

    def __init__(self, read_value=1, replica=None):
        self._replica = replica if replica is not None else {"executed": [], "fail_with": None}
        self.executed = self._replica["executed"]
        self.read_value = read_value
        self.closed = False
        self.in_transaction = False
        self.driver_info = {"name": "fake"}

    @property
    def fail_with(self):
        return self._replica["fail_with"]

    @fail_with.setter
    def fail_with(self, error):
        self._replica["fail_with"] = error

    def another(self):
        return _FakeConnection(self.read_value, self._replica)

    def cursor(self):
        return _FakeCursor(self)

    def close(self):
        self.closed = True
        self.in_transaction = False


def _backend(name, read_value=1):
    """A backend whose first connection is ``backend.test_connection``."""
    connection = _FakeConnection(read_value=read_value)
    opened = []
    backend = Backend(name, lambda: connection.another() if opened else opened.append(1) or connection)
    backend.test_connection = connection
    return backend


class TestClassifier:
    def test_with_select_is_read_with_tables(self):
        statement = classify("WITH recent AS (SELECT id FROM orders) SELECT * FROM recent")
        assert statement.kind is StatementKind.READ
        assert statement.read_tables == frozenset({"orders"})
        assert not is_write_statement("WITH recent AS (SELECT id FROM orders) SELECT * FROM recent")

    def test_parenthesized_select_is_read(self):
        assert not is_write_statement("(SELECT 1)")
        assert classify("(SELECT a FROM t)").read_tables == frozenset({"t"})

    def test_explain_is_read(self):
        statement = classify("EXPLAIN SELECT * FROM big_table")
        assert statement.is_read
        assert statement.read_tables == frozenset({"big_table"})

    def test_explain_over_a_write_is_still_read_only(self):
        # EXPLAIN only describes the plan: it must never be broadcast,
        # logged for resync, or cached — whatever statement it wraps.
        for sql in (
            "EXPLAIN INSERT INTO t (id) VALUES (1)",
            "EXPLAIN UPDATE t SET a = 1",
            "EXPLAIN DELETE FROM t",
        ):
            statement = classify(sql)
            assert statement.is_read, sql
            assert statement.write_tables == frozenset(), sql
            assert statement.cacheable is False, sql
            assert not is_write_statement(sql)

    def test_write_statements_and_tables(self):
        insert = classify("INSERT INTO orders (id) VALUES ($id)")
        assert insert.is_write and insert.write_tables == frozenset({"orders"})
        update = classify("UPDATE users SET name = 'x' WHERE id = 1")
        assert update.write_tables == frozenset({"users"})
        delete = classify("DELETE FROM audit WHERE id IN (SELECT id FROM expired)")
        assert delete.write_tables == frozenset({"audit"})
        assert delete.read_tables == frozenset({"expired"})
        create = classify("CREATE TABLE IF NOT EXISTS evt (id INTEGER PRIMARY KEY)")
        assert create.write_tables == frozenset({"evt"})
        drop = classify("DROP TABLE IF EXISTS evt")
        assert drop.write_tables == frozenset({"evt"})

    def test_insert_select_reads_source_writes_target(self):
        statement = classify("INSERT INTO archive (id) SELECT id FROM live")
        assert statement.write_tables == frozenset({"archive"})
        assert statement.read_tables == frozenset({"live"})

    def test_transaction_control(self):
        for sql in ("BEGIN", "COMMIT", "ROLLBACK", "START TRANSACTION"):
            statement = classify(sql)
            assert statement.is_transaction_control
            assert is_transaction_control(sql)
            # Transaction control still broadcasts (not a read).
            assert is_write_statement(sql)

    def test_schema_qualified_tables(self):
        statement = classify("SELECT * FROM information_schema.drivers")
        assert statement.read_tables == frozenset({"information_schema.drivers"})

    def test_quoted_identifiers_are_canonicalised(self):
        # "Users", users and public.users must produce one key: placement
        # routing and cache invalidation key off these names.
        assert classify('SELECT * FROM "Users"').read_tables == frozenset({"users"})
        assert classify('UPDATE "Users" SET a = 1').write_tables == frozenset({"users"})
        assert classify('DELETE FROM "Order Lines"').write_tables == frozenset({"order lines"})

    def test_default_schema_qualifier_is_stripped(self):
        assert classify("SELECT * FROM public.users").read_tables == frozenset({"users"})
        assert classify('INSERT INTO Public."Users" (id) VALUES (1)').write_tables == frozenset(
            {"users"}
        )
        # Non-default schemas stay qualified — distinct namespaces.
        assert classify("SELECT * FROM sales.orders").read_tables == frozenset(
            {"sales.orders"}
        )

    def test_quoted_cte_name_not_reported_as_table(self):
        statement = classify('WITH "Recent" AS (SELECT id FROM orders) SELECT * FROM "Recent"')
        assert statement.read_tables == frozenset({"orders"})

    def test_quoted_identifier_matching_a_keyword_is_not_a_keyword(self):
        # "from"/"join" here are column names; treating them as the FROM/
        # JOIN keywords would extract phantom tables (and miss the real
        # one), so cache invalidation and placement routing would key off
        # the wrong names.
        statement = classify('SELECT "from" FROM t')
        assert statement.read_tables == frozenset({"t"})
        statement = classify('SELECT a, "join" FROM t')
        assert statement.read_tables == frozenset({"t"})
        # As a table name after a real FROM it is still just a name.
        statement = classify('SELECT * FROM "from"')
        assert statement.read_tables == frozenset({"from"})
        # A statement *led* by a quoted identifier has no command keyword.
        assert classify('"select" something').command == ""

    def test_nondeterministic_select_not_cacheable(self):
        assert classify("SELECT id FROM t WHERE ts < now()").cacheable is False
        assert classify("SELECT id FROM t").cacheable is True

    def test_bare_current_timestamp_not_cacheable(self):
        # The sqlengine evaluates these from the wall clock, parenthesized
        # or not; a cached result would freeze time forever.
        assert classify("SELECT CURRENT_TIMESTAMP").cacheable is False
        assert classify("SELECT CURRENT_DATE").cacheable is False
        assert classify("SELECT current_date() FROM t").cacheable is False

    def test_unparseable_statement_falls_back_to_write(self):
        statement = classify("VACUUM %% not-sql @!")
        assert not statement.is_read
        assert statement.write_tables == frozenset()

    def test_empty_statement_is_not_a_write(self):
        assert not is_write_statement("")
        assert not is_write_statement("   ")

    def test_cte_name_not_reported_as_table(self):
        statement = classify(
            "WITH a AS (SELECT x FROM t1), b AS (SELECT y FROM t2) SELECT * FROM a"
        )
        assert statement.read_tables == frozenset({"t1", "t2"})

    # -- what a write's text proves about the rows it touches -------------
    #
    # The classifier reads names; the parser reads the statement
    # (``dml``); ScopeResolver.resolve turns that reading into a scope.
    # Each case below is the scope one text ends up with.

    def test_update_literal_pk_equality_extracted(self):
        assert _scope("UPDATE users SET name = 'x' WHERE id = 7") == _keys("users", 7)

    def test_update_assigning_the_filtered_column_still_reports_both(self):
        # The row moves from key 7 to key 9: one key cannot cover both.
        assert _scope("UPDATE users SET id = 9 WHERE id = 7") == _table("users")
        assert _scope('UPDATE users SET name = 1, "ID" = 9 WHERE id = 7') == _table("users")

    def test_delete_named_param_equality_extracted(self):
        sql = "DELETE FROM t WHERE pk = $p AND ts < 5"
        assert _scope(sql, {"p": 4}, pk="pk") == _keys("t", 4)
        assert _scope(sql, {"q": 4}, pk="pk") == _table("t")  # $p is not bound

    def test_positional_param_is_never_resolvable(self):
        # ? placeholders carry no name — the value cannot be looked up in
        # the params dict, whatever it holds.
        assert _scope("UPDATE t SET v = 1 WHERE id = ?", {"?": 1}) == _table("t")

    def test_top_level_or_abandons_extraction(self):
        # id=1 OR b=2 bounds nothing: no conjunct narrows the row set.
        assert _scope("DELETE FROM t WHERE id = 1 OR b = 2") == _table("t")

    def test_parenthesized_or_inside_a_conjunct_is_fine(self):
        # id = -5 AND (...) still bounds the rows to id = -5; a negative
        # literal is a value, and redundant parens change nothing.
        assert _scope("DELETE FROM t WHERE id = -5 AND (x = 1 OR y = 2)") == _keys("t", -5)
        assert _scope("DELETE FROM t WHERE ((id = 4)) AND ((x = 1))") == _keys("t", 4)

    def test_range_predicate_extracts_nothing(self):
        assert _scope("UPDATE t SET v = 1 WHERE id > 3") == _table("t")

    def test_qualified_and_quoted_columns_are_canonicalised(self):
        assert _scope('UPDATE t SET v = 1 WHERE t."Id" = 3') == _keys("t", 3)
        assert _scope("UPDATE t SET v = 1 WHERE 4 = t.id") == _keys("t", 4)

    def test_insert_shape_with_column_list(self):
        assert _scope("INSERT INTO t (id, v) VALUES (3, 'x')") == _keys("t", 3)
        assert _scope("INSERT INTO t (v, \"ID\") VALUES ('x', $k)", {"k": "3"}) == _keys("t", 3)
        # Absent, the key takes a default nobody can see from here; named
        # twice, which value lands is the backend's business.
        assert _scope("INSERT INTO t (v) VALUES ('x')") == _table("t")
        assert _scope("INSERT INTO t (id, id) VALUES (1, 2)") == _table("t")

    def test_insert_shape_without_column_list(self):
        # No column list: values are positional, matched to the PK by its
        # catalog ordinal — which a seeded key (no catalog) does not have.
        assert _scope("INSERT INTO t VALUES (3, 'x')", ordinal=1) == _keys("t", 3)
        assert _scope("INSERT INTO t VALUES ('x', 3)", ordinal=2) == _keys("t", 3)
        assert _scope("INSERT INTO t VALUES (3)", ordinal=2) == _table("t")
        assert _scope("INSERT INTO t VALUES (3, 'x')") == _table("t")

    def test_multi_row_insert_has_no_values(self):
        # Two rows ⇒ two keys; the write takes the table.
        assert _scope("INSERT INTO t (id) VALUES (1), (2)") == _table("t")

    def test_insert_select_has_no_values(self):
        statement = classify("INSERT INTO a (id) SELECT id FROM b")
        assert statement.dml is None
        assert _scope("INSERT INTO a (id) SELECT id FROM b") == LockScope(
            tables=frozenset({"a", "b"})
        )

    def test_expression_values_are_opaque(self):
        # Only a literal or a named parameter is a key (the parser reads
        # DEFAULT as a column reference).
        assert _scope("INSERT INTO t (id, v) VALUES (1 + 2, 'x')") == _table("t")
        assert _scope("INSERT INTO t (id, v) VALUES (DEFAULT, 'x')") == _table("t")
        assert _scope("UPDATE t SET v = v + 1 WHERE id = 1 + 2") == _table("t")
        # ...but an expression elsewhere in the row or the SET list is
        # that row's own business.
        assert _scope("INSERT INTO t (id, v) VALUES (1, 2 + 3)") == _keys("t", 1)
        assert _scope("UPDATE t SET v = v + 1 WHERE id = 3") == _keys("t", 3)

    def test_where_terminators_end_the_region(self):
        # The parser has no ORDER BY / LIMIT / RETURNING on a write, so
        # it reads none of the text and the write takes the table — the
        # ORDER BY column can leak into nothing.
        assert classify("DELETE FROM t WHERE id = 4 ORDER BY ts LIMIT 1").dml is None
        assert _scope("DELETE FROM t WHERE id = 4 ORDER BY ts LIMIT 1") == _table("t")
        assert _scope("DELETE FROM t WHERE id = 4 RETURNING v") == _table("t")

    def test_spellings_the_grammar_proves_identical_share_a_scope(self):
        # Parentheses do not exist in the AST and one trailing ';' ends
        # the statement: the same rows, so the same key.
        assert _scope("UPDATE t SET v = 1 WHERE id = 5;") == _keys("t", 5)
        assert _scope("UPDATE t SET v = 1 WHERE (id) = (5)") == _keys("t", 5)
        assert _scope("DELETE FROM t WHERE id IN ((1), (2))") == _keys("t", 1, 2)
        assert _scope("INSERT INTO t (id, v) VALUES ((1), 'x')") == _keys("t", 1)
        # A second statement after the ';' is not the same statement.
        assert _scope("UPDATE t SET v = 1 WHERE id = 5; DELETE FROM t") == _table("t")

    def test_using_names_a_second_table(self):
        # A table the scan does not see is not locked, not colocated and
        # not a cache dependency.
        statement = classify("DELETE FROM t USING u WHERE t.k = u.k")
        assert statement.write_tables == frozenset({"t"})
        assert statement.read_tables == frozenset({"u"})
        assert _scope("DELETE FROM t USING u WHERE t.k = u.k").tables == {"t", "u"}
        merge = classify("MERGE INTO t USING public.u ON t.id = u.id WHEN MATCHED THEN DELETE")
        assert (merge.write_tables, merge.read_tables) == (frozenset({"t"}), frozenset({"u"}))
        # JOIN ... USING (column) names a column list, not a table.
        assert classify("SELECT * FROM a JOIN b USING (id)").read_tables == {"a", "b"}

    def test_only_row_level_statements_are_parsed(self):
        # DDL and transaction control never reach the parser here; a text
        # it rejects is a None, never an exception.
        for sql in ("CREATE TABLE t (id INTEGER)", "BEGIN",
                    "EXPLAIN DELETE FROM t WHERE id = 1", "EXPLAIN SELECT * FROM t WHERE id = 1",
                    "WITH c AS (SELECT 1) DELETE FROM t WHERE id = 1",
                    "SELECT * FROM t JOIN u ON t.id = u.id WHERE t.id = 1",
                    "DELETE FROM t WHERE " + "(" * 3000 + "id = 1" + ")" * 3000):
            assert classify(sql).dml is None, sql
        assert type(classify("DELETE FROM t WHERE id = 1").dml).__name__ == "Delete"
        assert type(classify("SELECT * FROM t WHERE id = 1").dml).__name__ == "Select"


def _keys(table, *keys):
    return LockScope(keys=frozenset((table, key) for key in keys))


def _table(table):
    return LockScope(tables=frozenset({table}))


def _scope(sql, params=None, pk="id", data_type="INTEGER", ordinal=None):
    """The scope ``sql`` resolves to when its write table is keyed on
    ``pk``: seeded (no catalog ordinal) unless ``ordinal`` is given,
    which is then what the catalog probe answers."""
    statement = classify(sql)
    (table,) = statement.write_tables
    if ordinal is None:
        resolver = ScopeResolver(lambda: [], {table: (pk, data_type)})
    else:
        rows = [(table, "", pk, ordinal, data_type, True, None)]
        catalog = SimpleNamespace(execute=lambda sql, params, track: ([], rows, 1))
        resolver = ScopeResolver(lambda: [catalog])
    return resolver.resolve(statement, params)[0]


class TestLoadBalancerPolicies:
    def test_round_robin_uniform(self):
        backends = [_backend(f"b{i}") for i in range(3)]
        policy = RoundRobinPolicy()
        counts = {backend.name: 0 for backend in backends}
        for _ in range(30):
            counts[policy.choose(backends).name] += 1
        assert set(counts.values()) == {10}

    def test_round_robin_stable_under_membership_changes(self):
        backends = [_backend(f"b{i}") for i in range(3)]
        policy = RoundRobinPolicy()
        for _ in range(9):
            policy.choose(backends)
        # One backend leaves: the remaining two still split reads evenly.
        reduced = backends[:2]
        counts = {backend.name: 0 for backend in reduced}
        for _ in range(10):
            counts[policy.choose(reduced).name] += 1
        assert sorted(counts.values()) == [5, 5]
        # It comes back: the rotation covers all three again, evenly.
        counts = {backend.name: 0 for backend in backends}
        for _ in range(9):
            counts[policy.choose(backends).name] += 1
        assert set(counts.values()) == {3}

    def test_least_pending_prefers_idle_backend(self):
        busy, idle = _backend("busy"), _backend("idle")
        busy.begin_request()
        busy.begin_request()
        idle.begin_request()
        policy = LeastPendingPolicy()
        assert policy.choose([busy, idle]).name == "idle"
        idle.finish_request()
        busy.finish_request()
        busy.finish_request()
        # Ties break round-robin instead of always picking the first.
        chosen = {policy.choose([busy, idle]).name for _ in range(2)}
        assert chosen == {"busy", "idle"}

    def test_least_pending_ties_fair_under_placement_filtering(self):
        # Regression: one shared tie-break cursor aliased across
        # differently-sized tie sets. A strict interleave of a 2-way and
        # a 3-way tie stepped the cursor by 2 between 2-way calls, so the
        # 2-way ties always saw the same parity and one of those backends
        # never served a read despite hosting the table.
        backends = [_backend(f"b{i}") for i in range(3)]
        pair_hosts = {"b0", "b1"}  # the 2-way tie: a table hosted on b0+b1
        policy = LeastPendingPolicy()
        counts = {"b0": 0, "b1": 0}
        pair = [backend for backend in backends if backend.name in pair_hosts]
        for _ in range(10):
            counts[policy.choose(pair).name] += 1
            policy.choose(backends)  # interleaved 3-way tie (all idle)
        assert counts == {"b0": 5, "b1": 5}

    def test_least_pending_filtered_ties_rotate(self):
        backends = [_backend(f"b{i}") for i in range(4)]
        hosts = {"b1", "b3"}
        policy = LeastPendingPolicy()
        candidates = [backend for backend in backends if backend.name in hosts]
        chosen = {policy.choose(candidates).name for _ in range(2)}
        assert chosen == hosts

    def test_weighted_respects_weights(self):
        heavy, light, idle = _backend("heavy"), _backend("light"), _backend("idle")
        # light is unnamed, so it weighs 1.0; a zero weight is never chosen.
        policy = create_policy(" weighted : heavy=3, idle=0 ")
        counts = {"heavy": 0, "light": 0, "idle": 0}
        for _ in range(40):
            counts[policy.choose([heavy, light, idle]).name] += 1
        assert counts == {"heavy": 30, "light": 10, "idle": 0}

    def test_create_policy_factory(self):
        assert create_policy("round_robin").name == "round_robin"
        assert create_policy("least_pending").name == "least_pending"
        assert create_policy("weighted").name == "weighted"
        assert create_policy("weighted:db1=3,db2=2.5,db3=0").name == "weighted"
        assert available_policies() == ["least_pending", "round_robin", "weighted"]
        with pytest.raises(DriverError):
            create_policy("no_such_policy")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("no_such_policy", "unknown read policy"),
            ("round_robin:a=1", "takes no arguments"),
            ("least_pending:", "takes no arguments"),
            ("weighted:", "bad weight clause"),
            ("weighted:a", "bad weight clause"),
            ("weighted:=2", "bad weight clause"),
            ("weighted:a=heavy", "bad weight clause"),
            ("weighted:a=-1", "bad weight clause"),
            ("weighted:a=nan", "bad weight clause"),
            ("weighted:a=2,,b=1", "bad weight clause"),
        ],
    )
    def test_malformed_policy_spec_refuses_to_build_the_controller(self, spec, message):
        with pytest.raises(DriverError, match=message):
            create_policy(spec)
        with pytest.raises(DriverError, match=message):
            Controller(ControllerConfig(read_policy=spec), InMemoryNetwork(), "ctl:1")


class TestQueryCache:
    RESULT = (["n"], [(1,)], 1)

    def test_hit_and_miss(self):
        cache = QueryCache()
        assert cache.get("SELECT 1", {}) is None
        cache.put("SELECT 1", {}, {"t"}, self.RESULT)
        assert cache.get("SELECT 1", {}) == (["n"], [(1,)], 1)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_params_are_part_of_the_key(self):
        cache = QueryCache()
        cache.put("SELECT * FROM t WHERE id = $id", {"id": 1}, {"t"}, self.RESULT)
        assert cache.get("SELECT * FROM t WHERE id = $id", {"id": 2}) is None
        assert cache.get("SELECT * FROM t WHERE id = $id", {"id": 1}) is not None

    def test_invalidation_is_table_accurate(self):
        cache = QueryCache()
        cache.put("SELECT * FROM a", {}, {"a"}, self.RESULT)
        cache.put("SELECT * FROM b", {}, {"b"}, self.RESULT)
        evicted = cache.invalidate_tables({"a"})
        assert evicted == 1
        # The write to table a must not evict the SELECT reading only b.
        assert cache.get("SELECT * FROM a", {}) is None
        assert cache.get("SELECT * FROM b", {}) is not None

    def test_unknown_write_tables_flush_everything(self):
        cache = QueryCache()
        cache.put("SELECT * FROM a", {}, {"a"}, self.RESULT)
        cache.put("SELECT * FROM b", {}, {"b"}, self.RESULT)
        assert cache.invalidate_tables(set()) == 2
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = QueryCache(max_entries=2)
        cache.put("q1", {}, {"t"}, self.RESULT)
        cache.put("q2", {}, {"t"}, self.RESULT)
        cache.get("q1", {})  # refresh q1 so q2 is the eviction victim
        cache.put("q3", {}, {"t"}, self.RESULT)
        assert cache.get("q1", {}) is not None
        assert cache.get("q2", {}) is None
        assert cache.stats()["evictions"] == 1

    def test_stale_put_rejected_after_invalidation(self):
        cache = QueryCache()
        stamp = cache.stamp()
        cache.invalidate_tables({"t"})
        # A read that started before the write may not store its result.
        assert cache.put("SELECT * FROM t", {}, {"t"}, self.RESULT, stamp=stamp) is False
        assert cache.get("SELECT * FROM t", {}) is None
        # A read started after the invalidation may.
        assert cache.put("SELECT * FROM t", {}, {"t"}, self.RESULT, stamp=cache.stamp())

    def test_unhashable_params_degrade_to_normal_caching(self):
        cache = QueryCache()
        # List-valued params arrive straight off the wire; they must not
        # raise, and equal values must still hit.
        assert cache.get("SELECT * FROM t WHERE id IN $ids", {"ids": [1, 2]}) is None
        cache.put("SELECT * FROM t WHERE id IN $ids", {"ids": [1, 2]}, {"t"}, self.RESULT)
        assert cache.get("SELECT * FROM t WHERE id IN $ids", {"ids": [1, 2]}) is not None
        assert cache.get("SELECT * FROM t WHERE id IN $ids", {"ids": [1, 3]}) is None

    def test_stale_put_rejected_after_full_flush(self):
        cache = QueryCache()
        stamp = cache.stamp()
        cache.invalidate_tables(set())
        assert cache.put("SELECT 1", {}, set(), self.RESULT, stamp=stamp) is False

    def test_mutating_a_returned_row_does_not_poison_the_cache(self):
        # Regression: get() returned a fresh outer list of the *same* row
        # objects the cache held, so a caller mutating a row corrupted
        # every later hit. Rows come off the engine as lists here.
        cache = QueryCache()
        cache.put("SELECT * FROM t", {}, {"t"}, (["id", "v"], [[1, "a"]], 1))
        columns, rows, rowcount = cache.get("SELECT * FROM t", {})
        # Frozen rows cannot be mutated in place at all...
        assert rows == [(1, "a")]
        with pytest.raises((TypeError, AttributeError)):
            rows[0][1] = "MUTATED"
        # ...and growing the returned outer list touches nothing cached.
        rows.append(("junk",))
        columns.append("junk")
        cached = cache.get("SELECT * FROM t", {})
        assert cached == (["id", "v"], [(1, "a")], 1)

    def test_mutating_the_callers_rows_after_put_does_not_corrupt(self):
        # put() must snapshot too: the caller still holds the row objects
        # it handed over and may reuse or mutate them afterwards.
        cache = QueryCache()
        row = [1, "a"]
        cache.put("SELECT * FROM t", {}, {"t"}, (["id", "v"], [row], 1))
        row[1] = "MUTATED"
        assert cache.get("SELECT * FROM t", {}) == (["id", "v"], [(1, "a")], 1)


class TestWriteBroadcaster:
    def test_parallel_broadcast_aggregates_failures(self):
        good, bad = _backend("good"), _backend("bad")
        bad.test_connection.fail_with = DriverError("replica down")
        broadcaster = WriteBroadcaster()
        try:
            outcome = broadcaster.broadcast([good, bad], "INSERT INTO t VALUES (1)")
        finally:
            broadcaster.close()
        assert outcome.result is not None
        assert [o.backend.name for o in outcome.succeeded] == ["good"]
        assert [o.backend.name for o in outcome.failed] == ["bad"]
        assert "replica down" in outcome.failure_messages()[0]

    def test_unexpected_exception_is_an_outcome_not_a_crash(self):
        # Regression: _run_one only caught DriverError, so a RuntimeError
        # (driver bug, broken connection object) re-raised out of
        # future.result() in broadcast() and dropped every sibling
        # outcome — the scheduler never learned which backends had
        # already applied the write.
        good, buggy = _backend("good"), _backend("buggy")
        buggy.test_connection.fail_with = RuntimeError("driver bug mid-execute")
        broadcaster = WriteBroadcaster()
        try:
            outcome = broadcaster.broadcast([good, buggy], "INSERT INTO t VALUES (1)")
        finally:
            broadcaster.close()
        # The sibling's success survives, and the failure is attributed.
        assert [o.backend.name for o in outcome.succeeded] == ["good"]
        assert [o.backend.name for o in outcome.failed] == ["buggy"]
        assert isinstance(outcome.failed[0].error, RuntimeError)
        assert outcome.result is not None
        # The pending counter unwound despite the exception.
        assert buggy.pending == 0

    def test_scheduler_fails_backend_raising_unexpected_exception(self):
        # End to end: a non-DriverError is a replica fault (it is not one
        # of the statement faults), so the backend leaves the rotation
        # instead of silently diverging.
        good, buggy = _backend("good"), _backend("buggy")
        buggy.test_connection.fail_with = RuntimeError("driver bug mid-execute")
        log = RecoveryLog()
        scheduler = RequestScheduler([good, buggy], log)
        columns, rows, rowcount = scheduler.execute("INSERT INTO t (id) VALUES (1)")
        assert rowcount == 1
        assert good.enabled
        assert buggy.state is BackendState.FAILED
        assert log.last_index == 1
        scheduler.close()

    def test_first_backend_result_is_primary(self):
        first, second = _backend("first", read_value=10), _backend("second", read_value=20)
        broadcaster = WriteBroadcaster()
        try:
            outcome = broadcaster.broadcast([first, second], "SELECT value FROM t")
        finally:
            broadcaster.close()
        assert outcome.result == (["value"], [(10,)], 1)


class TestSchedulerRouting:
    def _scheduler(self, backends, **kwargs):
        return RequestScheduler(backends, RecoveryLog(), **kwargs)

    def test_read_only_statements_not_logged_for_resync(self):
        backends = [_backend("b1"), _backend("b2")]
        log = RecoveryLog()
        scheduler = RequestScheduler(backends, log)
        scheduler.execute("WITH c AS (SELECT value FROM t) SELECT * FROM c")
        scheduler.execute("EXPLAIN SELECT * FROM t")
        scheduler.execute("(SELECT 1)")
        assert log.last_index == 0
        # Reads went to exactly one backend each.
        total = sum(backend.statements_executed for backend in backends)
        assert total == 3
        scheduler.execute("INSERT INTO t (id) VALUES (1)")
        assert log.last_index == 1
        scheduler.close()

    def test_transaction_control_runs_on_the_transactions_connections_unlogged(self):
        backends = [_backend("b1"), _backend("b2")]
        log = RecoveryLog()
        scheduler = RequestScheduler(backends, log)
        # A transaction that sent nothing has nothing to end.
        scheduler.execute("BEGIN")
        scheduler.execute("COMMIT")
        assert all(backend.statements_executed == 0 for backend in backends)
        # BEGIN goes out before the transaction's first statement on each
        # replica, COMMIT after its last; only the write is logged.
        scheduler.execute("BEGIN")
        scheduler.execute("INSERT INTO t (id) VALUES (1)")
        scheduler.execute("COMMIT")
        assert [entry.sql for entry in log.entries_after(0)] == ["INSERT INTO t (id) VALUES (1)"]
        for backend in backends:
            executed = backend.test_connection.executed
            assert [sql for sql, _ in executed if "information_schema" not in sql] == [
                "BEGIN",
                "INSERT INTO t (id) VALUES (1)",
                "COMMIT",
            ]
        scheduler.close()

    def test_failed_backends_excluded_from_reads(self):
        healthy, failed = _backend("healthy"), _backend("failed")
        failed.mark_failed()
        scheduler = self._scheduler([healthy, failed])
        for _ in range(4):
            scheduler.execute("SELECT value FROM t")
        assert healthy.statements_executed == 4
        assert failed.statements_executed == 0
        assert failed.state is BackendState.FAILED
        scheduler.close()

    def test_no_enabled_backends_raises(self):
        backend = _backend("b1")
        backend.disable(0)
        scheduler = self._scheduler([backend])
        with pytest.raises(SchedulerError):
            scheduler.execute("SELECT 1")
        scheduler.close()

    def test_cached_read_skips_backends_until_invalidated(self):
        backend = _backend("b1")
        cache = QueryCache()
        scheduler = self._scheduler([backend], query_cache=cache)
        scheduler.execute("SELECT value FROM t")
        scheduler.execute("SELECT value FROM t")
        scheduler.execute("SELECT value FROM t")
        assert backend.statements_executed == 1
        assert cache.stats()["hits"] == 2
        # A write to an unrelated table keeps the entry (only the write ran).
        scheduler.execute("INSERT INTO other (id) VALUES (1)")
        scheduler.execute("SELECT value FROM t")
        assert backend.statements_executed == 2
        # ...a write to t evicts it, so the next read goes back to a backend.
        scheduler.execute("INSERT INTO t (id) VALUES (2)")
        scheduler.execute("SELECT value FROM t")
        assert backend.statements_executed == 4
        scheduler.close()

    def test_rollback_evicts_reads_cached_during_the_transaction(self):
        backend = _backend("b1")
        cache = QueryCache()
        scheduler = self._scheduler([backend], query_cache=cache)
        scheduler.execute("BEGIN", session_id="A")
        scheduler.execute("INSERT INTO t (id) VALUES (99)", session_id="A")
        # A concurrent autocommit read observes (and caches) the
        # uncommitted state — its stamp is fresher than the write's
        # invalidations, so the entry is accepted.
        scheduler.execute("SELECT COUNT(*) FROM t")
        assert cache.get("SELECT COUNT(*) FROM t", {}) is not None
        # ROLLBACK reverts the backends; the dirty entry must go too.
        scheduler.execute("ROLLBACK", session_id="A")
        assert cache.get("SELECT COUNT(*) FROM t", {}) is None
        # Unrelated cached reads survive the flush.
        scheduler.execute("SELECT COUNT(*) FROM other")
        scheduler.execute("BEGIN", session_id="A")
        scheduler.execute("INSERT INTO t (id) VALUES (100)", session_id="A")
        scheduler.execute("COMMIT", session_id="A")
        assert cache.get("SELECT COUNT(*) FROM other", {}) is not None
        scheduler.close()

    def test_unrelated_sessions_commit_does_not_erase_dirty_tracking(self):
        backend = _backend("b1")
        cache = QueryCache()
        scheduler = self._scheduler([backend], query_cache=cache)
        # Session A opens a transaction and writes t.
        scheduler.execute("BEGIN", session_id="A")
        scheduler.execute("INSERT INTO t (id) VALUES (1)", session_id="A")
        # Session B's BEGIN opens B's own transaction, and B's write is
        # in it alone.
        scheduler.execute("BEGIN", session_id="B")
        assert scheduler.in_transaction("A") and scheduler.in_transaction("B")
        scheduler.execute("INSERT INTO other (id) VALUES (1)", session_id="B")
        # An autocommit read caches t's (still uncommitted) state.
        scheduler.execute("SELECT COUNT(*) FROM t")
        assert cache.get("SELECT COUNT(*) FROM t", {}) is not None
        # B's COMMIT ends B's transaction only: A's is still open, and so
        # is its claim on t's cache entries.
        scheduler.execute("COMMIT", session_id="B")
        assert scheduler.in_transaction("A") and not scheduler.in_transaction("B")
        assert cache.get("SELECT COUNT(*) FROM t", {}) is not None
        # A's ROLLBACK takes its write back: the dirty entry goes.
        scheduler.execute("ROLLBACK", session_id="A")
        assert cache.get("SELECT COUNT(*) FROM t", {}) is None
        scheduler.close()

    def test_write_failure_on_one_backend_marks_it_failed(self):
        good, bad = _backend("good"), _backend("bad")
        bad.test_connection.fail_with = DriverError("disk on fire")
        log = RecoveryLog()
        scheduler = RequestScheduler([good, bad], log)
        columns, rows, rowcount = scheduler.execute("INSERT INTO t (id) VALUES (1)")
        assert rowcount == 1
        assert bad.state is BackendState.FAILED
        assert good.checkpoint_index == log.last_index == 1
        scheduler.close()

    def test_sql_error_does_not_mark_backends_failed(self):
        from repro.dbapi.exceptions import ProgrammingError

        backends = [_backend("b1"), _backend("b2")]
        for backend in backends:
            backend.test_connection.fail_with = ProgrammingError("duplicate primary key")
        scheduler = self._scheduler(backends)
        # The statement is at fault, not the replicas: the client gets the
        # error but the cluster stays fully enabled.
        with pytest.raises(SchedulerError):
            scheduler.execute("INSERT INTO t (id) VALUES (1)")
        assert all(backend.enabled for backend in backends)
        # The connection survives too: dropping it would roll back any
        # open server-side transaction out from under other sessions.
        assert all(not backend.test_connection.closed for backend in backends)
        for backend in backends:
            backend.test_connection.fail_with = None
        columns, rows, rowcount = scheduler.execute("INSERT INTO t (id) VALUES (2)")
        assert rowcount == 1
        scheduler.close()

    def test_rolled_back_writes_never_enter_the_recovery_log(self):
        backends = [_backend("b1"), _backend("b2")]
        log = RecoveryLog()
        scheduler = RequestScheduler(backends, log)
        scheduler.execute("BEGIN")
        scheduler.execute("INSERT INTO t (id) VALUES (1)", in_transaction=True)
        # Not logged yet: the transaction may still roll back.
        assert log.last_index == 0
        scheduler.execute("ROLLBACK", in_transaction=True)
        assert log.last_index == 0
        # A committed transaction's writes land in the log in order.
        scheduler.execute("BEGIN")
        scheduler.execute("INSERT INTO t (id) VALUES (2)", in_transaction=True)
        scheduler.execute("INSERT INTO t (id) VALUES (3)", in_transaction=True)
        scheduler.execute("COMMIT", in_transaction=True)
        assert [entry.sql for entry in log.entries_after(0)] == [
            "INSERT INTO t (id) VALUES (2)",
            "INSERT INTO t (id) VALUES (3)",
        ]
        assert all(backend.checkpoint_index == 2 for backend in backends)
        scheduler.close()

    def test_autocommit_write_during_open_transaction_is_logged_at_once(self):
        # Each transaction runs on connections checked out for it, so a
        # write from *another* session is auto-commit on the backend's
        # own connection: it reaches the recovery log at once, and the
        # transaction's writes only at its COMMIT, after it. (A holds t
        # until it ends, so B writes another table.)
        backends = [_backend("b1")]
        log = RecoveryLog()
        scheduler = RequestScheduler(backends, log)
        scheduler.execute("BEGIN", session_id="A")
        scheduler.execute("INSERT INTO t (id) VALUES (1)", session_id="A")
        scheduler.execute("INSERT INTO other (id) VALUES (99)", session_id="B")
        assert [entry.sql for entry in log.entries_after(0)] == ["INSERT INTO other (id) VALUES (99)"]
        scheduler.execute("ROLLBACK", session_id="A")
        assert log.last_index == 1
        scheduler.execute("BEGIN", session_id="A")
        scheduler.execute("INSERT INTO t (id) VALUES (2)", session_id="A")
        scheduler.execute("INSERT INTO other (id) VALUES (98)", session_id="B")
        scheduler.execute("COMMIT", session_id="A")
        assert [entry.sql for entry in log.entries_after(1)] == [
            "INSERT INTO other (id) VALUES (98)",
            "INSERT INTO t (id) VALUES (2)",
        ]
        scheduler.close()

    def test_acked_autocommit_write_survives_another_sessions_rollback(self):
        # On a real cluster: session B's write was acknowledged, so
        # session A's ROLLBACK must not take it back and the recovery log
        # must hold it — A's transaction runs on connections of its own.
        from repro.cluster import ClusterDriverRuntime
        from repro.experiments.environments import build_cluster

        env = build_cluster(replicas=2, controllers=1)
        try:
            controller = env.controllers[0]
            runtime = ClusterDriverRuntime()
            session_a = runtime.connect(env.client_url(), network=env.network)
            session_b = runtime.connect(env.client_url(), network=env.network)
            a, b = session_a.cursor(), session_b.cursor()
            a.execute("CREATE TABLE hole_t (id INTEGER PRIMARY KEY, v INTEGER)")
            a.execute("INSERT INTO hole_t (id, v) VALUES (1, 0)")
            a.execute("INSERT INTO hole_t (id, v) VALUES (2, 0)")
            logged_before = controller.recovery_log.last_index
            a.execute("BEGIN")
            a.execute("UPDATE hole_t SET v = 1 WHERE id = 1")
            b.execute("UPDATE hole_t SET v = 2 WHERE id = 2")
            assert b.rowcount == 1  # acknowledged
            a.execute("ROLLBACK")
            for engine in env.replica_engines:
                rows = engine.open_session(env.database_name).execute(
                    "SELECT id, v FROM hole_t ORDER BY id"
                ).rows
                assert rows == [(1, 0), (2, 2)]
            assert [
                entry.sql for entry in controller.recovery_log.entries_after(logged_before)
            ] == ["UPDATE hole_t SET v = 2 WHERE id = 2"]
            session_a.close()
            session_b.close()
        finally:
            env.close()

    def test_rejected_commit_variant_keeps_transaction_buffer(self):
        from repro.dbapi.exceptions import ProgrammingError

        backend = _backend("b1")
        log = RecoveryLog()
        scheduler = RequestScheduler([backend], log)
        scheduler.execute("BEGIN")
        scheduler.execute("INSERT INTO t (id) VALUES (1)", in_transaction=True)
        # The engine rejects the COMMIT variant as bad SQL: the transaction
        # is still open server-side, so the buffer and accounting survive.
        backend.test_connection.fail_with = ProgrammingError("unexpected trailing token")
        with pytest.raises(SchedulerError):
            scheduler.execute("COMMIT WORK", in_transaction=True)
        backend.test_connection.fail_with = None
        assert scheduler.open_transactions == 1
        assert log.last_index == 0
        scheduler.execute("COMMIT", in_transaction=True)
        assert log.last_index == 1
        assert scheduler.open_transactions == 0
        scheduler.close()

    def test_another_sessions_commit_is_refused_and_leaves_the_transaction_whole(self):
        # A session with nothing open gets one database's answer to its
        # COMMIT, and the flag it passes changes nothing: A's transaction
        # stays open, and its write waits in the buffer for A's COMMIT.
        backend = _backend("b1")
        log = RecoveryLog()
        scheduler = RequestScheduler([backend], log)
        scheduler.execute("BEGIN", session_id="A")
        assert scheduler.in_transaction("A")
        with pytest.raises(SchedulerError, match="COMMIT without an open transaction"):
            scheduler.execute("COMMIT", in_transaction=True, session_id="rogue")
        assert scheduler.open_transactions == 1 and scheduler.in_transaction("A")
        scheduler.execute("INSERT INTO t (id) VALUES (1)", session_id="A")
        assert log.last_index == 0
        scheduler.execute("COMMIT", session_id="A")
        assert log.last_index == 1
        scheduler.close()

    def test_flagless_begin_commit_does_not_pin_accounting(self):
        # Callers driving the scheduler directly may not thread the
        # in_transaction flag; the scheduler's own accounting must still
        # close the transaction on COMMIT.
        backend = _backend("b1")
        log = RecoveryLog()
        scheduler = RequestScheduler([backend], log)
        scheduler.execute("BEGIN")
        scheduler.execute("COMMIT")
        assert scheduler.open_transactions == 0
        scheduler.execute("INSERT INTO t (id) VALUES (1)")
        assert log.last_index == 1
        scheduler.close()

    def test_a_nested_begin_is_refused_and_the_flag_counts_for_nothing(self):
        # A second BEGIN is refused as one database refuses it, and the
        # transaction stays the first one; a BEGIN with a stale
        # in_transaction=True flag after it ended is counted all the same,
        # or A's later writes would be logged at once and survive its
        # ROLLBACK in the log.
        backend = _backend("b1")
        log = RecoveryLog()
        scheduler = RequestScheduler([backend], log)
        scheduler.execute("BEGIN", session_id="A")
        with pytest.raises(SchedulerError, match="transaction already in progress"):
            scheduler.execute("BEGIN", session_id="A")
        scheduler.execute("ROLLBACK", session_id="A")
        scheduler.execute("BEGIN", in_transaction=True, session_id="A")  # stale flag
        assert scheduler.open_transactions == 1 and scheduler.in_transaction("A")
        scheduler.execute("INSERT INTO t (id) VALUES (1)", session_id="A")
        assert log.last_index == 0  # buffered, not logged
        scheduler.execute("ROLLBACK", session_id="A")
        assert log.last_index == 0
        assert scheduler.open_transactions == 0
        scheduler.close()

    def test_mixed_fault_commit_keeps_buffer_until_a_replica_commits(self):
        from repro.dbapi.exceptions import OperationalError, ProgrammingError

        alive, dying = _backend("alive"), _backend("dying")
        log = RecoveryLog()
        scheduler = RequestScheduler([alive, dying], log)
        scheduler.execute("BEGIN")
        scheduler.execute("INSERT INTO t (id) VALUES (1)", in_transaction=True)
        # COMMIT is rejected as bad SQL on the live replica and dies with a
        # connection fault on the other: the transaction is still open on
        # the live one, so the buffer and accounting must survive.
        alive.test_connection.fail_with = ProgrammingError("rejected")
        dying.test_connection.fail_with = OperationalError("connection lost")
        with pytest.raises(SchedulerError):
            scheduler.execute("COMMIT", in_transaction=True)
        assert alive.enabled
        assert dying.state is BackendState.FAILED
        assert scheduler.open_transactions == 1
        assert log.last_index == 0
        # The retried COMMIT succeeds on the live replica: the buffered
        # write finally reaches the log, ready for the failed replica's
        # resync.
        alive.test_connection.fail_with = None
        scheduler.execute("COMMIT", in_transaction=True)
        assert scheduler.open_transactions == 0
        assert log.last_index == 1
        scheduler.close()

    def _assert_transaction_over(self, scheduler, backends, owner):
        # Nothing is left open, so every replica can rejoin, and the
        # owner's abort finds nothing to roll back.
        assert scheduler.open_transactions == 0
        for backend in backends:
            backend.test_connection.fail_with = None
            scheduler.resync_and_enable(backend)
            assert backend.enabled
        sent = [list(backend.test_connection.executed) for backend in backends]
        scheduler.abort(owner)
        assert [backend.test_connection.executed for backend in backends] == sent
        assert not scheduler.in_transaction(owner)

    def test_a_transaction_whose_connections_all_dropped_is_over(self):
        backends = [_backend("b1"), _backend("b2")]
        log = RecoveryLog()
        scheduler = RequestScheduler(backends, log)
        scheduler.execute("BEGIN", session_id="A")
        for backend in backends:
            backend.test_connection.fail_with = DriverError("connection lost")
        with pytest.raises(SchedulerError):
            scheduler.execute("INSERT INTO t (id) VALUES (1)", in_transaction=True, session_id="A")
        # Every server session rolled the transaction back with its
        # connection: the record ends too, not at some later COMMIT, and
        # the failed statement tells A so.
        assert not scheduler.in_transaction("A")
        self._assert_transaction_over(scheduler, backends, "A")
        assert log.last_index == 0
        scheduler.close()

    def test_disabling_the_last_replica_in_a_transaction_ends_it(self):
        backend = _backend("b1")
        log = RecoveryLog()
        scheduler = RequestScheduler([backend], log)
        scheduler.execute("BEGIN", session_id="A")
        scheduler.execute("INSERT INTO t (id) VALUES (1)", in_transaction=True, session_id="A")
        scheduler.checkpoint_and_disable(backend)
        # Over, but A has not been told yet: it is still in a transaction
        # until its next statement.
        assert scheduler.in_transaction("A")
        self._assert_transaction_over(scheduler, [backend], "A")
        assert log.last_index == 0
        scheduler.close()

    @pytest.mark.parametrize("then", ["INSERT INTO t (id) VALUES (2)", "SELECT id FROM t", "COMMIT", "ROLLBACK"])
    def test_a_session_whose_transaction_dropped_is_told_at_its_next_statement(self, then):
        # As one database tells a session its transaction was rolled
        # back: the next statement fails and runs nowhere, a ROLLBACK
        # succeeds, and either way the session is out of its transaction.
        backend = _backend("b1")
        log = RecoveryLog()
        scheduler = RequestScheduler([backend], log)
        scheduler.execute("BEGIN", session_id="A")
        scheduler.execute("INSERT INTO t (id) VALUES (1)", session_id="A")
        scheduler.checkpoint_and_disable(backend)
        scheduler.resync_and_enable(backend)
        sent = list(backend.test_connection.executed)
        if then == "ROLLBACK":
            assert scheduler.execute(then, session_id="A") == ([], [], 0)
        else:
            with pytest.raises(SchedulerError, match="the transaction was rolled back"):
                scheduler.execute(then, session_id="A")
        assert backend.test_connection.executed == sent and log.last_index == 0
        assert not scheduler.in_transaction("A") and scheduler.open_transactions == 0
        # Out of it, A's write is its own again.
        scheduler.execute("INSERT INTO t (id) VALUES (3)", session_id="A")
        assert [entry.sql for entry in log.entries_after(0)] == ["INSERT INTO t (id) VALUES (3)"]
        scheduler.close()

    def test_backend_failing_mid_transaction_resyncs_committed_writes(self):
        good, flaky = _backend("good"), _backend("flaky")
        log = RecoveryLog()
        scheduler = RequestScheduler([good, flaky], log)
        scheduler.execute("BEGIN")
        flaky.test_connection.fail_with = DriverError("connection lost")
        scheduler.execute("INSERT INTO t (id) VALUES (1)", in_transaction=True)
        assert flaky.state is BackendState.FAILED
        flaky.test_connection.fail_with = None
        scheduler.execute("COMMIT", in_transaction=True)
        # The failed replica's checkpoint predates the transaction, so a
        # resync replays exactly the committed write it missed.
        entries = log.entries_after(flaky.checkpoint_index)
        assert [entry.sql for entry in entries] == ["INSERT INTO t (id) VALUES (1)"]
        assert flaky.resync(entries) == 1
        assert flaky.enabled
        scheduler.close()

    def test_partial_statement_fault_marks_diverged_backend_failed(self):
        from repro.dbapi.exceptions import IntegrityError

        good, diverged = _backend("good"), _backend("diverged")
        diverged.test_connection.fail_with = IntegrityError("duplicate primary key")
        scheduler = self._scheduler([good, diverged])
        # One replica accepted the write, the other refused it: the
        # refusing replica is now missing a committed row and must leave
        # the read rotation (statement faults only exonerate the backend
        # when every replica agrees).
        columns, rows, rowcount = scheduler.execute("INSERT INTO t (id) VALUES (1)")
        assert rowcount == 1
        assert good.enabled
        assert diverged.state is BackendState.FAILED
        scheduler.close()

    def test_write_failing_everywhere_raises(self):
        bad = _backend("bad")
        bad.test_connection.fail_with = DriverError("nope")
        scheduler = self._scheduler([bad])
        with pytest.raises(SchedulerError):
            scheduler.execute("INSERT INTO t (id) VALUES (1)")
        scheduler.close()

    def test_write_rejected_everywhere_not_logged_for_resync(self):
        from repro.dbapi.exceptions import IntegrityError

        backends = [_backend("b1"), _backend("b2")]
        log = RecoveryLog()
        scheduler = RequestScheduler(backends, log)
        scheduler.execute("INSERT INTO t (id) VALUES (1)")
        for backend in backends:
            backend.test_connection.fail_with = IntegrityError("duplicate primary key")
        # Every replica rejected it: the statement must not enter the
        # recovery log, or resync would replay it (failing again) and
        # wedge the recovering backend forever.
        with pytest.raises(SchedulerError):
            scheduler.execute("INSERT INTO t (id) VALUES (1)")
        assert log.last_index == 1
        for backend in backends:
            backend.test_connection.fail_with = None
        backends[0].disable(log.last_index)
        scheduler.execute("INSERT INTO t (id) VALUES (2)")
        replayed = backends[0].resync(log.entries_after(backends[0].checkpoint_index))
        assert replayed == 1
        assert backends[0].enabled
        scheduler.close()

    def test_stats_shape(self):
        backend = _backend("b1")
        scheduler = self._scheduler([backend], query_cache=QueryCache())
        scheduler.execute("SELECT value FROM t")
        stats = scheduler.stats()
        assert stats["read_policy"] == "round_robin"
        assert stats["query_cache"]["misses"] == 1
        assert stats["backends"][0]["name"] == "b1"
        assert stats["backends"][0]["pending"] == 0
        scheduler.close()


class TestKeyLevelLocking:
    """Lock-scope selection: which statements get a (table, key) scope
    and which fall back up the ladder to a table lock. Uses the
    ``primary_keys`` override (the fake backends expose no catalog)."""

    def _scheduler(self, backends=None, **kwargs):
        kwargs.setdefault("primary_keys", {"t": ("id", "INTEGER")})
        return RequestScheduler(
            backends if backends is not None else [_backend("b1")],
            RecoveryLog(),
            **kwargs,
        )

    def _lock_counts(self, scheduler):
        stats = scheduler.stats()["locks"]
        return stats["key_acquisitions"], stats["table_acquisitions"]

    def test_single_row_pk_insert_takes_a_key_lock(self):
        scheduler = self._scheduler()
        scheduler.execute("INSERT INTO t (id, v) VALUES (1, 'x')")
        assert self._lock_counts(scheduler) == (1, 0)
        scheduler.close()

    def test_pk_equality_update_and_delete_take_key_locks(self):
        scheduler = self._scheduler()
        scheduler.execute("UPDATE t SET v = 'y' WHERE id = 7")
        scheduler.execute("DELETE FROM t WHERE id = 7 AND v = 'y'")
        assert self._lock_counts(scheduler) == (2, 0)
        scheduler.close()

    def test_named_param_key_resolved_from_params(self):
        scheduler = self._scheduler()
        scheduler.execute("UPDATE t SET v = 'z' WHERE id = $row", {"row": 3})
        assert self._lock_counts(scheduler) == (1, 0)
        scheduler.close()

    def test_missing_param_falls_back_to_table(self):
        # $row is not in the params dict: the key value is unknowable at
        # scheduling time, so the write must take the whole table.
        scheduler = self._scheduler()
        scheduler.execute("UPDATE t SET v = 'z' WHERE id = $row", {"other": 3})
        assert self._lock_counts(scheduler) == (0, 1)
        scheduler.close()

    def test_range_predicate_falls_back_to_table(self):
        scheduler = self._scheduler()
        scheduler.execute("DELETE FROM t WHERE id > 5")
        assert self._lock_counts(scheduler) == (0, 1)
        scheduler.close()

    def test_multi_row_insert_falls_back_to_table(self):
        scheduler = self._scheduler()
        scheduler.execute("INSERT INTO t (id) VALUES (1), (2)")
        assert self._lock_counts(scheduler) == (0, 1)
        scheduler.close()

    def test_update_assigning_the_pk_falls_back_to_table(self):
        # The row moves from key 7 to key 9: one key cannot cover both.
        scheduler = self._scheduler()
        scheduler.execute("UPDATE t SET id = 9 WHERE id = 7")
        assert self._lock_counts(scheduler) == (0, 1)
        scheduler.close()

    def test_insert_without_pk_value_falls_back_to_table(self):
        scheduler = self._scheduler()
        scheduler.execute("INSERT INTO t (v) VALUES ('x')")
        assert self._lock_counts(scheduler) == (0, 1)
        scheduler.close()

    def test_unknown_table_falls_back_to_table(self):
        # No override and no usable catalog on the fake backend: the PK
        # is unresolvable, so the write takes the table lock (and never
        # errors out on the failed catalog probe).
        scheduler = self._scheduler()
        scheduler.execute("INSERT INTO nopk (id) VALUES (1)")
        assert self._lock_counts(scheduler) == (0, 1)
        scheduler.close()

    def test_string_pk_coerces_numbers_like_the_engine(self):
        # The engine compares VARCHAR columns against numbers via str();
        # the lock key must follow or two spellings of one row would get
        # two different keys and run concurrently.
        scheduler = self._scheduler(primary_keys={"s": ("code", "VARCHAR")})
        scheduler.execute("DELETE FROM s WHERE code = 'a1'")
        scheduler.execute("DELETE FROM s WHERE code = 7")  # key "7"
        assert self._lock_counts(scheduler) == (2, 0)
        scheduler.close()

    def test_integer_pk_rejects_unparseable_strings(self):
        scheduler = self._scheduler()
        scheduler.execute("DELETE FROM t WHERE id = 'not-a-number'")
        assert self._lock_counts(scheduler) == (0, 1)
        scheduler.close()

    def test_ddl_takes_the_table_scope_and_invalidates_the_pk_cache(self):
        scheduler = self._scheduler(primary_keys={})
        scheduler.execute("INSERT INTO plain (id) VALUES (1)")  # caches None
        assert scheduler.stats()["primary_keys_cached"] == 1
        scheduler.execute("ALTER TABLE plain ADD COLUMN v VARCHAR")
        # The DDL dropped the cached resolution: the schema may now
        # declare a different key.
        assert scheduler.stats()["primary_keys_cached"] == 0
        scheduler.close()

    def test_stats_surface_key_fields(self):
        scheduler = self._scheduler()
        scheduler.execute("INSERT INTO t (id) VALUES (1)")
        locks = scheduler.stats()["locks"]
        for field in ("key_acquisitions", "key_waits", "keys_held", "covered_by_exclusive"):
            assert field in locks
        assert locks["keys_held"] == 0  # nothing in flight after return
        scheduler.close()
