"""Tests for the table-placement subsystem (RAIDb-0/1/2): the map and
policies, placement-aware routing in the scheduler, filtered recovery
replay, table-subset dumps, classifier name canonicalisation and the
removal of the deprecated recovery_log import path."""

import importlib
import sys

import pytest

from repro.cluster.backend import Backend, BackendState
from repro.cluster.classifier import classify, normalize_table_name
from repro.cluster.loadbalancer import (
    LeastPendingPolicy,
    RoundRobinPolicy,
    WeightedPolicy,
)
from repro.cluster.placement import (
    ExplicitPolicy,
    FullReplicationPolicy,
    HashSpreadPolicy,
    NoHostingBackendError,
    PlacementMap,
    Raidb0Policy,
    available_placements,
    create_placement,
)
from repro.cluster.querycache import QueryCache
from repro.cluster.recovery import RecoveryLog
from repro.cluster.scheduler import RequestScheduler, SchedulerError
from repro.errors import DriverError

from tests.test_scheduling import _backend


NAMES = ["db1", "db2", "db3", "db4"]


class TestNormalizeTableName:
    def test_quoted_identifier_loses_quotes(self):
        assert normalize_table_name('"Users"') == "users"

    def test_default_schema_is_stripped(self):
        assert normalize_table_name("public.users") == "users"
        assert normalize_table_name('Public."Users"') == "users"

    def test_other_schemas_stay_qualified(self):
        assert normalize_table_name("information_schema.tables") == "information_schema.tables"
        assert normalize_table_name("Sales.Orders") == "sales.orders"

    def test_classifier_uses_canonical_form(self):
        read = classify('SELECT * FROM "Users" JOIN public.orders ON 1 = 1')
        assert read.read_tables == frozenset({"users", "orders"})
        write = classify('INSERT INTO Public."Users" (id) VALUES (1)')
        assert write.write_tables == frozenset({"users"})
        delete = classify('DELETE FROM "Audit"')
        assert delete.write_tables == frozenset({"audit"})

    def test_quoted_spellings_share_cache_invalidation(self):
        cache = QueryCache()
        result = (["n"], [(1,)], 1)
        cache.put("SELECT * FROM users", {}, classify("SELECT * FROM users").read_tables, result)
        evicted = cache.invalidate_tables(classify('UPDATE Public."Users" SET a = 1').write_tables)
        assert evicted == 1


class TestPlacementPolicies:
    def test_available(self):
        assert available_placements() == ["explicit", "full", "hash", "raidb0"]

    def test_full_is_dynamic_over_the_universe(self):
        placement = create_placement("full", backend_names=["a"])
        assert placement.hosts("t") == frozenset({"a"})
        placement.add_backend("b")
        # Unpinned: a backend added later hosts the table too.
        assert placement.hosts("t") == frozenset({"a", "b"})
        assert placement.is_full

    def test_hash_spread_is_deterministic_and_pinned(self):
        first = create_placement("hash:2", backend_names=NAMES)
        second = create_placement("hash:2", backend_names=list(reversed(NAMES)))
        for table in ("users", "orders", "items"):
            assert first.hosts(table) == second.hosts(table)
            assert len(first.hosts(table)) == 2
        # Pinned at first sight: growing the universe moves nothing.
        before = first.hosts("users")
        first.add_backend("db9")
        assert first.hosts("users") == before

    def test_hash_with_undersized_universe_stays_unpinned(self):
        # Pinning an undersized ring would leave the table below its
        # configured redundancy forever (assignments never move) — so the
        # table stays unpinned, hosted everywhere, until enough backends
        # exist.
        placement = create_placement("hash:2", backend_names=["a"])
        assert placement.hosts("t") == frozenset({"a"})
        placement.add_backend("b")
        assert placement.hosts("t") == frozenset({"a", "b"})
        placement.add_backend("c")
        # Universe is now big enough: this lookup pins exactly 2 hosts…
        pinned = placement.hosts("t")
        assert len(pinned) == 2
        # …and further growth moves nothing.
        placement.add_backend("d")
        assert placement.hosts("t") == pinned

    def test_information_schema_is_never_pinned(self):
        placement = create_placement("raidb0", backend_names=NAMES)
        assert placement.hosts("information_schema.tables") == frozenset(NAMES)
        assert placement.stats()["pinned_tables"] == 0
        placement.add_backend("db9")
        assert "db9" in placement.hosts("information_schema.columns")

    def test_raidb0_places_each_table_on_one_backend(self):
        placement = create_placement("raidb0", backend_names=NAMES)
        for table in ("t1", "t2", "t3", "t4", "t5"):
            assert len(placement.hosts(table)) == 1
        assert not placement.is_full

    def test_explicit_spec_parsing_and_full_default(self):
        placement = create_placement(
            "explicit:users=db1+db2,orders=db3", backend_names=NAMES
        )
        assert placement.hosts("users") == frozenset({"db1", "db2"})
        assert placement.hosts('Public."Users"') == frozenset({"db1", "db2"})
        assert placement.hosts("orders") == frozenset({"db3"})
        # Unlisted tables keep RAIDb-1 semantics.
        assert placement.hosts("misc") == frozenset(NAMES)

    def test_bad_specs_raise(self):
        for spec in ("hash:x", "explicit:", "explicit:users", "nope"):
            with pytest.raises(DriverError):
                create_placement(spec)
        with pytest.raises(DriverError):
            ExplicitPolicy({"users": []})
        with pytest.raises(DriverError):
            HashSpreadPolicy(replicas=0)

    def test_create_placement_passthrough_and_policy_objects(self):
        existing = PlacementMap(policy=Raidb0Policy(), backend_names=["a"])
        assert create_placement(existing, backend_names=["b"]) is existing
        assert existing.backend_names() == ["a", "b"]
        from_policy = create_placement(HashSpreadPolicy(replicas=3), backend_names=NAMES)
        assert len(from_policy.hosts("t")) == 3
        assert create_placement(None).is_full

    def test_reads_do_not_pin_but_writes_do(self):
        # A SELECT on a misspelled table must not leave a permanent
        # garbage assignment; only writes (which create tables) pin.
        placement = create_placement("raidb0", backend_names=NAMES)
        first = placement.hosts("typo_tbale", pin=False)
        assert placement.stats()["pinned_tables"] == 0
        # Deterministic policy: the unpinned answer matches the pinned one.
        assert placement.hosts("typo_tbale") == first
        assert placement.stats()["pinned_tables"] == 1

    def test_unpin_forgets_dropped_tables(self):
        placement = create_placement("raidb0", backend_names=NAMES)
        placement.hosts("ephemeral")
        assert placement.stats()["pinned_tables"] == 1
        placement.unpin(["Ephemeral"])
        assert placement.stats()["pinned_tables"] == 0

    def test_ensure_colocated_repoints_hash_and_refuses_explicit(self):
        hashed = create_placement("raidb0", backend_names=NAMES)
        users_hosts = hashed.hosts("users")
        hashed.ensure_colocated("orders", ["users"])
        assert hashed.hosts("orders") == users_hosts
        explicit = create_placement(
            "explicit:users=db1,orders=db1+db2", backend_names=NAMES
        )
        with pytest.raises(NoHostingBackendError):
            explicit.ensure_colocated("orders", ["users"])
        # A subset is refused too: db2 would accept the DELETE of a
        # referenced user that db1 refuses.
        subset = create_placement("explicit:users=db1+db2,orders=db1", backend_names=NAMES)
        with pytest.raises(NoHostingBackendError):
            subset.ensure_colocated("orders", ["users"])
        # A consistent explicit assignment passes.
        ok = create_placement("explicit:users=db1+db2,orders=db1+db2", backend_names=NAMES)
        ok.ensure_colocated("orders", ["users"])
        assert ok.hosts("orders") == frozenset({"db1", "db2"})

    def test_ensure_colocated_refuses_targets_on_different_hosts(self):
        # No host set of the new table equals both targets' hosts.
        placement = create_placement("explicit:users=db1,items=db2", backend_names=NAMES)
        with pytest.raises(NoHostingBackendError):
            placement.ensure_colocated("orders", ["users", "items"])
        # A self-reference is no constraint.
        hashed = create_placement("raidb0", backend_names=NAMES)
        hashed.ensure_colocated("tree", ["tree"])
        assert hashed.stats()["pinned_tables"] == 0

    def test_a_colocation_made_before_its_targets_pin_holds_after_they_pin(self):
        """Under hash:2 with one backend nothing pins; once the ring is big
        enough, ``orders`` pins where ``users`` pins, whichever is asked first."""
        for first in ("users", "orders"):
            placement = create_placement("hash:2", backend_names=["db1"])
            placement.ensure_colocated("orders", ["users"])
            assert placement.hosts("orders") == placement.hosts("users") == frozenset({"db1"})
            for name in ("db2", "db3", "db4"):
                placement.add_backend(name)
            placement.hosts(first)
            assert placement.hosts("orders") == placement.hosts("users")
            assert placement.stats()["pinned_tables"] == 2

    def test_assign_pins_and_unpins_fullness(self):
        placement = PlacementMap(backend_names=NAMES)
        assert placement.is_full
        placement.assign("users", ["db1"])
        assert not placement.is_full
        assert placement.hosts("users") == frozenset({"db1"})
        assert placement.tables_hosted_by("db1") == frozenset({"users"})
        stats = placement.stats()
        assert stats["pinned_tables"] == 1
        assert stats["tables"]["users"] == ["db1"]
        assert stats["tables_per_backend"]["db1"] == 1


class TestLoadBalancerCandidates:
    def test_policies_choose_among_the_candidates(self):
        backends = [_backend(f"b{i}") for i in range(4)]
        allowed = {"b1", "b3"}
        hosts = [backend for backend in backends if backend.name in allowed]
        for policy in (RoundRobinPolicy(), LeastPendingPolicy(), WeightedPolicy()):
            chosen = {policy.choose(hosts).name for _ in range(8)}
            assert chosen == allowed

    def test_a_read_with_no_enabled_host_raises_before_any_policy_runs(self):
        backends = [_backend(name) for name in NAMES[:2]]
        asked = []

        class Recording(RoundRobinPolicy):
            def choose(self, candidates):
                asked.append(candidates)
                return super().choose(candidates)

        scheduler = _scheduler(backends, placement="explicit:users=db2", read_policy=Recording())
        backends[1].mark_failed()
        with pytest.raises(DriverError):
            scheduler.execute("SELECT * FROM users")
        assert asked == []
        scheduler.close()

    def test_round_robin_fair_under_interleaved_candidate_sets(self):
        # A shared cursor would alias: strict 1:1 interleave of a
        # 2-candidate and a 3-candidate read stream left the 2-candidate
        # stream always on an even cursor — one host starved.
        backends = [_backend(name) for name in ("a", "b", "c")]
        policy = RoundRobinPolicy()
        pair_counts = {"a": 0, "b": 0}
        for _ in range(10):
            pair_counts[policy.choose(backends[:2]).name] += 1
            policy.choose(backends)
        assert pair_counts == {"a": 5, "b": 5}


def _scheduler(backends, placement=None, **kwargs):
    return RequestScheduler(
        backends,
        RecoveryLog(),
        placement=create_placement(placement) if placement is not None else None,
        **kwargs,
    )


class TestSchedulerPlacementRouting:
    def test_reads_route_only_to_hosting_backends(self):
        backends = [_backend(name) for name in NAMES]
        scheduler = _scheduler(backends, placement="explicit:users=db1+db2")
        for _ in range(6):
            scheduler.execute("SELECT * FROM users")
        assert backends[0].statements_executed + backends[1].statements_executed == 6
        assert backends[2].statements_executed == backends[3].statements_executed == 0
        scheduler.close()

    def test_cross_partition_join_falls_back_to_full_replica(self):
        backends = [_backend(name) for name in NAMES[:3]]
        # db3 hosts everything (it is in both tables' host sets).
        scheduler = _scheduler(
            backends, placement="explicit:users=db1+db3,orders=db2+db3"
        )
        for _ in range(4):
            scheduler.execute("SELECT * FROM users JOIN orders ON 1 = 1")
        assert backends[2].statements_executed == 4
        scheduler.close()

    def test_no_hosting_backend_raises_clear_error(self):
        backends = [_backend(name) for name in NAMES[:2]]
        scheduler = _scheduler(
            backends, placement="explicit:users=db1,orders=db2"
        )
        with pytest.raises(NoHostingBackendError) as excinfo:
            scheduler.execute("SELECT * FROM users JOIN orders ON 1 = 1")
        assert "full replica" in str(excinfo.value)
        scheduler.close()

    def test_writes_fan_out_to_hosting_subset_only(self):
        backends = [_backend(name) for name in NAMES]
        scheduler = _scheduler(backends, placement="explicit:users=db1+db2")
        scheduler.execute("INSERT INTO users (id) VALUES (1)")
        assert backends[0].statements_executed == 1
        assert backends[1].statements_executed == 1
        assert backends[2].statements_executed == 0
        assert backends[3].statements_executed == 0
        # The write is still logged for resync.
        assert scheduler.stats()["recovery_log_entries"] == 1
        scheduler.close()

    def test_write_with_all_hosts_down_raises_not_misroutes(self):
        backends = [_backend(name) for name in NAMES[:2]]
        scheduler = _scheduler(backends, placement="explicit:users=db2")
        backends[1].mark_failed()
        with pytest.raises(NoHostingBackendError):
            scheduler.execute("INSERT INTO users (id) VALUES (1)")
        # The other backend was never touched and stays healthy.
        assert backends[0].statements_executed == 0
        assert backends[0].enabled
        scheduler.close()

    def test_write_surviving_on_remaining_host(self):
        backends = [_backend(name) for name in NAMES[:3]]
        scheduler = _scheduler(backends, placement="explicit:users=db1+db2")
        backends[0].mark_failed()
        columns, rows, rowcount = scheduler.execute("INSERT INTO users (id) VALUES (1)")
        assert rowcount == 1
        assert backends[1].statements_executed == 1
        scheduler.close()

    def test_divergence_check_compares_only_hosting_replicas(self):
        from repro.dbapi.exceptions import IntegrityError

        backends = [_backend(name) for name in NAMES[:3]]
        scheduler = _scheduler(backends, placement="explicit:users=db1+db2")
        # Both hosting replicas reject the statement: the statement is at
        # fault, nobody diverged — even though db3 (not hosting) would
        # have "accepted" it had it wrongly been included.
        backends[0].test_connection.fail_with = IntegrityError("duplicate")
        backends[1].test_connection.fail_with = IntegrityError("duplicate")
        with pytest.raises(SchedulerError):
            scheduler.execute("INSERT INTO users (id) VALUES (1)")
        assert backends[0].enabled and backends[1].enabled
        assert backends[2].statements_executed == 0
        scheduler.close()

    def test_transaction_control_reaches_only_the_transactions_replicas(self):
        backends = [_backend(name) for name in NAMES[:3]]
        log = RecoveryLog()
        scheduler = RequestScheduler(
            backends, log, placement=create_placement("explicit:users=db1")
        )
        scheduler.execute("BEGIN")
        scheduler.execute("INSERT INTO users (id) VALUES (1)")
        scheduler.execute("COMMIT")
        # The write went to db1 alone, so the transaction's BEGIN and
        # COMMIT did too: the others hold nothing of it.
        assert [sql for sql, _ in backends[0].test_connection.executed if "information_schema" not in sql] == [
            "BEGIN",
            "INSERT INTO users (id) VALUES (1)",
            "COMMIT",
        ]
        assert backends[1].statements_executed == 0
        assert backends[2].statements_executed == 0
        # Committed write reached the log.
        assert log.last_index == 1
        scheduler.close()

    def test_unknown_statement_bypasses_placement_and_flushes_cache(self):
        # Satellite regression: a statement the tokenizer cannot parse has
        # an unknown (empty) table set — it must broadcast to every
        # enabled backend (not a placement subset) and flush the whole
        # query cache, exactly as under RAIDb-1.
        backends = [_backend(name) for name in NAMES[:3]]
        cache = QueryCache()
        scheduler = _scheduler(
            backends, placement="explicit:users=db1", query_cache=cache
        )
        scheduler.execute("SELECT * FROM users")
        scheduler.execute("SELECT * FROM other")
        assert len(cache) == 2
        statement = classify("VACUUM %% not-sql @!")
        assert statement.write_tables == frozenset()
        before = [backend.statements_executed for backend in backends]
        scheduler.execute("VACUUM %% not-sql @!")
        after = [backend.statements_executed for backend in backends]
        assert [b - a for a, b in zip(before, after)] == [1, 1, 1]
        assert len(cache) == 0
        scheduler.close()

    def test_unknown_read_bypasses_placement(self):
        backends = [_backend(name) for name in NAMES[:2]]
        scheduler = _scheduler(backends, placement="explicit:users=db1")
        # No table set (SELECT 1): any enabled backend may serve it.
        for _ in range(4):
            scheduler.execute("SELECT 1")
        assert backends[0].statements_executed + backends[1].statements_executed == 4
        assert backends[1].statements_executed > 0
        scheduler.close()

    def test_non_colocated_write_read_pair_raises(self):
        backends = [_backend(name) for name in NAMES[:2]]
        scheduler = _scheduler(
            backends, placement="explicit:archive=db1,live=db2"
        )
        with pytest.raises(NoHostingBackendError) as excinfo:
            scheduler.execute("INSERT INTO archive (id) SELECT id FROM live")
        assert "colocate" in str(excinfo.value)
        scheduler.close()

    def test_read_typos_do_not_grow_placement_stats(self):
        backends = [_backend(name) for name in NAMES[:2]]
        scheduler = _scheduler(backends, placement="raidb0")
        for i in range(5):
            scheduler.execute(f"SELECT * FROM not_a_table_{i}")
        assert scheduler.stats()["placement"]["pinned_tables"] == 0
        scheduler.close()

    def test_drop_unpins_the_table(self):
        backends = [_backend(name) for name in NAMES[:2]]
        scheduler = _scheduler(backends, placement="raidb0")
        scheduler.execute("CREATE TABLE churn (id INTEGER PRIMARY KEY)")
        assert scheduler.stats()["placement"]["pinned_tables"] == 1
        scheduler.execute("DROP TABLE churn")
        assert scheduler.stats()["placement"]["pinned_tables"] == 0
        scheduler.close()

    def test_create_with_references_colocates_under_hash(self):
        backends = [_backend(name) for name in NAMES]
        scheduler = _scheduler(backends, placement="hash:2")
        scheduler.execute("CREATE TABLE users (id INTEGER PRIMARY KEY)")
        scheduler.execute(
            "CREATE TABLE orders (id INTEGER PRIMARY KEY, "
            "uid INTEGER REFERENCES users(id))"
        )
        placement = scheduler.placement
        assert placement.hosts("orders") == placement.hosts("users")
        scheduler.close()

    def test_create_with_references_refuses_conflicting_explicit_placement(self):
        backends = [_backend(name) for name in NAMES[:3]]
        scheduler = _scheduler(
            backends, placement="explicit:users=db1,orders=db1+db2"
        )
        scheduler.execute("CREATE TABLE users (id INTEGER PRIMARY KEY)")
        # db2 would host orders without users: every insert's FK check
        # would fail there and read as divergence — refuse at DDL time.
        with pytest.raises(NoHostingBackendError) as excinfo:
            scheduler.execute(
                "CREATE TABLE orders (id INTEGER PRIMARY KEY, "
                "uid INTEGER REFERENCES users(id))"
            )
        assert "colocate" in str(excinfo.value)
        scheduler.close()

    def test_create_with_references_refuses_a_subset_of_the_targets_hosts(self):
        backends = [_backend(name) for name in NAMES[:3]]
        scheduler = _scheduler(
            backends, placement="explicit:users=db1+db2,orders=db1"
        )
        scheduler.execute("CREATE TABLE users (id INTEGER PRIMARY KEY)")
        # db1 would refuse `DELETE FROM users WHERE id = 1` while an
        # order references user 1, and db2, without orders, would accept
        # it: a healthy replica would read as divergent.
        with pytest.raises(NoHostingBackendError):
            scheduler.execute(
                "CREATE TABLE orders (id INTEGER PRIMARY KEY, "
                "uid INTEGER REFERENCES users(id))"
            )
        scheduler.close()

    def test_full_default_keeps_existing_semantics_and_stats(self):
        backends = [_backend(name) for name in NAMES[:2]]
        scheduler = _scheduler(backends)
        scheduler.execute("INSERT INTO t (id) VALUES (1)")
        assert all(backend.statements_executed == 1 for backend in backends)
        stats = scheduler.stats()
        assert stats["placement"]["full"] is True
        assert stats["placement"]["mode"] == "full"
        assert stats["placement"]["pinned_tables"] == 0
        scheduler.close()

    def test_set_placement_swaps_map_and_flushes_cache(self):
        backends = [_backend(name) for name in NAMES[:2]]
        cache = QueryCache()
        scheduler = _scheduler(backends, query_cache=cache)
        scheduler.execute("SELECT * FROM users")
        assert len(cache) == 1
        new_map = scheduler.set_placement("explicit:users=db1")
        assert scheduler.placement is new_map
        assert len(cache) == 0
        before = backends[1].statements_executed
        for _ in range(3):
            scheduler.execute("SELECT * FROM users")
        # Every post-swap read routed to db1 (the sole host), none to db2.
        assert backends[1].statements_executed == before
        scheduler.close()


class TestFilteredResync:
    def test_resync_skips_foreign_tables_but_advances_checkpoint(self):
        backends = [_backend(name) for name in NAMES[:2]]
        log = RecoveryLog()
        scheduler = RequestScheduler(
            backends, log, placement=create_placement("explicit:users=db1,orders=db1+db2")
        )
        scheduler.checkpoint_and_disable(backends[1])
        scheduler.execute("INSERT INTO users (id) VALUES (1)")
        scheduler.execute("INSERT INTO orders (id) VALUES (1)")
        scheduler.execute("INSERT INTO users (id) VALUES (2)")
        replayed = scheduler.resync_and_enable(backends[1])
        # db2 hosts only orders: one of the three logged writes applies.
        assert replayed == 1
        assert backends[1].enabled
        # The checkpoint still advanced past the skipped entries.
        assert backends[1].checkpoint_index == log.last_index == 3
        executed = backends[1].test_connection.executed
        assert [sql for sql, _ in executed] == ["INSERT INTO orders (id) VALUES (1)"]
        scheduler.close()

    def test_unknown_table_entries_replay_everywhere(self):
        backends = [_backend(name) for name in NAMES[:2]]
        log = RecoveryLog()
        scheduler = RequestScheduler(
            backends, log, placement=create_placement("explicit:users=db1")
        )
        scheduler.checkpoint_and_disable(backends[1])
        scheduler.execute("VACUUM %% not-sql @!")
        replayed = scheduler.resync_and_enable(backends[1])
        assert replayed == 1
        scheduler.close()


class TestRecoveryLogShimRemoved:
    def test_shim_is_gone(self):
        """The deprecated ``repro.cluster.recovery_log`` import path has
        been removed after its deprecation period; the canonical package
        is ``repro.cluster.recovery``."""
        sys.modules.pop("repro.cluster.recovery_log", None)
        with pytest.raises(ImportError):
            importlib.import_module("repro.cluster.recovery_log")
        module = importlib.import_module("repro.cluster.recovery")
        assert module.RecoveryLog is RecoveryLog


class TestClusterIntegration:
    """Placement through a real cluster (engines + controllers)."""

    def _build(self, placement, replicas=4):
        from repro.experiments.environments import build_cluster

        return build_cluster(
            replicas=replicas,
            controllers=1,
            controller_options={"placement": placement},
        )

    def test_partial_replica_cold_start_converges(self):
        from repro.experiments.partial_replication import cluster_checksums

        env = self._build("hash:2")
        try:
            controller = env.controllers[0]
            scheduler = controller.scheduler
            for i in range(6):
                scheduler.execute(
                    f"CREATE TABLE t{i} (id INTEGER NOT NULL PRIMARY KEY, v INTEGER)"
                )
                scheduler.execute(f"INSERT INTO t{i} (id, v) VALUES (1, 0)")
            placement = controller.placement
            hosted = placement.tables_hosted_by("db1")
            assert hosted and len(hosted) < 6
            controller.disable_backend("db1")
            for i in range(6):
                scheduler.execute(f"UPDATE t{i} SET v = 9 WHERE id = 1")
            controller.recovery_log.release_checkpoint("backend:db1")
            assert controller.compact_recovery_log() > 0
            replayed = controller.enable_backend("db1")
            assert replayed == 0  # dump cold start, tail already empty
            assert scheduler.cold_starts == 1
            checksums = cluster_checksums(env)
            # Every copy of every table is identical across its hosts…
            assert all(len(set(copies.values())) == 1 for copies in checksums.values())
            # …each table lives exactly where the placement says…
            for table, copies in checksums.items():
                assert set(copies) == set(placement.hosts(table))
            # …and db1 holds only its hosted subset.
            db1_tables = {t for t, copies in checksums.items() if "db1" in copies}
            assert db1_tables == hosted
        finally:
            env.close()

    def test_dump_database_table_subset(self):
        env = self._build("full", replicas=2)
        try:
            controller = env.controllers[0]
            scheduler = controller.scheduler
            scheduler.execute("CREATE TABLE keep (id INTEGER PRIMARY KEY)")
            scheduler.execute("CREATE TABLE skip (id INTEGER PRIMARY KEY)")
            scheduler.execute("INSERT INTO keep (id) VALUES (1)")
            dump = controller.dump_database(tables=["Keep"])
            assert [table.name for table in dump.tables] == ["keep"]
            assert dump.row_count == 1
        finally:
            env.close()

    def test_controller_stats_and_set_placement(self):
        env = self._build(None, replicas=2)
        try:
            controller = env.controllers[0]
            stats = controller.stats()
            assert stats["placement"]["full"] is True
            new_stats = controller.set_placement("raidb0")
            assert new_stats["mode"] == "raidb0"
            assert controller.stats()["placement"]["full"] is False
            controller.scheduler.execute("CREATE TABLE solo (id INTEGER PRIMARY KEY)")
            assert len(controller.placement.hosts("solo")) == 1
        finally:
            env.close()

    def test_catalog_reads_work_under_raidb0_with_a_backend_down(self):
        env = self._build("raidb0", replicas=3)
        try:
            controller = env.controllers[0]
            scheduler = controller.scheduler
            scheduler.execute("CREATE TABLE anything (id INTEGER PRIMARY KEY)")
            # A catalog read must never be pinned to one partition…
            scheduler.execute("SELECT table_name, table_schema FROM information_schema.tables")
            controller.disable_backend("db1")
            controller.disable_backend("db2")
            # …so it keeps working with only one backend left (a pinned
            # catalog would raise NoHostingBackendError here). The rows
            # reflect that partition's own catalog, of course.
            columns, rows, rowcount = scheduler.execute(
                "SELECT table_name, table_schema FROM information_schema.tables"
            )
            assert columns == ["table_name", "table_schema"]
        finally:
            env.close()

    def test_sole_host_cold_start_preserves_its_only_copy(self):
        # Regression: a raidb0 backend is the *only* host of its tables.
        # A dump-based cold start (forced by compaction) assembles the
        # dump from siblings — which never had those tables — and must
        # not wipe the local, authoritative copy.
        env = self._build("raidb0", replicas=3)
        try:
            controller = env.controllers[0]
            scheduler = controller.scheduler
            tables = [f"solo{i}" for i in range(4)]
            for table in tables:
                scheduler.execute(f"CREATE TABLE {table} (id INTEGER PRIMARY KEY)")
                scheduler.execute(f"INSERT INTO {table} (id) VALUES (7)")
            placement = controller.placement
            victim = "db2"
            victim_tables = placement.tables_hosted_by(victim)
            assert victim_tables
            controller.disable_backend(victim)
            # Writes land on the other partitions while the victim is out.
            for table in tables:
                if victim not in placement.hosts(table):
                    scheduler.execute(f"INSERT INTO {table} (id) VALUES (8)")
            controller.recovery_log.release_checkpoint(f"backend:{victim}")
            controller.compact_recovery_log()
            controller.enable_backend(victim)  # dump-based cold start
            assert scheduler.cold_starts == 1
            # The victim's solely-hosted tables survived with their rows.
            for table in victim_tables:
                columns, rows, rowcount = scheduler.execute(f"SELECT * FROM {table}")
                assert rows == [(7,)]
        finally:
            env.close()

    def test_cohosted_table_with_all_other_hosts_down_refuses_cold_start(self):
        # Regression: t is hosted by {db1, db2}. db1 goes down, writes to
        # t land on db2 (logged), then db2 dies too and the log is
        # compacted. Cold-starting db1 must refuse — preserving db1's
        # copy would silently lose db2's committed writes, wiping it
        # would lose the table — instead of coming up stale.
        env = self._build("explicit:shared=db1+db2", replicas=3)
        try:
            controller = env.controllers[0]
            scheduler = controller.scheduler
            scheduler.execute("CREATE TABLE shared (id INTEGER PRIMARY KEY)")
            scheduler.execute("CREATE TABLE common (id INTEGER PRIMARY KEY)")
            controller.disable_backend("db1")
            scheduler.execute("INSERT INTO shared (id) VALUES (1)")  # lands on db2 only
            controller.disable_backend("db2")
            controller.recovery_log.release_checkpoint("backend:db1")
            controller.recovery_log.release_checkpoint("backend:db2")
            controller.compact_recovery_log()
            with pytest.raises(SchedulerError) as excinfo:
                controller.enable_backend("db1")
            assert "shared" in str(excinfo.value)
            # Recovering db2 first (it has the data) unblocks db1.
            controller.enable_backend("db2")
            controller.enable_backend("db1")
            columns, rows, rowcount = scheduler.execute("SELECT * FROM shared")
            assert rows == [(1,)]
        finally:
            env.close()

    def test_quote_requiring_table_names_survive_dump_and_cold_start(self):
        # Regression: quoted identifiers made space-named tables
        # creatable; the dumper must re-emit them quoted or every
        # wipe/dump/restore in the cluster breaks.
        env = self._build("full", replicas=2)
        try:
            controller = env.controllers[0]
            scheduler = controller.scheduler
            scheduler.execute('CREATE TABLE "Order Lines" (id INTEGER PRIMARY KEY)')
            scheduler.execute('INSERT INTO "Order Lines" (id) VALUES (1)')
            controller.disable_backend("db1")
            scheduler.execute('INSERT INTO "Order Lines" (id) VALUES (2)')
            controller.recovery_log.release_checkpoint("backend:db1")
            controller.compact_recovery_log()
            controller.enable_backend("db1")  # dump-based cold start
            assert scheduler.cold_starts == 1
            columns, rows, rowcount = scheduler.execute('SELECT * FROM "Order Lines"')
            assert sorted(rows) == [(1,), (2,)]
        finally:
            env.close()

    def test_cold_start_restores_from_old_host_after_placement_change(self):
        # Regression: after set_placement moves a table's hosts, the dump
        # source must be chosen by who *has* the data, not by placement
        # membership alone (the new host's catalog is empty).
        env = self._build("explicit:moved=db1", replicas=3)
        try:
            controller = env.controllers[0]
            scheduler = controller.scheduler
            scheduler.execute("CREATE TABLE moved (id INTEGER PRIMARY KEY)")
            scheduler.execute("INSERT INTO moved (id) VALUES (1)")
            # Re-home the table onto db2+db3, then cold-start db2 (the
            # documented remedy after a placement change). Writes logged
            # after the disable + compaction push the floor past db2's
            # checkpoint, forcing the dump-based path.
            controller.set_placement("explicit:moved=db2+db3")
            controller.disable_backend("db2")
            scheduler.execute("CREATE TABLE filler (id INTEGER PRIMARY KEY)")
            scheduler.execute("INSERT INTO filler (id) VALUES (1)")
            controller.recovery_log.release_checkpoint("backend:db2")
            controller.compact_recovery_log()
            controller.enable_backend("db2")
            assert scheduler.cold_starts == 1
            session = env.replica_engines[1].open_session(env.database_name)
            assert session.execute("SELECT * FROM moved").rows == [(1,)]
        finally:
            env.close()

    def test_failed_provision_does_not_leave_ghost_in_placement(self):
        # Regression: a backend whose bootstrap fails must be evicted
        # from the placement universe, or the policy could pin future
        # tables to a ghost and every statement on them would raise
        # NoHostingBackendError forever.
        env = self._build("raidb0", replicas=2)
        try:
            controller = env.controllers[0]
            scheduler = controller.scheduler
            scheduler.execute("CREATE TABLE pre (id INTEGER PRIMARY KEY)")
            doomed = env.new_replica()  # db3
            env.network.kill_endpoint(env.replica_addresses[-1])
            with pytest.raises(Exception):
                controller.provision_backend(doomed)
            assert doomed.name not in controller.placement.backend_names()
            # New tables pin onto live backends only, and statements work.
            for i in range(4):
                scheduler.execute(f"CREATE TABLE post{i} (id INTEGER PRIMARY KEY)")
                scheduler.execute(f"INSERT INTO post{i} (id) VALUES (1)")
                hosts = controller.placement.hosts(f"post{i}")
                assert doomed.name not in hosts
        finally:
            env.close()

    def test_provision_backend_cold_starts_partial_replica(self):
        env = self._build("explicit:users=db1", replicas=2)
        try:
            controller = env.controllers[0]
            scheduler = controller.scheduler
            scheduler.execute("CREATE TABLE users (id INTEGER PRIMARY KEY)")
            scheduler.execute("CREATE TABLE misc (id INTEGER PRIMARY KEY)")
            scheduler.execute("INSERT INTO users (id) VALUES (1)")
            scheduler.execute("INSERT INTO misc (id) VALUES (1)")
            newcomer = env.new_replica()  # becomes db3
            controller.provision_backend(newcomer)
            assert newcomer.enabled
            session = env.replica_engines[-1].open_session(env.database_name)
            tables = {
                str(name)
                for name, schema in session.execute(
                    "SELECT table_name, table_schema FROM information_schema.tables"
                ).rows
                if schema != "information_schema"
            }
            # The fully replicated table came over; the partial one —
            # pinned to db1 before the newcomer existed — did not.
            assert tables == {"misc"}
            assert session.execute("SELECT * FROM misc").rows == [(1,)]
            # New writes to the replicated table reach the newcomer too.
            scheduler.execute("INSERT INTO misc (id) VALUES (2)")
            assert len(session.execute("SELECT * FROM misc").rows) == 2
        finally:
            env.close()

    def test_raidb0_loses_only_the_dead_backends_tables(self):
        env = self._build("raidb0", replicas=3)
        try:
            controller = env.controllers[0]
            scheduler = controller.scheduler
            tables = [f"part{i}" for i in range(6)]
            for table in tables:
                scheduler.execute(f"CREATE TABLE {table} (id INTEGER PRIMARY KEY)")
                scheduler.execute(f"INSERT INTO {table} (id) VALUES (1)")
            placement = controller.placement
            victim_tables = placement.tables_hosted_by("db2")
            assert victim_tables
            controller.disable_backend("db2")
            for table in tables:
                if table in victim_tables:
                    with pytest.raises(Exception):
                        scheduler.execute(f"SELECT * FROM {table}")
                else:
                    columns, rows, rowcount = scheduler.execute(f"SELECT * FROM {table}")
                    assert rows == [(1,)]
        finally:
            env.close()
