"""The read path: a read, in a transaction or not, runs on one replica,
and a connection fault on that replica fails it and moves the read on.

Every test runs a real cluster (``build_cluster``: pydb replicas on the
in-memory network) and drives ``RequestScheduler.execute`` the way the
controller's session loop does, or a client driver through the
controller where the reply frame matters."""

import threading

import pytest

from repro.cluster.backend import BackendState
from repro.cluster.driver import ClusterDriverRuntime
from repro.cluster.placement import NoHostingBackendError
from repro.dbapi import OperationalError, ProgrammingError
from repro.experiments.environments import build_cluster

SESSION = "s1"


@pytest.fixture
def make_env():
    envs = []

    def make(**controller_options):
        env = build_cluster(replicas=2, controllers=1, controller_options=controller_options)
        envs.append(env)
        scheduler = env.controllers[0].scheduler
        scheduler.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        scheduler.execute("INSERT INTO t (id, v) VALUES (1, 10)")
        return env

    yield make
    for env in envs:
        env.close()


def _executed(env):
    return {backend.name: backend.statements_executed for backend in env.controllers[0].backends()}


def _states(env):
    return {backend.name: backend.state for backend in env.controllers[0].backends()}


def _tx(scheduler, sql, params=None):
    """One statement of the session holding the transaction."""
    return scheduler.execute(sql, params, in_transaction=True, session_id=SESSION)


def _replica_value(env, index):
    backend = env.controllers[0].backends()[index]
    return backend.execute("SELECT v FROM t WHERE id = 1", track=False)[1]


class TestInTransactionReadRunsOnOneReplica:
    def test_it_bypasses_the_cache_and_alternates_under_round_robin(self, make_env):
        env = make_env(query_cache_enabled=True)
        scheduler = env.controllers[0].scheduler
        cache = scheduler.query_cache
        scheduler.execute("BEGIN", session_id=SESSION)
        before, lookups = _executed(env), (cache.stats()["hits"], cache.stats()["misses"])
        served = []
        for _ in range(2):
            _tx(scheduler, "SELECT v FROM t WHERE id = 1")
            after = _executed(env)
            (name,) = [name for name in after if after[name] != before[name]]
            # The read, and the BEGIN its replica's first request carries.
            assert after[name] == before[name] + 2
            served.append(name)
            before = after
        assert sorted(served) == ["db1", "db2"]
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == lookups and stats["entries"] == 0
        _tx(scheduler, "COMMIT")

    def test_it_sees_its_own_uncommitted_update(self, make_env):
        env = make_env()
        scheduler = env.controllers[0].scheduler
        scheduler.execute("BEGIN", session_id=SESSION)
        _tx(scheduler, "UPDATE t SET v = 11 WHERE id = 1")
        # Two reads: round robin puts one on each replica.
        for _ in range(2):
            assert _tx(scheduler, "SELECT v FROM t WHERE id = 1")[1] == [(11,)]
        _tx(scheduler, "ROLLBACK")
        assert scheduler.execute("SELECT v FROM t WHERE id = 1")[1] == [(10,)]

    def test_a_transaction_costs_seven_replica_statements_on_two_replicas(self, make_env):
        # BEGIN, UPDATE and COMMIT reach both replicas; the SELECT one.
        env = make_env()
        scheduler = env.controllers[0].scheduler
        before = sum(_executed(env).values())
        scheduler.execute("BEGIN", session_id=SESSION)
        _tx(scheduler, "SELECT v FROM t WHERE id = 1")
        _tx(scheduler, "UPDATE t SET v = 12 WHERE id = 1")
        _tx(scheduler, "COMMIT")
        assert sum(_executed(env).values()) - before == 7

    def test_under_explicit_placement_it_runs_on_a_host_of_all_its_tables(self, make_env):
        env = make_env(placement="explicit:only1=db1,only2=db2")
        scheduler = env.controllers[0].scheduler
        scheduler.execute("CREATE TABLE only1 (id INTEGER PRIMARY KEY)")
        scheduler.execute("CREATE TABLE only2 (id INTEGER PRIMARY KEY)")
        scheduler.execute("BEGIN", session_id=SESSION)
        # The first read also carries db1's BEGIN; db2 is never reached.
        for expected in (2, 1, 1):
            before = _executed(env)
            _tx(scheduler, "SELECT COUNT(*) FROM only1")
            after = _executed(env)
            assert (after["db1"] - before["db1"], after["db2"] - before["db2"]) == (expected, 0)
        with pytest.raises(NoHostingBackendError):
            _tx(scheduler, "SELECT COUNT(*) FROM only1 JOIN only2 ON only1.id = only2.id")
        _tx(scheduler, "COMMIT")

    def test_its_replica_dropping_mid_transaction_fails_it_and_the_other_answers(self, make_env):
        env = make_env()
        controller = env.controllers[0]
        scheduler = controller.scheduler
        scheduler.execute("BEGIN", session_id=SESSION)
        _tx(scheduler, "UPDATE t SET v = 13 WHERE id = 1")
        env.network.kill_endpoint(env.replica_addresses[1])
        # Round robin sends one of two reads to db2 (or the first fault
        # moves the first read to db1): both are answered by db1.
        for _ in range(2):
            assert _tx(scheduler, "SELECT v FROM t WHERE id = 1")[1] == [(13,)]
        assert _states(env) == {"db1": BackendState.ENABLED, "db2": BackendState.FAILED}
        # db1 still holds the transaction, so the record stays open.
        assert scheduler.in_transaction(SESSION)
        log = controller.recovery_log
        last = log.last_index
        _tx(scheduler, "COMMIT")
        assert not scheduler.in_transaction(SESSION)
        assert [entry.sql for entry in log.entries_after(last)] == [
            "UPDATE t SET v = 13 WHERE id = 1"
        ]
        env.network.revive_endpoint(env.replica_addresses[1])
        assert controller.failure_detector.check()["resynced"] == ["db2"]
        assert _states(env)["db2"] is BackendState.ENABLED
        assert _replica_value(env, 1) == [(13,)]


class TestTheReadFaultRule:
    def test_a_statement_fault_is_raised_at_once_and_fails_no_replica(self, make_env, monkeypatch):
        env = make_env()
        scheduler = env.controllers[0].scheduler
        asked = []
        for backend in env.controllers[0].backends():

            def execute(sql, params=None, track=True, lease=None, name=backend.name, run=backend.execute):
                asked.append(name)
                return run(sql, params, track, lease)

            monkeypatch.setattr(backend, "execute", execute)
        for in_transaction in (False, True):
            with pytest.raises(ProgrammingError):
                scheduler.execute("SELECT nope FROM t", in_transaction=in_transaction)
        assert all(state is BackendState.ENABLED for state in _states(env).values())
        # One replica was asked each time, never a second.
        assert len(asked) == 2

    def test_with_no_candidate_left_the_last_fault_is_raised(self, make_env):
        env = make_env()
        scheduler = env.controllers[0].scheduler
        scheduler.execute("BEGIN", session_id=SESSION)
        for address in env.replica_addresses:
            env.network.kill_endpoint(address)
        with pytest.raises(OperationalError):
            _tx(scheduler, "SELECT v FROM t WHERE id = 1")
        assert all(state is BackendState.FAILED for state in _states(env).values())
        # No replica holds the transaction any more: the record settled
        # closed, so no later round has to notice.
        assert scheduler.open_transactions == 0
        for address in env.replica_addresses:
            env.network.revive_endpoint(address)


class TestAReadSurvivesItsReplicasDeath:
    def test_every_read_is_answered_and_the_detector_brings_the_replica_back(self, make_env):
        # No heartbeat thread runs: the read path itself must notice.
        env = make_env()
        controller = env.controllers[0]
        connection = ClusterDriverRuntime().connect(env.client_url(), network=env.network)
        try:
            cursor = connection.cursor()
            env.network.kill_endpoint(env.replica_addresses[1])
            for _ in range(6):
                cursor.execute("SELECT v FROM t WHERE id = 1")
                assert cursor.fetchall() == [(10,)]
            assert _states(env) == {"db1": BackendState.ENABLED, "db2": BackendState.FAILED}
            cursor.execute("UPDATE t SET v = 14 WHERE id = 1")
        finally:
            connection.close()
        env.network.revive_endpoint(env.replica_addresses[1])
        assert controller.failure_detector.check()["resynced"] == ["db2"]
        assert _states(env)["db2"] is BackendState.ENABLED
        assert _replica_value(env, 1) == [(14,)]


def _drop_connection(backend, monkeypatch, before=lambda: None):
    """Make ``backend``'s next statements fail as a dropped connection
    does, after running ``before``."""

    def execute(sql, params=None, track=True, lease=None):
        before()
        raise OperationalError(f"connection to {backend.name} lost")

    monkeypatch.setattr(backend, "execute", execute)


class TestAReadFaultWaitsForTransactionControl:
    """An auto-commit read holds no scope, so the demotion of its
    faulting replica takes the exclusive mode: it never settles a
    transaction's record between that transaction's round and the
    round's own settle."""

    def _read_faulting_during(self, env, monkeypatch, command):
        scheduler = env.controllers[0].scheduler
        db2 = env.controllers[0].backends()[1]
        broadcast = scheduler.broadcaster.broadcast_batch
        reader = {}

        def read():
            reader["rows"] = scheduler.execute("SELECT v FROM t WHERE id = 1")[1]

        def broadcast_batch(targets, statements, **kwargs):
            outcome = broadcast(targets, statements, **kwargs)
            if statements[0][0] == command:
                _drop_connection(db2, monkeypatch)
                reader["thread"] = thread = threading.Thread(target=read)
                thread.start()
                # Long enough for an unguarded demotion to settle first.
                thread.join(0.3)
            return outcome

        monkeypatch.setattr(scheduler.broadcaster, "broadcast_batch", broadcast_batch)
        scheduler.execute(command, session_id=SESSION)
        reader["thread"].join(5)
        assert not reader["thread"].is_alive()
        assert _states(env)["db2"] is BackendState.FAILED
        return reader["rows"]

    def test_a_commit_still_logs_its_buffer(self, make_env, monkeypatch):
        # Weight 0 sends every read to db2 while it is a candidate.
        env = make_env(read_policy="weighted:db1=0,db2=1")
        scheduler = env.controllers[0].scheduler
        log = env.controllers[0].recovery_log
        scheduler.execute("BEGIN", session_id=SESSION)
        _tx(scheduler, "UPDATE t SET v = 15 WHERE id = 1")
        last = log.last_index
        assert self._read_faulting_during(env, monkeypatch, "COMMIT") == [(15,)]
        assert scheduler.open_transactions == 0
        assert [entry.sql for entry in log.entries_after(last)] == [
            "UPDATE t SET v = 15 WHERE id = 1"
        ]

    def test_a_first_statement_still_opens_its_transaction(self, make_env, monkeypatch):
        env = make_env(read_policy="weighted:db1=0,db2=1")
        scheduler = env.controllers[0].scheduler
        scheduler.execute("BEGIN", session_id=SESSION)
        # The statement that carries the BEGIN to both replicas.
        first = "UPDATE t SET v = 0 WHERE id = 2"
        assert self._read_faulting_during(env, monkeypatch, first) == [(10,)]
        # db1 still holds the transaction, and it is the session's.
        assert scheduler.in_transaction(SESSION)
        _tx(scheduler, "ROLLBACK")
        assert scheduler.open_transactions == 0


class TestAReadFaultLeavesOtherStatesAlone:
    def test_an_admin_disable_during_the_read_stands(self, make_env, monkeypatch):
        env = make_env(read_policy="weighted:db1=0,db2=1")
        controller = env.controllers[0]
        db2 = controller.backends()[1]
        # The disable closes the connection the read is using.
        _drop_connection(db2, monkeypatch, before=lambda: controller.disable_backend("db2"))
        assert controller.scheduler.execute("SELECT v FROM t WHERE id = 1")[1] == [(10,)]
        assert db2.state is BackendState.DISABLED and db2.disabled_by == "admin"
        monkeypatch.undo()
        assert controller.failure_detector.check()["resynced"] == []
        assert db2.state is BackendState.DISABLED

    def test_an_ha_follower_skips_a_dead_replica_without_failing_it(self):
        env = build_cluster(replicas=2, controllers=2, ha=True)
        try:
            primary, follower = env.controllers
            assert primary.ha_store.is_primary and not follower.ha_store.is_primary
            primary.scheduler.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            primary.scheduler.execute("INSERT INTO t (id, v) VALUES (1, 10)")
            env.network.kill_endpoint(env.replica_addresses[1])
            # Round robin sends one of two reads to db2: db1 answers both.
            for _ in range(2):
                assert follower.scheduler.execute("SELECT v FROM t WHERE id = 1")[1] == [(10,)]
            # The primary owns the replicas' states; the follower's view
            # of db2 is unchanged.
            assert all(backend.enabled for backend in follower.backends())
            assert all(backend.enabled for backend in primary.backends())
            env.network.revive_endpoint(env.replica_addresses[1])
        finally:
            env.close()
