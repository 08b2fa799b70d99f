"""A transaction belongs to its session: each runs on replica
connections checked out for it, its writes hold their lock scopes until
it ends (strict two-phase locking), its COMMIT puts its writes in the
recovery log, and wait-die on BEGIN order breaks a deadlock between two
of them — over dedicated and multiplexed client sessions alike."""

import threading

import pytest

import chaos
from repro.cluster.driver import ClusterDriverRuntime
from repro.dbapi import ProgrammingError
from repro.errors import DriverError
from repro.experiments.environments import build_cluster

KINDS = ("dedicated", "multiplexed")


@pytest.fixture
def cluster():
    env = build_cluster(replicas=2, controllers=1)
    controller = env.controllers[0]
    controller.scheduler.execute("CREATE TABLE st (id INTEGER PRIMARY KEY, v INTEGER)")
    for key in (1, 2, 3, 4):
        controller.scheduler.execute(f"INSERT INTO st (id, v) VALUES ({key}, 0)")
    yield env, controller
    env.close()


def _connect(env, kind):
    return ClusterDriverRuntime().connect(
        env.client_url(), network=env.network, multiplexing=kind == "multiplexed"
    )


def _replica_rows(env):
    return [
        sorted(engine.open_session(env.database_name).execute("SELECT id, v FROM st").rows)
        for engine in env.replica_engines
    ]


def _keys_held(controller):
    return controller.scheduler.lock_manager.stats()["keys_held"]


@pytest.mark.parametrize("kind", KINDS)
def test_disjoint_transactions_interleave_and_the_log_holds_them_in_commit_order(cluster, kind):
    env, controller = cluster
    a, b = _connect(env, kind), _connect(env, kind)
    last = controller.recovery_log.last_index
    a.begin()
    b.begin()
    a.cursor().execute("UPDATE st SET v = 10 WHERE id = 1")
    b.cursor().execute("UPDATE st SET v = 20 WHERE id = 2")
    a.cursor().execute("UPDATE st SET v = 11 WHERE id = 3")
    assert controller.scheduler.open_transactions == 2
    # Each sees its own writes and holds its own keys.
    cursor = b.cursor()
    cursor.execute("SELECT v FROM st WHERE id = 2")
    assert cursor.fetchall() == [(20,)]
    assert _keys_held(controller) == 3
    b.commit()
    a.commit()
    assert controller.scheduler.open_transactions == 0 and _keys_held(controller) == 0
    assert _replica_rows(env) == [[(1, 10), (2, 20), (3, 11), (4, 0)]] * 2
    assert [entry.sql for entry in controller.recovery_log.entries_after(last)] == [
        "UPDATE st SET v = 20 WHERE id = 2",
        "UPDATE st SET v = 10 WHERE id = 1",
        "UPDATE st SET v = 11 WHERE id = 3",
    ]
    a.close()
    b.close()


@pytest.mark.parametrize("kind", KINDS)
def test_opposite_order_conflicts_refuse_the_younger_transaction_only(cluster, kind):
    env, controller = cluster
    locks = controller.scheduler.lock_manager
    older, younger = _connect(env, kind), _connect(env, kind)
    older.begin()
    older.cursor().execute("UPDATE st SET v = 1 WHERE id = 1")
    younger.begin()
    younger.cursor().execute("UPDATE st SET v = 2 WHERE id = 2")
    errors = []

    def older_crosses():
        try:
            older.cursor().execute("UPDATE st SET v = 1 WHERE id = 2")
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    # The older transaction waits for the younger's key...
    crossing = threading.Thread(target=older_crosses)
    crossing.start()
    assert chaos.wait_until(lambda: locks.stats()["scope_waiters"] == 1)
    # ...and the younger, asking for the older's, is refused and rolled
    # back: its key frees, and the older one goes on.
    with pytest.raises(ProgrammingError, match="deadlock"):
        younger.cursor().execute("UPDATE st SET v = 2 WHERE id = 1")
    assert not younger.in_transaction
    crossing.join(10.0)
    assert not crossing.is_alive() and errors == []
    assert locks.stats()["refusals"] == 1
    older.commit()
    assert controller.scheduler.open_transactions == 0 and _keys_held(controller) == 0
    assert _replica_rows(env) == [[(1, 1), (2, 1), (3, 0), (4, 0)]] * 2
    older.close()
    younger.close()


def test_a_sessions_statements_on_different_threads_release_their_scopes_at_commit(cluster):
    # A trunk session's statements run on whichever run-queue worker is
    # free: what its transaction holds is the session's, not a thread's.
    env, controller = cluster
    scheduler = controller.scheduler

    def on_a_thread(sql):
        thread = threading.Thread(target=scheduler.execute, args=(sql,), kwargs={"session_id": "trunk"})
        thread.start()
        thread.join(10.0)
        assert not thread.is_alive()

    for sql in ("BEGIN", "UPDATE st SET v = 5 WHERE id = 1", "UPDATE st SET v = 5 WHERE id = 2"):
        on_a_thread(sql)
    assert scheduler.in_transaction("trunk") and _keys_held(controller) == 2
    on_a_thread("COMMIT")
    assert not scheduler.in_transaction("trunk") and _keys_held(controller) == 0
    assert _replica_rows(env) == [[(1, 5), (2, 5), (3, 0), (4, 0)]] * 2


@pytest.mark.parametrize("kind", KINDS)
def test_a_vanished_sessions_abort_rolls_back_only_its_own_connections(cluster, kind):
    env, controller = cluster
    vanishing, staying = _connect(env, kind), _connect(env, kind)
    vanishing.begin()
    vanishing.cursor().execute("UPDATE st SET v = 7 WHERE id = 1")
    staying.begin()
    staying.cursor().execute("UPDATE st SET v = 8 WHERE id = 2")
    gone = vanishing.session_id
    vanishing.close()
    assert chaos.wait_until(lambda: not controller.scheduler.in_transaction(gone))
    # The other transaction is untouched: still open, its write still in it.
    assert controller.scheduler.in_transaction(staying.session_id) and _keys_held(controller) == 1
    staying.commit()
    assert _replica_rows(env) == [[(1, 0), (2, 8), (3, 0), (4, 0)]] * 2
    staying.close()


@pytest.mark.parametrize("kind", KINDS)
def test_disable_and_enable_with_two_open_transactions_refuse_naming_both(cluster, kind):
    env, controller = cluster
    a, b = _connect(env, kind), _connect(env, kind)
    a.begin()
    a.cursor().execute("UPDATE st SET v = 3 WHERE id = 3")
    b.begin()
    b.cursor().execute("UPDATE st SET v = 4 WHERE id = 4")
    # The disable closes db2's share of both transactions; db1 holds them.
    controller.disable_backend("db2")
    with pytest.raises(DriverError) as refused:
        controller.enable_backend("db2")
    assert a.session_id in str(refused.value) and b.session_id in str(refused.value)
    assert "st[3]" in str(refused.value) and "st[4]" in str(refused.value)
    a.commit()
    b.commit()
    # Both ended: db2 rejoins, replaying both from the log.
    assert controller.enable_backend("db2") == 2
    assert _replica_rows(env) == [[(1, 0), (2, 0), (3, 3), (4, 4)]] * 2
    a.close()
    b.close()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("then", ["write", "rollback"])
def test_a_transaction_whose_last_replica_left_ends_at_its_sessions_next_statement(kind, then):
    # Disabling the one replica a transaction ran on rolls it back there.
    # Its session hears of it at its next statement: a write fails and
    # is not logged — it must not run auto-commit behind the session's
    # back — and a ROLLBACK succeeds.
    env = build_cluster(replicas=1, controllers=1)
    try:
        controller = env.controllers[0]
        controller.scheduler.execute("CREATE TABLE st (id INTEGER PRIMARY KEY, v INTEGER)")
        controller.scheduler.execute("INSERT INTO st (id, v) VALUES (1, 0)")
        conn = _connect(env, kind)
        conn.begin()
        conn.cursor().execute("UPDATE st SET v = 1 WHERE id = 1")
        controller.disable_backend("db1")
        # Over: it holds nothing, and the replica may rejoin.
        assert controller.scheduler.open_transactions == 0 and _keys_held(controller) == 0
        controller.enable_backend("db1")
        last = controller.recovery_log.last_index
        assert conn.in_transaction
        if then == "write":
            with pytest.raises(ProgrammingError, match="the transaction was rolled back"):
                conn.cursor().execute("UPDATE st SET v = 2 WHERE id = 1")
        else:
            conn.rollback()
        assert not conn.in_transaction and not controller.scheduler.in_transaction(conn.session_id)
        assert controller.recovery_log.last_index == last
        assert _replica_rows(env) == [[(1, 0)]]
        # Out of it, the session's writes are its own again.
        conn.cursor().execute("UPDATE st SET v = 3 WHERE id = 1")
        assert _replica_rows(env) == [[(1, 3)]]
        conn.close()
    finally:
        env.close()


def test_a_trunk_whose_workers_all_wait_for_a_transaction_still_runs_its_commit():
    # Two workers, both taken by statements waiting for the row a
    # transaction holds: a waiting worker lends its slot, so the
    # transaction's COMMIT gets one and the waiters go on after it.
    env = build_cluster(replicas=2, controllers=1, controller_options={"worker_pool_size": 2})
    try:
        controller = env.controllers[0]
        controller.scheduler.execute("CREATE TABLE st (id INTEGER PRIMARY KEY, v INTEGER)")
        controller.scheduler.execute("INSERT INTO st (id, v) VALUES (1, 0)")
        holder, *waiting = [_connect(env, "multiplexed") for _ in range(3)]
        holder.begin()
        holder.cursor().execute("UPDATE st SET v = 1 WHERE id = 1")
        threads = [
            threading.Thread(target=conn.cursor().execute, args=("UPDATE st SET v = v + 1 WHERE id = 1",))
            for conn in waiting
        ]
        for thread in threads:
            thread.start()
        locks = controller.scheduler.lock_manager
        assert chaos.wait_until(lambda: locks.stats()["scope_waiters"] == 2)
        holder.commit()
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        assert _replica_rows(env) == [[(1, 3)]] * 2
        # The worker that ran the COMMIT beyond the pool exits once
        # there is nothing left to do.
        assert chaos.wait_until(lambda: controller.stats()["front_end"]["worker_threads"] <= 2)
        assert controller._run_queue._started > 2
        for conn in (holder, *waiting):
            conn.close()
    finally:
        env.close()
