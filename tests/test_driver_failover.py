"""Driver failover semantics: what ClusterConnection promises when a
controller dies, is busy replaying its recovery log, or is an HA
follower — including the write-storm crash test for docs/ha.md.

Faults are injected through tests/chaos.py so every test means the same
thing by "crash" (endpoint dies before state teardown, no final flush)
and "graceful stop" (flush first, then dark)."""

import threading

import pytest

import chaos
from repro.cluster.driver import ClusterDriverRuntime
from repro.dbapi import OperationalError, legacy_driver
from repro.experiments.environments import build_cluster


@pytest.fixture
def cluster_env():
    env = build_cluster(replicas=2, controllers=2)
    yield env
    env.close()


def _controller_by_id(env, controller_id):
    for controller in env.controllers:
        if controller.config.controller_id == controller_id:
            return controller
    raise AssertionError(f"no controller {controller_id!r}")


class TestTransparentFailover:
    def test_failover_outside_transaction_counts_one_reconnect(self, cluster_env):
        env = cluster_env
        driver = ClusterDriverRuntime(name="fo-driver")
        connection = driver.connect(env.client_url(), network=env.network)
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE fo_t (id INTEGER PRIMARY KEY)")
        chaos.graceful_stop(env, _controller_by_id(env, connection.controller_id))
        cursor.execute("SELECT COUNT(*) FROM fo_t")
        assert cursor.fetchone() == (0,)
        assert connection.failovers == 1
        connection.close()

    def test_mid_transaction_controller_death_surfaces_error(self, cluster_env):
        # A sibling controller never saw the transaction's earlier
        # statements: silently retrying there would commit half a
        # transaction. The driver must surface the failure and close.
        env = cluster_env
        driver = ClusterDriverRuntime(name="tx-driver")
        connection = driver.connect(env.client_url(), network=env.network)
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE tx_fo_t (id INTEGER PRIMARY KEY)")
        connection.begin()
        cursor.execute("INSERT INTO tx_fo_t (id) VALUES (1)")
        chaos.graceful_stop(env, _controller_by_id(env, connection.controller_id))
        with pytest.raises(OperationalError):
            cursor.execute("INSERT INTO tx_fo_t (id) VALUES (2)")
        assert connection.failovers == 0  # no silent retry happened
        assert connection.closed

    @pytest.mark.parametrize("multiplexing", [True, False])
    def test_mid_transaction_error_on_live_controller_releases_session(
        self, cluster_env, multiplexing
    ):
        # The controller is alive, merely refusing the write: the error
        # ends the connection, and with it the session and the open
        # transaction the controller holds for it — not only once the
        # application calls close(), and certainly not never.
        env = cluster_env
        driver = ClusterDriverRuntime(name="tx-live-driver")
        setup = driver.connect(env.client_url(), network=env.network)
        setup.cursor().execute("CREATE TABLE tx_live_t (id INTEGER PRIMARY KEY, v INTEGER)")
        setup.cursor().execute("INSERT INTO tx_live_t (id, v) VALUES (1, 0)")
        setup.close()
        sessions_before = {
            c.config.controller_id: c.stats()["active_sessions"] for c in env.controllers
        }
        connection = driver.connect(
            env.client_url(), network=env.network, multiplexing=multiplexing
        )
        assert connection.multiplexed is multiplexing
        controller = _controller_by_id(env, connection.controller_id)
        cursor = connection.cursor()
        connection.begin()
        cursor.execute("UPDATE tx_live_t SET v = 1 WHERE id = 1")
        assert controller.scheduler.stats()["open_transactions"] == 1
        with chaos.resync_freeze(controller):
            with pytest.raises(OperationalError, match="controller_recovering"):
                cursor.execute("UPDATE tx_live_t SET v = 2 WHERE id = 1")
        assert connection.failovers == 0
        assert connection.closed
        connection.close()
        assert chaos.wait_until(
            lambda: controller.scheduler.stats()["open_transactions"] == 0
        ), "the controller still holds the failed connection's transaction"
        assert chaos.wait_until(
            lambda: controller.stats()["active_sessions"]
            == sessions_before[controller.config.controller_id]
        ), "the controller still holds the failed connection's session"
        assert driver.mux_channel_count() == 0

    def test_all_controllers_dead_raises_without_counting_failovers(self, cluster_env):
        env = cluster_env
        driver = ClusterDriverRuntime(name="dead-driver")
        connection = driver.connect(env.client_url(), network=env.network)
        for controller in env.controllers:
            chaos.graceful_stop(env, controller)
        cursor = connection.cursor()
        with pytest.raises(OperationalError):
            cursor.execute("SELECT 1")
        # The reconnect never succeeded, so no failover was recorded.
        assert connection.failovers == 0
        connection.close()


class TestRecoveringControllerRetry:
    def test_write_bounces_to_sibling_while_primary_replays_log(self, cluster_env):
        env = cluster_env
        driver = ClusterDriverRuntime(name="rec-driver")
        connection = driver.connect(env.client_url(), network=env.network)
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE rec_t (id INTEGER PRIMARY KEY)")
        primary = _controller_by_id(env, connection.controller_id)
        # Freeze the primary in "replaying its log" state (what a long
        # resync holds while owning the write path).
        with chaos.resync_freeze(primary):
            cursor.execute("INSERT INTO rec_t (id) VALUES (1)")
        assert connection.failovers == 1
        assert connection.controller_id != primary.config.controller_id
        # The abandoned channel to the (healthy, just recovering) primary
        # was closed: its server-side session must not leak.
        assert chaos.wait_until(
            lambda: primary.stats()["active_sessions"] == 0
        ), "recovering controller leaked the abandoned session"
        # Reads are still served locally by a recovering controller.
        other = ClusterDriverRuntime(name="rec-reader").connect(
            f"sequoia://{primary.address}/vdb", network=env.network
        )
        with chaos.resync_freeze(primary):
            read_cursor = other.cursor()
            read_cursor.execute("SELECT COUNT(*) FROM rec_t")
            assert read_cursor.fetchone() is not None
        other.close()
        connection.close()


class TestHAFailoverUnderWriteStorm:
    """Kill the HA primary mid-write-storm (write batching + group
    commit on, their defaults): drivers must converge on the promoted
    sibling with every acked write present exactly once on every
    replica — zero loss, zero duplicates (docs/ha.md)."""

    WRITERS = 4
    WRITES_EACH = 40

    def test_primary_crash_mid_storm_loses_no_acked_write(self):
        env = build_cluster(replicas=2, controllers=3, ha=True)
        try:
            self._run_storm(env)
        finally:
            env.close()

    def _run_storm(self, env):
        setup = ClusterDriverRuntime(name="storm-setup").connect(
            env.client_url(), network=env.network
        )
        setup.cursor().execute("CREATE TABLE storm_t (id INTEGER PRIMARY KEY)")
        setup.close()
        primary = next(c for c in env.controllers if c.ha_store.is_primary)
        acked = [[] for _ in range(self.WRITERS)]
        ambiguous = [[] for _ in range(self.WRITERS)]

        def writer(slot):
            conn = ClusterDriverRuntime(name=f"storm-{slot}").connect(
                env.client_url(), network=env.network
            )
            for n in range(self.WRITES_EACH):
                write_id = slot * 1000 + n
                try:
                    conn.cursor().execute(
                        f"INSERT INTO storm_t (id) VALUES ({write_id})"
                    )
                except Exception:
                    # Durability unknown (the crash window, or a retry
                    # that hit its own earlier duplicate): not acked.
                    ambiguous[slot].append(write_id)
                    if conn.closed:
                        conn = ClusterDriverRuntime(
                            name=f"storm-{slot}-re{n}"
                        ).connect(env.client_url(), network=env.network)
                else:
                    acked[slot].append(write_id)
            try:
                conn.close()
            except Exception:
                pass

        threads = [
            threading.Thread(target=writer, args=(slot,), name=f"storm-writer-{slot}")
            for slot in range(self.WRITERS)
        ]
        for thread in threads:
            thread.start()
        # Let the storm build, then crash the primary mid-flight.
        assert chaos.wait_until(
            lambda: sum(len(ids) for ids in acked) >= 30, timeout=30.0
        ), "storm never got going"
        chaos.crash_controller(env, primary)
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)

        survivors = [c for c in env.controllers if c is not primary]
        new_primaries = [c for c in survivors if c.ha_store.is_primary]
        assert len(new_primaries) == 1, "storm must have elected exactly one sibling"
        new_primary = new_primaries[0]
        assert new_primary.ha_store.epoch > 1

        acked_ids = sorted(wid for ids in acked for wid in ids)
        assert len(acked_ids) > 30  # writes succeeded both before and after
        # Ground truth per physical replica: every acked write present
        # exactly once, on every replica.
        for replica_index in range(len(env.replica_engines)):
            conn = legacy_driver.connect(
                env.replica_url(replica_index), network=env.network
            )
            cursor = conn.cursor()
            cursor.execute("SELECT id FROM storm_t")
            present = [row[0] for row in cursor.fetchall()]
            conn.close()
            assert len(present) == len(set(present)), (
                f"replica {replica_index} holds duplicate rows"
            )
            lost = set(acked_ids) - set(present)
            assert not lost, f"replica {replica_index} lost acked writes: {sorted(lost)}"
        # Surviving logs converged on the same history...
        heads = {c.ha_store.last_index for c in survivors}
        assert len(heads) == 1
        # ...and the promotion seeded replay dedup: the promoted node's
        # backend views count the replicated entries as applied, so a
        # resync replay would skip (not double-apply) them.
        store = new_primary.ha_store
        backend = next(b for b in new_primary.backends() if b.enabled)
        for entry in store.entries_after(store.truncated_through)[-5:]:
            if entry.table_seqs:
                assert all(pair in backend.applied_seqs for pair in entry.table_seqs.items())
