"""Protocol v3: multiplexed sessions, pipelining, correlation rules and
the negotiation edges (docs/wire.md).

The promises under test: a v3 driver against a v2 controller silently
downgrades to one-channel-per-connection; a v2 driver against a v3
controller is served exactly as before; malformed
``session_id``/``request_id`` frames are answered with an error instead
of hanging a pool worker; logical sessions multiplexed over one channel
are accounted exactly; pipelined statements come back in order; group
commit and the front-end thread bounds hold.
"""

import threading
import time

import chaos
import pytest

from repro.cluster import Controller, ControllerConfig
from repro.cluster.driver import ClusterDriverRuntime
from repro.cluster.wire import (
    CLUSTER_PROTOCOL_VERSION,
    MULTIPLEX_MIN_VERSION,
    ClusterMessageType,
    ClusterWireError,
    correlate,
    make_connect,
    make_connect_ok,
    make_execute,
    make_result,
    make_session_open,
)
from repro.dbapi import OperationalError, ProgrammingError
from repro.errors import TransportError
from repro.netsim import InMemoryNetwork
from repro.netsim.transport import ChannelServer


@pytest.fixture
def cluster_env():
    from repro.experiments.environments import build_cluster

    env = build_cluster(replicas=2, controllers=2)
    yield env
    env.close()


def _controller_by_id(env, controller_id):
    for controller in env.controllers:
        if controller.config.controller_id == controller_id:
            return controller
    raise AssertionError(f"no controller {controller_id!r}")


class TestCorrelation:
    def test_valid_frame(self):
        message = make_execute("SELECT 1", session_id="s1", request_id=7)
        assert correlate(message) == ("s1", 7)

    def test_session_close_needs_no_request_id(self):
        assert correlate({"session_id": "s1"}, require_request_id=False) == ("s1", None)

    @pytest.mark.parametrize(
        "session_id", [None, "", 42, True, ["s1"]], ids=["missing", "empty", "int", "bool", "list"]
    )
    def test_bad_session_id_raises(self, session_id):
        message = {"type": ClusterMessageType.EXECUTE, "request_id": 1}
        if session_id is not None:
            message["session_id"] = session_id
        with pytest.raises(ClusterWireError):
            correlate(message)

    @pytest.mark.parametrize(
        "request_id",
        [None, "7", True, 0, -3, 2**63],
        ids=["missing", "str", "bool", "zero", "negative", "overflow"],
    )
    def test_bad_request_id_raises(self, request_id):
        message = {"type": ClusterMessageType.EXECUTE, "session_id": "s1"}
        if request_id is not None:
            message["request_id"] = request_id
        with pytest.raises(ClusterWireError):
            correlate(message)

    def test_connect_carries_multiplex_only_when_asked(self):
        plain = make_connect("vdb", CLUSTER_PROTOCOL_VERSION)
        assert "multiplex" not in plain
        asked = make_connect("vdb", CLUSTER_PROTOCOL_VERSION, multiplex=True)
        assert asked["multiplex"] is True

    def test_connect_ok_carries_grant_only_when_granted(self):
        assert "multiplexing" not in make_connect_ok("c1", 3, "s")
        assert make_connect_ok("c1", 3, "s", multiplexing=True)["multiplexing"] is True

    def test_make_result_skips_copy_for_wire_shaped_rows(self):
        shaped = [[1], [2]]
        assert make_result(["n"], shaped, 2)["rows"] is shaped
        assert make_result(["n"], [(1,)], 1)["rows"] == [[1]]


class TestNegotiationEdges:
    def test_v3_driver_v2_controller_downgrades_silently(self, cluster_env):
        # An old controller never sees the ``multiplex`` key's meaning —
        # unknown CONNECT keys are ignored — and its CONNECT_OK carries
        # no grant, so the driver runs the dedicated v2 path untouched.
        env = cluster_env
        old = _controller_by_id(env, env.controllers[0].config.controller_id)
        old.stop()
        old.config.protocol_version = MULTIPLEX_MIN_VERSION - 1
        old.start()
        driver = ClusterDriverRuntime(name="v3-driver")
        connection = driver.connect(
            f"sequoia://{old.address}/vdb", network=env.network
        )
        assert not connection.multiplexed
        assert driver.mux_channel_count() == 0
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE v3v2_t (id INTEGER PRIMARY KEY)")
        cursor.execute("SELECT COUNT(*) FROM v3v2_t")
        assert cursor.fetchone() == (0,)
        connection.close()

    def test_v2_driver_v3_controller_served_dedicated(self, cluster_env):
        env = cluster_env
        driver = ClusterDriverRuntime(
            name="v2-driver", protocol_version=MULTIPLEX_MIN_VERSION - 1
        )
        connection = driver.connect(env.client_url(), network=env.network)
        assert not connection.multiplexed
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE v2v3_t (id INTEGER PRIMARY KEY)")
        cursor.execute("INSERT INTO v2v3_t (id) VALUES (1)")
        cursor.execute("SELECT COUNT(*) FROM v2v3_t")
        assert cursor.fetchone() == (1,)
        connection.close()

    def test_driver_option_disables_multiplexing(self, cluster_env):
        env = cluster_env
        driver = ClusterDriverRuntime(name="opt-out-driver")
        connection = driver.connect(
            env.client_url(), network=env.network, multiplexing=False
        )
        assert not connection.multiplexed
        assert driver.mux_channel_count() == 0
        connection.close()


def _mux_handshake(env, controller):
    """Raw v3 handshake on a fresh channel; returns the granted channel."""
    channel = env.network.connect(controller.address, timeout=2.0)
    channel.send(
        make_connect("vdb", CLUSTER_PROTOCOL_VERSION, multiplex=True)
    )
    reply = channel.recv(timeout=5.0)
    assert reply["type"] == ClusterMessageType.CONNECT_OK
    assert reply["multiplexing"] is True
    return channel


class TestMalformedCorrelation:
    def test_bad_request_id_answered_not_hung(self, cluster_env):
        env = cluster_env
        channel = _mux_handshake(env, env.controllers[0])
        message = make_execute("SELECT 1")
        message["session_id"] = "ghost"
        message["request_id"] = "not-an-int"
        channel.send(message)
        reply = channel.recv(timeout=5.0)
        assert reply["type"] == ClusterMessageType.ERROR
        assert reply["code"] == "bad_correlation"
        channel.close()

    def test_bad_session_id_answered_not_hung(self, cluster_env):
        env = cluster_env
        channel = _mux_handshake(env, env.controllers[0])
        message = make_execute("SELECT 1")
        message["session_id"] = ""
        message["request_id"] = 1
        channel.send(message)
        reply = channel.recv(timeout=5.0)
        assert reply["type"] == ClusterMessageType.ERROR
        assert reply["code"] == "bad_correlation"
        channel.close()

    def test_unknown_session_error_is_correlated(self, cluster_env):
        # The error must carry the offending correlation so a real driver
        # fails exactly the right pending request instead of timing out.
        env = cluster_env
        channel = _mux_handshake(env, env.controllers[0])
        message = make_execute("SELECT 1", session_id="never-opened", request_id=9)
        channel.send(message)
        reply = channel.recv(timeout=5.0)
        assert reply["type"] == ClusterMessageType.ERROR
        assert reply["code"] == "unknown_session"
        assert reply["session_id"] == "never-opened"
        assert reply["request_id"] == 9
        channel.close()

    def test_duplicate_session_open_rejected(self, cluster_env):
        env = cluster_env
        channel = _mux_handshake(env, env.controllers[0])
        channel.send(make_session_open("dup", 1))
        assert channel.recv(timeout=5.0)["type"] == ClusterMessageType.SESSION_OPEN_OK
        channel.send(make_session_open("dup", 2))
        reply = channel.recv(timeout=5.0)
        assert reply["type"] == ClusterMessageType.ERROR
        assert reply["code"] == "session_exists"
        channel.close()

    def test_malformed_frames_do_not_occupy_workers(self, cluster_env):
        # Garbage correlation is answered by the channel's reader thread;
        # the worker pool must stay free to serve well-formed sessions.
        env = cluster_env
        controller = env.controllers[0]
        channel = _mux_handshake(env, controller)
        for index in range(20):
            bad = make_execute("SELECT 1")
            bad["session_id"] = index  # int, not str
            bad["request_id"] = 1
            channel.send(bad)
        for _ in range(20):
            assert channel.recv(timeout=5.0)["code"] == "bad_correlation"
        driver = ClusterDriverRuntime(name="still-alive")
        connection = driver.connect(env.client_url(), network=env.network)
        cursor = connection.cursor()
        cursor.execute("SELECT 1")
        assert cursor.fetchone() == (1,)
        connection.close()
        channel.close()


def _dedicated_handshake(env, controller):
    """Raw handshake that does not ask for multiplexing; returns the
    channel, whose one implicit session is open."""
    channel = env.network.connect(controller.address, timeout=2.0)
    channel.send(make_connect("vdb", CLUSTER_PROTOCOL_VERSION))
    reply = channel.recv(timeout=5.0)
    assert reply["type"] == ClusterMessageType.CONNECT_OK
    assert "multiplexing" not in reply
    return channel


class _RawClient:
    """Hand-rolled frames on either kind of channel. On a trunk
    ``open``/``execute`` name a logical session; on a dedicated channel
    the names are ignored — the handshake opened the only session."""

    def __init__(self, env, controller, trunk):
        self.trunk = trunk
        handshake = _mux_handshake if trunk else _dedicated_handshake
        self.channel = handshake(env, controller)
        self.request_id = 0

    def open(self, session_id):
        if self.trunk:
            self.request_id += 1
            self.channel.send(make_session_open(session_id, self.request_id))
            assert self.channel.recv(timeout=5.0)["type"] == ClusterMessageType.SESSION_OPEN_OK

    def execute(self, session_id, sql, **fields):
        message = make_execute(sql)
        if self.trunk:
            self.request_id += 1
            message["session_id"] = session_id
            message["request_id"] = self.request_id
        message.update(fields)
        self.channel.send(message)
        return self.channel.recv(timeout=5.0)


@pytest.mark.parametrize("trunk", [True, False], ids=["trunk", "dedicated"])
class TestMalformedExecute:
    @pytest.mark.parametrize("params", ["oops", [1, 2], 7], ids=["str", "list", "int"])
    def test_non_mapping_params_answered_and_channel_survives(self, cluster_env, trunk, params):
        # Outside input: the frame is refused on the reader thread with a
        # (correlated) bad_message — it must not kill the reader, the
        # channel, or any sibling session riding the same trunk.
        env = cluster_env
        controller = env.controllers[0]
        client = _RawClient(env, controller, trunk)
        client.open("victim")
        client.open("sibling")
        sessions_before = controller.stats()["active_sessions"]
        assert sessions_before == (2 if trunk else 1)
        reply = client.execute("victim", "SELECT 1", params=params)
        assert reply["type"] == ClusterMessageType.ERROR
        assert reply["code"] == "bad_message"
        if trunk:
            assert (reply["session_id"], reply["request_id"]) == ("victim", client.request_id)
        else:
            assert "session_id" not in reply and "request_id" not in reply
        reply = client.execute("sibling", "SELECT 1")
        assert reply["type"] == ClusterMessageType.RESULT
        assert reply["rows"] == [[1]]
        assert controller.stats()["active_sessions"] == sessions_before
        client.channel.close()

    def test_unexpected_exception_answers_internal_error_and_frees_the_slot(
        self, trunk, monkeypatch
    ):
        from repro.experiments.environments import build_cluster

        env = build_cluster(
            replicas=1, controllers=1, controller_options={"max_in_flight_statements": 1}
        )
        try:
            controller = env.controllers[0]
            real_execute = controller.scheduler.execute
            raised = []

            def execute_raising_once(*args, **kwargs):
                if not raised:
                    raised.append(True)
                    raise RuntimeError("scheduler bug")
                return real_execute(*args, **kwargs)

            monkeypatch.setattr(controller.scheduler, "execute", execute_raising_once)
            client = _RawClient(env, controller, trunk)
            client.open("s")
            reply = client.execute("s", "SELECT 1")
            assert reply["type"] == ClusterMessageType.ERROR
            assert reply["code"] == "internal_error"
            assert "scheduler bug" in reply["message"]
            assert controller.stats()["front_end"]["in_flight_statements"] == 0
            # The session keeps serving — and under a bound of one, only
            # because the failed statement's slot was released.
            reply = client.execute("s", "SELECT 1")
            assert reply["type"] == ClusterMessageType.RESULT
            assert reply["rows"] == [[1]]
            client.channel.close()
        finally:
            env.close()


class TestMultiplexedSessions:
    def test_sessions_share_one_physical_channel(self, cluster_env):
        env = cluster_env
        driver = ClusterDriverRuntime(name="share-driver")
        url = f"sequoia://{env.controllers[0].address}/vdb"
        connections = [
            driver.connect(url, network=env.network) for _ in range(10)
        ]
        assert all(connection.multiplexed for connection in connections)
        assert driver.mux_channel_count() == 1
        controller = env.controllers[0]
        assert controller.stats()["active_sessions"] == 10
        assert controller.stats()["front_end"]["mux_channels"] == 1
        # Sessions are independent: each sees its own results.
        cursor = connections[0].cursor()
        cursor.execute("CREATE TABLE share_t (id INTEGER PRIMARY KEY)")
        for index, connection in enumerate(connections):
            c = connection.cursor()
            c.execute("INSERT INTO share_t (id) VALUES ($i)", {"i": index})
        cursor.execute("SELECT COUNT(*) FROM share_t")
        assert cursor.fetchone() == (10,)
        for connection in connections:
            connection.close()
        # Last session out closes the shared channel (no leaked readers).
        assert driver.mux_channel_count() == 0
        deadline = time.time() + 2.0
        while controller.stats()["active_sessions"] and time.time() < deadline:
            time.sleep(0.01)
        assert controller.stats()["active_sessions"] == 0

    def test_transactions_are_per_logical_session(self, cluster_env):
        env = cluster_env
        driver = ClusterDriverRuntime(name="tx-mux-driver")
        url = f"sequoia://{env.controllers[0].address}/vdb"
        a = driver.connect(url, network=env.network)
        b = driver.connect(url, network=env.network)
        assert a.multiplexed and b.multiplexed and driver.mux_channel_count() == 1
        cursor_a = a.cursor()
        cursor_a.execute("CREATE TABLE tx_mux_t (id INTEGER PRIMARY KEY)")
        a.begin()
        cursor_a.execute("INSERT INTO tx_mux_t (id) VALUES (1)")
        # b is NOT inside a's transaction: its reads run at autocommit.
        cursor_b = b.cursor()
        cursor_b.execute("SELECT 1")
        assert cursor_b.fetchone() == (1,)
        a.rollback()
        cursor_b.execute("SELECT COUNT(*) FROM tx_mux_t")
        assert cursor_b.fetchone() == (0,)
        a.close()
        b.close()

    def test_abandoned_mux_transaction_rolled_back_on_channel_death(self, cluster_env):
        env = cluster_env
        controller = env.controllers[0]
        channel = _mux_handshake(env, controller)
        channel.send(make_session_open("doomed", 1))
        assert channel.recv(timeout=5.0)["type"] == ClusterMessageType.SESSION_OPEN_OK
        channel.send(make_execute("BEGIN", session_id="doomed", request_id=2))
        assert channel.recv(timeout=5.0)["type"] == ClusterMessageType.RESULT
        assert controller.stats()["active_sessions"] == 1
        channel.close()
        deadline = time.time() + 2.0
        while controller.stats()["active_sessions"] and time.time() < deadline:
            time.sleep(0.01)
        assert controller.stats()["active_sessions"] == 0
        # The rollback released the cluster-wide transaction: a new
        # autocommit write is logged immediately, not buffered.
        scheduler_stats = controller.scheduler.stats()
        assert scheduler_stats["open_transactions"] == 0


class TestPipelining:
    def test_pipeline_results_in_order(self, cluster_env):
        env = cluster_env
        driver = ClusterDriverRuntime(name="pipe-driver")
        connection = driver.connect(env.client_url(), network=env.network)
        assert connection.multiplexed
        connection.execute_pipeline(
            ["CREATE TABLE pipe_t (id INTEGER PRIMARY KEY, v INTEGER)"]
        )
        inserts = [
            ("INSERT INTO pipe_t (id, v) VALUES ($i, $v)", {"i": n, "v": n * 10})
            for n in range(20)
        ]
        replies = connection.execute_pipeline(inserts)
        assert len(replies) == 20
        replies = connection.execute_pipeline(
            [("SELECT v FROM pipe_t WHERE id = $i", {"i": n}) for n in range(20)]
        )
        assert [reply["rows"] for reply in replies] == [[[n * 10]] for n in range(20)]
        connection.close()

    def test_pipeline_rejects_transaction_control(self, cluster_env):
        env = cluster_env
        driver = ClusterDriverRuntime(name="pipe-tx-driver")
        connection = driver.connect(env.client_url(), network=env.network)
        with pytest.raises(ProgrammingError):
            connection.execute_pipeline(["BEGIN", "SELECT 1"])
        connection.close()

    def test_pipeline_on_dedicated_connection_falls_back(self, cluster_env):
        env = cluster_env
        driver = ClusterDriverRuntime(name="pipe-ded-driver")
        connection = driver.connect(
            env.client_url(), network=env.network, multiplexing=False
        )
        assert not connection.multiplexed
        replies = connection.execute_pipeline(["SELECT 1", "SELECT 2"])
        assert [reply["rows"] for reply in replies] == [[[1]], [[2]]]
        connection.close()


class TestMuxFailover:
    def test_mux_connection_fails_over_when_controller_dies(self, cluster_env):
        env = cluster_env
        driver = ClusterDriverRuntime(name="mux-fo-driver")
        connection = driver.connect(env.client_url(), network=env.network)
        assert connection.multiplexed
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE mux_fo_t (id INTEGER PRIMARY KEY)")
        dead = _controller_by_id(env, connection.controller_id)
        dead.stop()
        env.network.kill_endpoint(dead.address)
        cursor.execute("SELECT COUNT(*) FROM mux_fo_t")
        assert cursor.fetchone() == (0,)
        assert connection.failovers == 1
        assert connection.multiplexed  # re-attached multiplexed elsewhere
        assert connection.controller_id != dead.config.controller_id
        connection.close()

    def test_channel_death_fails_all_sessions_then_each_recovers(self, cluster_env):
        env = cluster_env
        # Sessions spread over both controllers (round-robin host pick);
        # killing one controller must fail over exactly the sessions on
        # its channel while the rest keep working undisturbed.
        driver = ClusterDriverRuntime(name="mux-herd-driver")
        connections = [
            driver.connect(env.client_url(), network=env.network) for _ in range(6)
        ]
        assert all(connection.multiplexed for connection in connections)
        first = connections[0]
        cursor = first.cursor()
        cursor.execute("CREATE TABLE herd_t (id INTEGER PRIMARY KEY)")
        victim = env.controllers[0]
        doomed = sum(
            1
            for connection in connections
            if connection.controller_id == victim.config.controller_id
        )
        victim.stop()
        env.network.kill_endpoint(victim.address)
        for connection in connections:
            c = connection.cursor()
            c.execute("SELECT COUNT(*) FROM herd_t")
            assert c.fetchone() == (0,)
        assert sum(connection.failovers for connection in connections) == doomed
        survivor_id = env.controllers[1].config.controller_id
        assert all(
            connection.controller_id == survivor_id for connection in connections
        )
        for connection in connections:
            connection.close()


def _reader_threads():
    return {t for t in threading.enumerate() if t.name.startswith("mux-reader")}


class TestOneAttachment:
    """The driver holds one attachment, a session on a link; what the
    handshake granted decides whether the link is shared or private."""

    @pytest.mark.parametrize(
        "runtime_options, connect_options",
        [({}, {"multiplexing": False}), ({"protocol_version": 1}, {})],
        ids=["opt-out", "v1-driver"],
    )
    def test_private_link_starts_no_client_thread(
        self, cluster_env, runtime_options, connect_options
    ):
        env = cluster_env
        before = _reader_threads()
        driver = ClusterDriverRuntime(name="private-driver", **runtime_options)
        connection = driver.connect(env.client_url(), network=env.network, **connect_options)
        assert not connection.multiplexed
        assert connection.session_id
        assert _reader_threads() == before
        assert driver.mux_channel_count() == 0
        cursor = connection.cursor()
        cursor.execute("SELECT 1")
        assert cursor.fetchone() == (1,)
        connection.close()

    def test_shared_link_starts_one_reader_per_physical_channel(self, cluster_env):
        env = cluster_env
        before = _reader_threads()
        driver = ClusterDriverRuntime(name="shared-driver")
        url = f"sequoia://{env.controllers[0].address}/vdb"
        connections = [driver.connect(url, network=env.network) for _ in range(3)]
        assert all(connection.multiplexed for connection in connections)
        assert len(_reader_threads() - before) == driver.mux_channel_count() == 1
        for connection in connections:
            connection.close()

    def test_reply_timeout_on_shared_link_is_one_sessions_problem(self, cluster_env):
        env = cluster_env
        controller = env.controllers[0]
        driver = ClusterDriverRuntime(name="timeout-driver")
        url = f"sequoia://{controller.address}/vdb"
        a = driver.connect(url, network=env.network)
        b = driver.connect(url, network=env.network)
        assert driver.mux_channel_count() == 1
        a.cursor().execute("CREATE TABLE slow_t (id INTEGER PRIMARY KEY)")
        b_rowcounts = []
        exclusive = controller.scheduler._locks.exclusive()
        exclusive.__enter__()
        try:
            b_thread = threading.Thread(
                target=lambda: b_rowcounts.append(
                    b.cursor().execute("INSERT INTO slow_t (id) VALUES (2)").rowcount
                )
            )
            b_thread.start()
            with pytest.raises(OperationalError, match="timed out"):
                a.execute_pipeline(["INSERT INTO slow_t (id) VALUES (1)"], timeout=0.3)
        finally:
            exclusive.__exit__(None, None, None)
        b_thread.join(timeout=10.0)
        assert not b_thread.is_alive()
        # B's statement was answered on the link A gave up on: not
        # failed over, not run twice.
        assert b_rowcounts == [1]
        assert b.failovers == 0
        assert driver.mux_channel_count() == 1
        # A let go of its session only, and reattaches on its next statement.
        assert chaos.wait_until(lambda: controller.stats()["active_sessions"] == 1)
        cursor = a.cursor()
        cursor.execute("SELECT COUNT(*) FROM slow_t")
        assert cursor.fetchone() == (2,)
        a.close()
        b.close()


def _run_front_end_script(multiplexing):
    """One client script through the driver with ``multiplexing`` on or
    off; returns what it observed. The controller has one front end, so
    apart from the trunk-only queue span both runs must observe the same."""
    from repro.experiments.environments import build_cluster
    from repro.obs import Trace

    env = build_cluster(
        replicas=2,
        controllers=1,
        controller_options={"tracing": True, "max_in_flight_statements": 1},
    )
    try:
        controller = env.controllers[0]
        runtime = ClusterDriverRuntime(name=f"front-end-{multiplexing}")

        def connect():
            connection = runtime.connect(
                env.client_url(),
                network=env.network,
                multiplexing=multiplexing,
                trace="true",
                busy_retries=0,
            )
            assert connection.multiplexed is multiplexing
            return connection

        def in_background(action):
            errors, done = [], threading.Event()

            def body():
                try:
                    action()
                except Exception as exc:  # noqa: BLE001 - returned to the script
                    errors.append(exc)
                finally:
                    done.set()

            thread = threading.Thread(target=body)
            thread.start()
            return thread, done, errors

        seen = {}
        # Autocommit write + read, the write traced.
        main = connect()
        cursor = main.cursor()
        cursor.execute("CREATE TABLE fe_t (id INTEGER PRIMARY KEY, v INTEGER)")
        cursor.execute("INSERT INTO fe_t (id, v) VALUES (1, 10)")
        seen["write_stages"] = {
            span.name
            for span in Trace.spans_from_wire(main.last_trace["spans"])
            if span.parent is None
        }
        cursor.execute("SELECT v FROM fe_t WHERE id = 1")
        seen["read"] = cursor.fetchall()

        # A connection dropped mid-transaction is rolled back and forgotten.
        doomed = connect()
        doomed.begin()
        doomed.cursor().execute("UPDATE fe_t SET v = 99 WHERE id = 1")
        assert controller.stats()["active_sessions"] == 2
        assert controller.scheduler.open_transactions == 1
        doomed.close()
        assert chaos.wait_until(lambda: controller.stats()["active_sessions"] == 1)
        assert chaos.wait_until(lambda: controller.scheduler.open_transactions == 0)
        cursor.execute("SELECT v FROM fe_t WHERE id = 1")
        seen["after_abandon"] = cursor.fetchall()

        # Saturation: a sibling parked on the write path holds the only
        # in-flight slot; new work is refused, the open transaction's
        # COMMIT is admitted past the bound.
        main.begin()
        cursor.execute("UPDATE fe_t SET v = 11 WHERE id = 1")
        blocked, probe = connect(), connect()
        exclusive = controller.scheduler._locks.exclusive()
        exclusive.__enter__()
        try:
            blocked_thread, blocked_done, blocked_errors = in_background(
                lambda: blocked.cursor().execute("INSERT INTO fe_t (id, v) VALUES (2, 20)")
            )
            assert chaos.wait_until(
                lambda: controller.stats()["front_end"]["in_flight_statements"] == 1
            )
            with pytest.raises(OperationalError, match="server_busy"):
                probe.cursor().execute("SELECT 1")
            commit_thread, commit_done, commit_errors = in_background(main.commit)
            # Admitted, so it parks behind the exclusive lock beside the
            # sibling; a refusal (busy_retries=0) would have come
            # straight back instead.
            assert chaos.wait_until(
                lambda: controller.scheduler.lock_manager.stats()["scope_waiters"] == 2
            )
            assert not commit_done.is_set()
        finally:
            exclusive.__exit__(None, None, None)
        assert blocked_done.wait(timeout=10.0) and commit_done.wait(timeout=10.0)
        blocked_thread.join(timeout=5.0)
        commit_thread.join(timeout=5.0)
        assert blocked_errors == [] and commit_errors == []
        for connection in (main, blocked, probe):
            connection.close()
        assert chaos.wait_until(lambda: controller.stats()["active_sessions"] == 0)

        seen["rows"] = [
            sorted(engine.open_session(env.database_name).execute("SELECT id, v FROM fe_t").rows)
            for engine in env.replica_engines
        ]
        seen["log"] = [
            (entry.sql, entry.params, entry.write_tables)
            for entry in controller.recovery_log.entries_after(0)
        ]
        stats = controller.stats()
        seen["statements_served"] = stats["statements_served"]
        seen["failed_statements"] = stats["failed_statements"]
        seen["server_busy_rejections"] = stats["front_end"]["server_busy_rejections"]
        seen["in_flight_statements"] = stats["front_end"]["in_flight_statements"]
        return seen
    finally:
        env.close()


class TestFrontEndEquivalence:
    @pytest.fixture(scope="class")
    def runs(self):
        return {multiplexing: _run_front_end_script(multiplexing) for multiplexing in (True, False)}

    @pytest.mark.parametrize("multiplexing", [True, False], ids=["trunk", "dedicated"])
    def test_script_outcome(self, runs, multiplexing):
        seen = runs[multiplexing]
        assert seen["read"] == [(10,)]
        assert seen["after_abandon"] == [(10,)]
        assert seen["rows"] == [[(1, 11), (2, 20)]] * 2
        assert seen["server_busy_rejections"] == 1
        assert seen["in_flight_statements"] == 0
        assert {"classify", "lock", "execute", "log_append"} <= seen["write_stages"]
        # Only a trunk queues a statement for the worker pool; a dedicated
        # channel's reader runs it in place.
        assert ("queue" in seen["write_stages"]) is multiplexing

    def test_both_kinds_of_channel_observe_the_same(self, runs):
        trunk, dedicated = dict(runs[True]), dict(runs[False])
        assert trunk.pop("write_stages") - dedicated.pop("write_stages") == {"queue"}
        # The COMMIT and the parked sibling's INSERT (disjoint keys) both
        # wait for the exclusive lock and go on in either order: the log
        # holds the COMMIT's buffer where the COMMIT ran.
        create, first, update, second = (
            "CREATE TABLE fe_t (id INTEGER PRIMARY KEY, v INTEGER)",
            "INSERT INTO fe_t (id, v) VALUES (1, 10)",
            "UPDATE fe_t SET v = 11 WHERE id = 1",
            "INSERT INTO fe_t (id, v) VALUES (2, 20)",
        )
        legal = ([create, first, update, second], [create, first, second, update])
        for seen in (trunk, dedicated):
            assert [sql for sql, _, _ in seen["log"]] in legal
        assert sorted(trunk.pop("log")) == sorted(dedicated.pop("log"))
        assert trunk == dedicated


class TestChannelServerFrontEnd:
    def test_dead_handler_threads_are_reaped(self):
        net = InMemoryNetwork()

        def handler(channel):
            channel.recv(timeout=2.0)

        server = ChannelServer(net.listen("svc:1"), handler, name="reap").start()
        try:
            for _ in range(30):
                client = net.connect("svc:1")
                client.send({"bye": True})
                client.close()
            deadline = time.time() + 5.0
            while server.handler_thread_count() > 5 and time.time() < deadline:
                time.sleep(0.02)
            # The thread list must not grow one dead entry per historical
            # connection: finished handlers are reaped on each accept.
            assert server.handler_thread_count() <= 5
        finally:
            server.stop()


class TestGroupCommitUnit:
    def test_append_batch_matches_single_appends(self, tmp_path):
        from repro.cluster.recovery import FileLogStore, RecoveryLog

        single = RecoveryLog(FileLogStore(str(tmp_path / "single"), fsync_on_append=True))
        batched = RecoveryLog(FileLogStore(str(tmp_path / "batched"), fsync_on_append=True))
        specs = [
            (f"UPDATE t{n % 2} SET v = {n}", {"n": n}, [f"t{n % 2}"]) for n in range(6)
        ]
        for sql, params, tables in specs:
            single.append(sql, params, write_tables=tables)
        entries = batched.append_batch(specs)
        assert [entry.index for entry in entries] == [
            entry.index for entry in single.entries_after(0)
        ]
        assert [entry.table_seqs for entry in entries] == [
            entry.table_seqs for entry in single.entries_after(0)
        ]
        # Batch tail fsync: one sync for the whole batch vs one each.
        assert batched.store.stats()["fsyncs"] < single.store.stats()["fsyncs"]
        single.close()
        batched.close()

    def test_wait_durable_batches_concurrent_writers(self, tmp_path):
        from repro.cluster.recovery import FileLogStore, GroupCommit, RecoveryLog

        store = FileLogStore(str(tmp_path / "log"), fsync_on_append=False)
        log = RecoveryLog(store)
        coordinator = GroupCommit(log)
        errors = []

        def writer(index):
            try:
                for n in range(20):
                    entry = log.append(
                        f"UPDATE w{index} SET v = {n}", write_tables=[f"w{index}"]
                    )
                    coordinator.wait_durable(entry.index)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = coordinator.stats()
        assert stats["synced_appends"] == 120
        assert stats["flushed_through"] == log.last_index
        # Batching actually happened: fewer fsync groups than appends.
        assert stats["groups"] <= store.stats()["fsyncs"]
        assert store.stats()["fsyncs"] < 120
        log.close()

    def test_failed_flush_does_not_claim_durability(self, tmp_path):
        from repro.cluster.recovery import FileLogStore, GroupCommit, RecoveryLog

        store = FileLogStore(str(tmp_path / "log"), fsync_on_append=False)
        log = RecoveryLog(store)
        coordinator = GroupCommit(log)
        entry = log.append("UPDATE t SET v = 1", write_tables=["t"])

        original_flush = log.flush
        calls = []

        def failing_flush():
            calls.append(True)
            if len(calls) == 1:
                raise OSError("disk went away")
            original_flush()

        log.flush = failing_flush
        with pytest.raises(OSError):
            coordinator.wait_durable(entry.index)
        assert coordinator.stats()["flushed_through"] == 0
        # The next waiter becomes a fresh leader and succeeds.
        coordinator.wait_durable(entry.index)
        assert coordinator.stats()["flushed_through"] >= entry.index
        log.close()

    def test_controller_group_commit_gated_by_log_durability(self, tmp_path):
        network = InMemoryNetwork()
        durable = Controller(
            ControllerConfig(
                controller_id="gc-on", log_dir=str(tmp_path / "gc-on"), log_fsync=True
            ),
            network,
            "gc-on:25322",
            backends=[],
        )
        assert durable.group_commit is not None
        # The store must not double-pay: fsync rides the group flush.
        assert durable.recovery_log.store.fsync_on_append is False
        unsynced = Controller(
            ControllerConfig(controller_id="gc-nosync", log_dir=str(tmp_path / "gc-nosync")),
            network,
            "gc-nosync:25322",
            backends=[],
        )
        # No fsync asked for -> no durability wait to group.
        assert unsynced.group_commit is None
        assert unsynced.recovery_log.store.fsync_on_append is False
        memory_only = Controller(
            ControllerConfig(controller_id="gc-mem", log_fsync=True),
            network,
            "gc-mem:25322",
            backends=[],
        )
        # No durable log -> nothing to group; the coordinator stays off.
        assert memory_only.group_commit is None
