"""The controller's run queue (docs/wire.md, "Controller side").

Trunk sessions that have work wait in one queue; ``worker_pool_size``
workers each take a session, run ONE of its queued items and put it back
at the tail if it has more. The promises under test: every session's
statements run in the order it sent them; a long pipeline does not
starve a sibling; ``worker_threads`` counts the live workers, which end
with the controller; auto-commit writers contending for one row never
take a worker beyond the pool; and ``stop()`` lets in-flight statements
finish while later work is dropped with ``scheduled`` reset.
"""

import threading
import time

from repro.cluster.controller import _ChannelState
from repro.cluster.driver import ClusterDriverRuntime
from repro.cluster.wire import (
    CLUSTER_PROTOCOL_VERSION,
    ClusterMessageType,
    make_connect,
    make_execute,
    make_session_open,
)
from repro.experiments.environments import build_cluster

#: Bound on every wait here: a session the run queue lost fails the test
#: after this long instead of hanging the suite.
_WAIT_S = 10.0


def _cluster(worker_pool_size):
    return build_cluster(
        replicas=1, controllers=1, controller_options={"worker_pool_size": worker_pool_size}
    )


def _wait_until(predicate, what):
    deadline = time.monotonic() + _WAIT_S
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.002)


def _gate(controller, sql):
    """Hold every execution of ``sql`` until the returned event is set."""
    gate = threading.Event()
    execute = controller.scheduler.execute

    def gated(text, *args, **kwargs):
        if text == sql:
            gate.wait(_WAIT_S)
        return execute(text, *args, **kwargs)

    controller.scheduler.execute = gated
    return gate


def _mux_threads(controller):
    prefix = f"{controller.config.controller_id}-mux"
    return {thread for thread in threading.enumerate() if thread.name.startswith(prefix)}


def _pipelined_counters(env, sessions, statements):
    """``sessions`` connections on one trunk, each pipelining
    ``statements`` at once: increments of its own counter row, each
    followed by a read of it. Returns every session's reads, which count
    1, 2, 3... only if its statements ran in the order it sent them."""
    driver = ClusterDriverRuntime(name="run-queue-driver")
    connections = [driver.connect(env.client_url(), network=env.network) for _ in range(sessions)]
    assert all(connection.multiplexed for connection in connections)
    assert driver.mux_channel_count() == 1
    cursor = connections[0].cursor()
    cursor.execute("CREATE TABLE counters (id INTEGER PRIMARY KEY, n INTEGER)")
    for index in range(sessions):
        cursor.execute("INSERT INTO counters (id, n) VALUES ($i, 0)", {"i": index})
    reads = {}
    errors = []

    def run(index):
        key = {"i": index}
        pipeline = [
            ("UPDATE counters SET n = n + 1 WHERE id = $i", key)
            if position % 2 == 0
            else ("SELECT n FROM counters WHERE id = $i", key)
            for position in range(statements)
        ]
        try:
            replies = connections[index].execute_pipeline(pipeline, timeout=_WAIT_S)
        except Exception as exc:  # noqa: BLE001 - reported on the test's thread
            errors.append(exc)
            return
        reads[index] = [reply["rows"][0][0] for reply in replies[1::2]]

    threads = [threading.Thread(target=run, args=(index,)) for index in range(sessions)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=3 * _WAIT_S)
        assert not thread.is_alive(), "a pipeline never finished"
    for connection in connections:
        connection.close()
    assert not errors, errors
    return reads


def test_every_session_sees_its_own_statements_in_order():
    env = _cluster(worker_pool_size=2)
    try:
        reads = _pipelined_counters(env, sessions=6, statements=40)
    finally:
        env.close()
    assert reads == {index: list(range(1, 21)) for index in range(6)}


def test_worker_threads_counts_live_workers_and_stop_ends_them():
    env = _cluster(worker_pool_size=2)
    controller = env.controllers[0]
    # Same-named controllers of other tests are not this one's business.
    elsewhere = _mux_threads(controller)
    try:
        _pipelined_counters(env, sessions=6, statements=10)
        assert 0 < controller.stats()["front_end"]["worker_threads"] <= 2
    finally:
        env.close()
    for thread in _mux_threads(controller) - elsewhere:
        thread.join(timeout=_WAIT_S)
        assert not thread.is_alive(), thread.name
    assert controller.stats()["front_end"]["worker_threads"] == 0


def test_autocommit_writers_on_one_row_never_take_a_worker_beyond_the_pool():
    # Auto-commit writers of one hot row wait only for statements in
    # flight, which finish on the threads they hold: a waiting worker
    # lends its slot only to a transaction between statements.
    env = _cluster(worker_pool_size=2)
    controller = env.controllers[0]
    try:
        driver = ClusterDriverRuntime(name="hot-row-driver")
        connections = [driver.connect(env.client_url(), network=env.network) for _ in range(6)]
        assert driver.mux_channel_count() == 1
        cursor = connections[0].cursor()
        cursor.execute("CREATE TABLE hot (id INTEGER PRIMARY KEY, n INTEGER)")
        cursor.execute("INSERT INTO hot (id, n) VALUES (1, 0)")
        errors = []

        def run(connection):
            try:
                connection.execute_pipeline(
                    [("UPDATE hot SET n = n + 1 WHERE id = 1", {})] * 10, timeout=_WAIT_S
                )
            except Exception as exc:  # noqa: BLE001 - reported on the test's thread
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(connection,)) for connection in connections]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=3 * _WAIT_S)
            assert not thread.is_alive(), "a pipeline never finished"
        assert not errors, errors
        cursor.execute("SELECT n FROM hot WHERE id = 1")
        assert cursor.fetchall() == [(60,)]
        # The writers did contend, and no worker past the pool started.
        assert controller.scheduler.lock_manager.stats()["key_waits"] > 0
        assert controller._run_queue._started <= 2
        assert controller.stats()["front_end"]["worker_threads"] <= 2
        for connection in connections:
            connection.close()
    finally:
        env.close()


def test_a_pipeline_does_not_starve_a_sibling_session():
    env = _cluster(worker_pool_size=1)
    controller = env.controllers[0]
    gate = _gate(controller, "SELECT 0")
    try:
        channel = env.network.connect(controller.address, timeout=2.0)
        channel.send(make_connect("vdb", CLUSTER_PROTOCOL_VERSION, multiplex=True))
        assert channel.recv(timeout=_WAIT_S)["multiplexing"] is True
        for request_id, session_id in enumerate(("pipeline", "sibling"), start=1):
            channel.send(make_session_open(session_id, request_id))
            assert channel.recv(timeout=_WAIT_S)["type"] == ClusterMessageType.SESSION_OPEN_OK
        (state,) = controller._channels
        pipeline, sibling = state.sessions["pipeline"], state.sessions["sibling"]
        # The one worker holds the pipeline's first statement at the gate
        # until the other 199 and the sibling's one are queued behind it.
        for n in range(200):
            channel.send(make_execute(f"SELECT {n}", session_id="pipeline", request_id=10 + n))
        _wait_until(lambda: len(pipeline.queue) == 199, "the pipeline to queue")
        channel.send(make_execute("SELECT 1", session_id="sibling", request_id=500))
        _wait_until(lambda: sibling.scheduled, "the sibling to queue")
        gate.set()
        order = [channel.recv(timeout=_WAIT_S)["session_id"] for _ in range(201)]
        channel.close()
    finally:
        gate.set()
        env.close()
    # One item, then the pipeline goes back behind the sibling.
    assert order.index("sibling") == 1, order.index("sibling")


class _RecordingChannel:
    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


def test_stop_finishes_in_flight_work_and_drops_the_rest():
    env = _cluster(worker_pool_size=1)
    controller = env.controllers[0]
    gate = _gate(controller, "SELECT 0")
    # A trunk with no reader thread: the test is its reader, so nothing
    # tears the session down behind the controller's back.
    state = _ChannelState(_RecordingChannel())
    session = controller._open_session(state, "s")
    idle = controller._open_session(state, "idle")
    elsewhere = _mux_threads(controller)
    try:
        for request_id, sql in enumerate(("SELECT 0", "SELECT 1", "SELECT 2"), start=1):
            controller._on_execute(state, make_execute(sql, session_id="s", request_id=request_id))
        _wait_until(lambda: len(session.queue) == 2, "the first statement to start")
        controller.stop()
        # EXECUTEs arriving after the run queue closed are dropped: the
        # reader does not raise and no session is left scheduled.
        controller._on_execute(state, make_execute("SELECT 3", session_id="s", request_id=4))
        controller._on_execute(state, make_execute("SELECT 4", session_id="idle", request_id=5))
        assert idle.scheduled is False and len(idle.queue) == 1
        gate.set()
        workers = _mux_threads(controller) - elsewhere
        assert len(workers) == 1
        for thread in workers:
            thread.join(timeout=_WAIT_S)
            assert not thread.is_alive(), thread.name
    finally:
        gate.set()
        env.close()
    # The in-flight statement finished and was answered; its successors
    # were not put back on a closed queue.
    assert [reply["request_id"] for reply in state.channel.sent] == [1]
    assert session.scheduled is False
    assert len(session.queue) == 3
