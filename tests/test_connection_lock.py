"""One lock per replica connection (docs/scheduling.md, "Holds and
deadlock"): a connection keeps itself exclusive from a request's send to
its reply, and the backend's lock covers only choosing the backend's
shared connection. So a reply in flight on one connection, or a request
queued behind it, holds up no request on another connection to the same
replica, no checkpoint move and no lease checkout; and a request whose
shared connection a driver swap or a disable closed before it was sent
goes on the current one, or skips a replica that left the rotation, so
concurrent auto-commit reads never see the replica fail.

The stub connections have the split form and the pydb connection's
exclusivity, except one plain DB-API stub that leans on the backend's
lock; the last tests run a real cluster (pydb replicas on the in-memory
network)."""

import threading

import pytest

import chaos
from repro.cluster.backend import Backend, BackendState, Lease, ReplicaLeft
from repro.cluster.recovery import RecoveryLog
from repro.cluster.scheduler import RequestScheduler
from repro.dbapi import InterfaceError
from repro.dbapi.runtime import RuntimeDriver
from repro.experiments.environments import build_cluster


class _Replica:
    """One replica's stub connections. A request whose SQL is in
    ``stalled`` signals ``sent`` once it is on the wire, and its reply
    waits for ``release``."""

    def __init__(self, *stalled):
        self.stalled = set(stalled)
        self.sent = threading.Event()
        self.release = threading.Event()
        #: Requests that reached a connection's ``send_execute``.
        self.requests = 0
        #: Probes that reached a connection's ``ping``.
        self.pings = 0

    def connect(self):
        return _Connection(self)


class _Connection:
    """The split form with the pydb connection's exchange lock: held from
    a request's send until its reply is collected; ``close`` waits for a
    reply in flight."""

    def __init__(self, replica):
        self._replica = replica
        self._lock = threading.Lock()
        self.closed = False

    def begin(self):
        pass  # carried by the next request, as a v4 connection's is

    def send_execute(self, sql, params=None):
        self._replica.requests += 1
        self._lock.acquire()
        if self.closed:
            self._lock.release()
            raise InterfaceError("connection is closed")
        stalled = sql in self._replica.stalled
        if stalled:
            self._replica.sent.set()

        def collect():
            try:
                if stalled:
                    assert self._replica.release.wait(timeout=10.0)
                return ["v"], [(1,)], 1
            finally:
                self._lock.release()

        return collect

    def ping(self):
        """A PING exchange: it waits for a reply in flight, as any request does."""
        self._replica.pings += 1
        with self._lock:
            return not self.closed

    def close(self):
        self.closed = True
        with self._lock:
            pass


def _finishes(call, timeout=2.0):
    """Whether ``call()`` returns within ``timeout`` on another thread."""
    done = threading.Event()
    thread = threading.Thread(target=lambda: (call(), done.set()), daemon=True)
    thread.start()
    return done.wait(timeout)


def _in_flight(call, replica):
    """Run ``call`` on a thread until its stalled request is on the wire."""
    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    assert replica.sent.wait(timeout=5.0)
    return thread


def test_a_transactions_statement_runs_while_another_transactions_reply_is_awaited():
    """(a) Two transactions on one replica, each on its own lease: B's
    statement completes while A's reply is still in flight."""
    replica = _Replica("SELECT v FROM a")
    scheduler = RequestScheduler([Backend("db1", replica.connect)], RecoveryLog())
    for session in ("A", "B"):
        scheduler.execute("BEGIN", session_id=session)
    first = _in_flight(
        lambda: scheduler.execute("SELECT v FROM a", in_transaction=True, session_id="A"), replica
    )
    assert _finishes(lambda: scheduler.execute("SELECT v FROM b", in_transaction=True, session_id="B"))
    replica.release.set()
    first.join(timeout=5.0)
    assert not first.is_alive()
    for session in ("A", "B"):
        scheduler.execute("COMMIT", session_id=session)
    assert scheduler.open_transactions == 0
    scheduler.close()


@pytest.mark.parametrize("on", ["lease", "shared"])
def test_a_reply_in_flight_holds_up_no_checkpoint_move_and_no_checkout(on):
    """(b) While a request on a lease or on the shared connection awaits
    its reply, the backend moves its checkpoint (what a write round does
    under the scheduler's state lock) and checks out another lease."""
    replica = _Replica("STALL")
    backend = Backend("db1", replica.connect)
    lease = Lease(backend) if on == "lease" else None
    first = _in_flight(lambda: backend.execute("STALL", lease=lease), replica)
    assert _finishes(lambda: backend.advance_checkpoint(7, [{"t": 1}]))
    other = Lease(backend)
    assert _finishes(other.open)
    assert backend.checkpoint_index == 7 and ("t", 1) in backend.applied_seqs
    assert other.connection is not None and not other.connection.closed
    replica.release.set()
    first.join(timeout=5.0)
    assert not first.is_alive()


def test_a_request_queued_on_the_shared_connection_holds_up_no_checkpoint_move_and_no_checkout():
    """A second auto-commit request waits for the shared connection, whose
    reply is in flight, without the backend's lock: the checkpoint moves
    and a lease checks out meanwhile."""
    replica = _Replica("STALL")
    backend = Backend("db1", replica.connect)
    first = _in_flight(lambda: backend.execute("STALL"), replica)
    results = []
    second = threading.Thread(target=lambda: results.append(backend.execute("SELECT 2")), daemon=True)
    second.start()
    assert chaos.wait_until(lambda: replica.requests == 2)
    assert _finishes(lambda: backend.advance_checkpoint(3), timeout=1.0)
    assert _finishes(Lease(backend).open, timeout=1.0)
    assert backend.checkpoint_index == 3 and second.is_alive()
    replica.release.set()
    for thread in (first, second):
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    assert results == [(["v"], [(1,)], 1)]


def test_a_heartbeat_behind_a_reply_in_flight_holds_up_no_checkpoint_move_and_no_checkout():
    """A ping of the shared connection, whose reply is in flight, waits
    for that reply without the backend's lock: the checkpoint moves and a
    lease checks out meanwhile, and the probe then finds the replica alive."""
    replica = _Replica("STALL")
    backend = Backend("db1", replica.connect)
    first = _in_flight(lambda: backend.execute("STALL"), replica)
    pinged = []
    heartbeat = threading.Thread(target=lambda: pinged.append(backend.ping()), daemon=True)
    heartbeat.start()
    assert chaos.wait_until(lambda: replica.pings == 1)
    assert _finishes(lambda: backend.advance_checkpoint(3), timeout=1.0)
    assert _finishes(Lease(backend).open, timeout=1.0)
    assert backend.checkpoint_index == 3 and heartbeat.is_alive()
    replica.release.set()
    for thread in (first, heartbeat):
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    assert pinged == [True]


class _PlainConnection:
    """A DB-API connection with no split form and no lock of its own: it
    relies on the backend's lock to serialise its use. ``overlapped``
    records a call made while another was running on it."""

    def __init__(self, replica):
        self._replica = replica
        self.running = 0
        self.overlapped = False
        self.closed = False

    def _run(self, stall):
        self.running += 1
        self.overlapped |= self.running > 1
        try:
            if stall:
                self._replica.sent.set()
                assert self._replica.release.wait(timeout=10.0)
        finally:
            self.running -= 1

    def cursor(self):
        connection = self

        class Cursor:
            description, rowcount = [("v",)], 1

            def execute(self, sql, params=None):
                connection._run(sql in connection._replica.stalled)

            def fetchall(self):
                return [(1,)]

            def close(self):
                pass

        return Cursor()

    def ping(self):
        self._replica.pings += 1
        self._run(False)
        return True

    def close(self):
        self.closed = True


def test_a_connection_without_the_split_form_is_probed_under_the_backends_lock(monkeypatch):
    """A request that reaches the shared connection while a ping has
    chosen it waits for the probe, when the connection has no split
    form: the two never run on it at the same time."""
    replica = _Replica("STALL")
    connection = _PlainConnection(replica)
    backend = Backend("db1", lambda: connection)
    choose = backend._ensure_connection
    requests = []

    def choose_then_request():
        chosen = choose()
        if not requests:
            requests.append(threading.Thread(target=backend.execute, args=("STALL",), daemon=True))
            requests[0].start()
            replica.sent.wait(timeout=0.3)  # it cannot start while the probe holds the lock
        return chosen

    monkeypatch.setattr(backend, "_ensure_connection", choose_then_request)
    assert backend.ping() is True
    replica.release.set()
    requests[0].join(timeout=5.0)
    assert not requests[0].is_alive()
    assert replica.pings == 1 and not connection.overlapped


def test_a_failed_probe_closes_only_the_probed_connection():
    """A probe that fails closes the connection it probed; a lease checked
    out meanwhile keeps its own."""
    replica = _Replica()
    backend = Backend("db1", replica.connect)
    lease = Lease(backend)
    lease.open()
    probed = backend._ensure_connection()
    probed.ping = lambda: False
    assert backend.ping() is False
    assert probed.closed and not lease.connection.closed
    assert backend._ensure_connection() is not probed


@pytest.mark.parametrize("change", ["swap", "disable"])
def test_a_shared_connection_closed_before_the_send_is_replaced_or_the_replica_left(change, monkeypatch):
    """A driver swap or a disable between choosing the shared connection
    and sending on it: after a swap the request goes on the backend's new
    connection; after a disable it fails as ReplicaLeft, and no
    connection is opened to the disabled replica."""
    replica = _Replica()
    opened = []
    backend = Backend("db1", lambda: opened.append(replica.connect()) or opened[-1])
    choose = backend._ensure_connection

    def choose_then_change():
        connection = choose()
        if len(opened) == 1:
            if change == "swap":
                backend.replace_connection_factory(backend._connection_factory)
            else:
                backend.disable(0)
        return connection

    monkeypatch.setattr(backend, "_ensure_connection", choose_then_change)
    if change == "swap":
        assert backend.execute("SELECT 1") == (["v"], [(1,)], 1)
        assert len(opened) == 2 and opened[0].closed and not opened[1].closed
    else:
        with pytest.raises(ReplicaLeft):
            backend.execute("SELECT 1")
        assert len(opened) == 1 and opened[0].closed


def test_a_transactions_point_read_runs_beside_a_write_to_another_row():
    """A transaction's ``SELECT … WHERE id = 2`` takes the key t[2], not
    the table: it completes while an auto-commit write to row 3 is in
    flight, and the same read of row 3 waits for that write."""
    update = "UPDATE st SET v = 1 WHERE id = 3"
    replica = _Replica(update)
    scheduler = RequestScheduler(
        [Backend("db1", replica.connect)], RecoveryLog(), primary_keys={"st": ("id", "INTEGER")}
    )
    scheduler.execute("BEGIN", session_id="s")
    write = _in_flight(lambda: scheduler.execute(update), replica)
    read = "SELECT v FROM st WHERE id = 2"
    assert _finishes(lambda: scheduler.execute(read, in_transaction=True, session_id="s"))
    same_row = threading.Thread(
        target=scheduler.execute,
        args=("SELECT v FROM st WHERE id = 3",),
        kwargs={"in_transaction": True, "session_id": "s"},
        daemon=True,
    )
    same_row.start()
    assert chaos.wait_until(lambda: scheduler.lock_manager.stats()["scope_waiters"] == 1)
    assert same_row.is_alive()
    replica.release.set()
    for thread in (write, same_row):
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    scheduler.execute("COMMIT", session_id="s")
    scheduler.close()


@pytest.fixture
def cluster():
    env = build_cluster(replicas=2, controllers=1)
    scheduler = env.controllers[0].scheduler
    scheduler.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    scheduler.execute("INSERT INTO t (id, v) VALUES (1, 10)")
    yield env
    env.close()


def _reading(scheduler, stop, errors):
    def read():
        while not stop.is_set():
            try:
                assert scheduler.execute("SELECT v FROM t WHERE id = 1")[1] == [(10,)]
            except Exception as exc:  # noqa: BLE001 - reported on the test's thread
                errors.append(exc)
                return

    threads = [threading.Thread(target=read, daemon=True) for _ in range(3)]
    for thread in threads:
        thread.start()
    return threads


@pytest.mark.parametrize("change", ["swap", "disable"])
def test_a_driver_swap_or_disable_under_auto_commit_reads_never_fails_the_replica(
    cluster, change, monkeypatch
):
    """Reads on the pydb connections keep running while ``db1``'s
    driver is swapped (``replace_connection_factory``) or ``db1`` is
    disabled and re-enabled, round after round: no read fails and no
    replica is ever marked FAILED."""
    failed = []
    mark_failed = Backend.mark_failed
    monkeypatch.setattr(Backend, "mark_failed", lambda b: (failed.append(b.name), mark_failed(b)))
    controller = cluster.controllers[0]
    backend = controller.backend("db1")
    driver = RuntimeDriver()
    url = cluster.replica_url(0)
    stop, errors = threading.Event(), []
    readers = _reading(controller.scheduler, stop, errors)
    try:
        for _ in range(20):
            served = backend.statements_executed
            if change == "swap":
                backend.replace_connection_factory(lambda: driver.connect(url, network=cluster.network))
            else:
                controller.disable_backend("db1")
                controller.enable_backend("db1")
            # db1 serves reads again before the next change.
            assert chaos.wait_until(lambda: backend.statements_executed > served or errors)
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=10.0)
    assert not any(thread.is_alive() for thread in readers)
    assert errors == [] and failed == []
    assert all(b.state is BackendState.ENABLED for b in controller.backends())
