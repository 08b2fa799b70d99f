"""The write round's contract (docs/scheduling.md §5): a round runs on
the calling thread and sends every target its next request before it
waits on any reply, so it costs one round trip however many replicas it
reaches — without a thread pool.

What else it promises: each target sees its statements in batch order
with at most one request in flight; a connection fault stops that
target's batch (and only that target's); outcomes come back in the
caller's target order; a round aborted part-way still collects every
request it sent and leaves no backend lock held; and concurrent rounds
neither deadlock on single-threaded connections nor serialise on shared
ones."""

import threading
import time

from repro.cluster.backend import Backend
from repro.cluster.broadcaster import WriteBroadcaster
from repro.dbapi import OperationalError
from repro.experiments.concurrency import SimConnection

STATEMENTS = [(f"S{n}", None) for n in range(1, 5)]


class _SplitConnection:
    """A connection with the split form whose replies queue in order, as
    on a wire: a request never collected leaves its reply for the next
    one to read. ``log`` (shared between connections) records every send
    and collect as ``(name, "send" | "collect", sql)``; ``fail`` maps SQL
    to the exception its reply raises, ``send_fault`` to the exception
    its send raises."""

    def __init__(self, name, log, fail=None, send_fault=None):
        self.name = name
        self.log = log
        self.fail = dict(fail or {})
        self.send_fault = dict(send_fault or {})
        self.replies = []
        self.closed = False

    def send_execute(self, sql, params=None):
        if sql in self.send_fault:
            raise self.send_fault[sql]
        self.log.append((self.name, "send", sql))
        self.replies.append(sql)

        def collect():
            answered = self.replies.pop(0)
            self.log.append((self.name, "collect", answered))
            if answered in self.fail:
                raise self.fail[answered]
            return ["sql"], [(answered,)], 1

        return collect

    def close(self):
        self.closed = True


def _split_backends(log, names, **faults):
    connections = {name: _SplitConnection(name, log, **faults.get(name, {})) for name in names}
    return [Backend(name, lambda name=name: connections[name]) for name in names], connections


def _lock_is_free(backend):
    """Whether another thread can take the backend's lock right now."""
    taken = []

    def probe():
        if backend._lock.acquire(timeout=1.0):
            taken.append(True)
            backend._lock.release()

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join(timeout=5.0)
    return taken == [True]


def test_round_overlaps_replicas_on_the_calling_thread(monkeypatch):
    """(a) Three replicas 20 ms away: a round costs one round trip,
    three one-target rounds cost three — and none starts a thread."""
    backends = [Backend(f"sim{n}", lambda: SimConnection(0.02, threadsafety=1)) for n in range(3)]

    def no_threads(self):
        raise AssertionError("a broadcast round started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    broadcaster = WriteBroadcaster()

    def timed(*rounds):
        started = time.perf_counter()
        for targets in rounds:
            outcome = broadcaster.broadcast(targets, "UPDATE t SET v = 1 WHERE id = 1")
            assert len(outcome.succeeded) == len(targets)
        return time.perf_counter() - started

    assert min(timed(backends) for _ in range(3)) < 2 * 0.02
    assert timed(*[[backend] for backend in backends]) >= 3 * 0.02


def test_each_target_runs_its_batch_in_order_and_stops_at_a_connection_fault():
    """(b) One step sends to every target before collecting any; each
    target has one request in flight; the target that dies at statement
    2 of 4 is never sent 3 or 4, its siblings run all four, and outcomes
    come back in the caller's order."""
    log = []
    dead = OperationalError("connection reset")
    backends, connections = _split_backends(log, ["c", "a", "b"], b={"fail": {"S2": dead}})
    batch = WriteBroadcaster().broadcast_batch(backends, STATEMENTS)

    assert [[o.backend.name for o in per_backend] for per_backend in batch.outcomes] == [
        ["c"] * 4, ["a"] * 4, ["b"] * 4
    ]
    failing = batch.outcomes[2]
    assert failing[0].ok and [o.error for o in failing[1:]] == [dead] * 3
    assert all(o.ok for o in batch.outcomes[0] + batch.outcomes[1])
    assert batch.per_statement(3).result == (["sql"], [("S4",)], 1)
    sent = {name: [sql for who, kind, sql in log if who == name and kind == "send"] for name in "abc"}
    assert sent == {"a": ["S1", "S2", "S3", "S4"], "b": ["S1", "S2"], "c": ["S1", "S2", "S3", "S4"]}
    assert connections["b"].closed and not connections["a"].closed
    # Steps 1-2: every send in name order, then every collect.
    assert log[:6] == [(name, "send", "S1") for name in "abc"] + [
        (name, "collect", "S1") for name in "abc"
    ]
    for name in "abc":
        mine = [kind for who, kind, _ in log if who == name]
        assert mine == ["send", "collect"] * (len(mine) // 2)


class _Abort(BaseException):
    """Unwinds a round the way an interrupt would: past every
    ``except Exception``."""


def test_aborted_round_collects_what_it_sent_and_holds_no_lock():
    """(c) The third target's send raises after the first two were sent
    to: their requests are still collected, so the next statement on
    each gets its own reply, and every backend lock is free."""
    log = []
    backends, _ = _split_backends(log, ["a", "b", "c"], c={"send_fault": {"S1": _Abort()}})
    try:
        WriteBroadcaster().broadcast(backends, "S1")
    except _Abort:
        pass
    else:
        raise AssertionError("the abort did not propagate")
    assert [(who, kind) for who, kind, _ in log] == [
        ("a", "send"), ("b", "send"), ("a", "collect"), ("b", "collect")
    ]
    for backend in backends:
        assert _lock_is_free(backend), backend.name
        assert backend.pending == 0
    for backend in backends[:2]:
        assert backend.execute("NEXT") == (["sql"], [("NEXT",)], 1)


def test_concurrent_rounds_on_single_threaded_connections_do_not_deadlock():
    """(d) Two threads, 200 rounds each, over the same three
    threadsafety-1 replicas listed in opposite orders: a round holds each
    connection from send to collect, so only one fixed send order keeps
    the two from waiting on each other."""
    backends = [
        Backend(name, lambda: SimConnection(0.0002, threadsafety=1)) for name in ("a", "b", "c")
    ]
    broadcaster = WriteBroadcaster()
    failures = []

    def writer(targets):
        for _ in range(200):
            outcome = broadcaster.broadcast(targets, "UPDATE t SET v = 1 WHERE id = 1")
            failures.extend(outcome.failure_messages())

    threads = [
        threading.Thread(target=writer, args=(order,))
        for order in (backends, list(reversed(backends)))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert broadcaster.stats()["broadcasts"] == 400


def test_concurrent_rounds_share_a_threadsafe_connection():
    """(e) Four rounds at once on one threadsafety-2 replica 50 ms away
    overlap: the backend lock is not held across a shared connection's
    round trip."""
    backend = Backend("shared", lambda: SimConnection(0.05, threadsafety=2))
    backend.execute("SELECT 1")  # connect before the clock starts
    broadcaster = WriteBroadcaster()
    barrier = threading.Barrier(5)
    results = []

    def writer():
        barrier.wait()
        results.append(broadcaster.broadcast([backend], "UPDATE t SET v = 1 WHERE id = 1").result)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=10.0)
    assert time.perf_counter() - started < 2 * 0.05
    assert results == [(["ok"], [[1]], 1)] * 4
