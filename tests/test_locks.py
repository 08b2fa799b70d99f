"""Unit tests for the conflict-aware lock manager."""

import threading

import pytest

import chaos
from repro.cluster.locks import EXCLUSIVE, LockManager, LockScope


def _tables(*tables):
    """The scope of a write that locks whole tables."""
    return LockScope(tables=frozenset(tables))


def _spawn(target):
    thread = threading.Thread(target=target)
    thread.start()
    return thread


def _blocked(manager, scope=0, exclusive=0):
    """Wait (event-gated, no fixed sleep) until the expected number of
    workers are parked inside the manager — the live waiter gauges make
    "the other thread has started blocking" observable instead of
    guessed at with time.sleep."""
    assert chaos.wait_until(
        lambda: manager.stats()["scope_waiters"] >= scope
        and manager.stats()["exclusive_waiters"] >= exclusive
    ), f"workers never blocked (wanted scope={scope}, exclusive={exclusive})"


class TestTableScope:
    def test_disjoint_tables_overlap(self):
        manager = LockManager()
        inside = threading.Barrier(2, timeout=5.0)

        def worker(table):
            with manager.scope(_tables(table)):
                inside.wait()  # both workers hold their lock at once

        workers = [_spawn(lambda t=t: worker(t)) for t in ("a", "b")]
        for worker_thread in workers:
            worker_thread.join(timeout=5.0)
        assert not any(w.is_alive() for w in workers)
        assert manager.stats()["table_acquisitions"] == 2
        assert manager.stats()["table_waits"] == 0

    def test_conflicting_tables_serialise(self):
        manager = LockManager()
        order = []
        held = threading.Event()
        release = threading.Event()

        def first():
            with manager.scope(_tables("a", "b")):
                held.set()
                release.wait(timeout=5.0)
                order.append("first")

        def second():
            held.wait(timeout=5.0)
            with manager.scope(_tables("b", "c")):
                order.append("second")

        threads = [_spawn(first), _spawn(second)]
        held.wait(timeout=5.0)
        _blocked(manager, scope=1)
        assert order == []
        release.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert order == ["first", "second"]
        assert manager.stats()["table_waits"] == 1

    def test_empty_table_set_is_refused(self):
        # No tables is the empty scope: an unknown footprint, which must
        # take exclusive() rather than lock nothing.
        with pytest.raises(ValueError):
            LockManager().acquire_scope(_tables())

    def test_locks_released_on_error(self):
        manager = LockManager()
        with pytest.raises(RuntimeError):
            with manager.scope(_tables("a")):
                raise RuntimeError("boom")
        # The scope is free again.
        with manager.scope(_tables("a")):
            pass
        assert manager.stats()["tables_held"] == 0


class TestExclusiveScope:
    def test_exclusive_waits_for_table_scopes_to_drain(self):
        manager = LockManager()
        table_held = threading.Event()
        release_table = threading.Event()
        order = []

        def table_worker():
            with manager.scope(_tables("a")):
                table_held.set()
                release_table.wait(timeout=5.0)
                order.append("table")

        def exclusive_worker():
            table_held.wait(timeout=5.0)
            with manager.exclusive():
                order.append("exclusive")

        threads = [_spawn(table_worker), _spawn(exclusive_worker)]
        table_held.wait(timeout=5.0)
        _blocked(manager, exclusive=1)
        assert order == []  # exclusive is blocked behind the table scope
        release_table.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert order == ["table", "exclusive"]
        assert manager.stats()["exclusive_waits"] == 1

    def test_waiting_exclusive_blocks_new_table_scopes(self):
        # No starvation: once an exclusive caller waits, fresh table
        # acquisitions queue behind it even for uncontended tables.
        manager = LockManager()
        first_held = threading.Event()
        release_first = threading.Event()
        order = []

        def first_table():
            with manager.scope(_tables("a")):
                first_held.set()
                release_first.wait(timeout=5.0)

        def exclusive_worker():
            with manager.exclusive():
                order.append("exclusive")

        def late_table():
            with manager.scope(_tables("b")):
                order.append("late-table")

        t1 = _spawn(first_table)
        first_held.wait(timeout=5.0)
        t2 = _spawn(exclusive_worker)
        _blocked(manager, exclusive=1)
        t3 = _spawn(late_table)
        _blocked(manager, scope=1, exclusive=1)
        assert order == []  # the late table scope queued behind exclusive
        release_first.set()
        for thread in (t1, t2, t3):
            thread.join(timeout=5.0)
        assert order[0] == "exclusive"

    def test_exclusive_is_reentrant_per_thread(self):
        manager = LockManager()
        with manager.exclusive():
            with manager.exclusive():
                assert manager.stats()["exclusive_held"] is True
            assert manager.stats()["exclusive_held"] is True
        assert manager.stats()["exclusive_held"] is False

    def test_release_by_non_owner_is_refused(self):
        manager = LockManager()
        errors = []
        manager.acquire_exclusive()

        def rogue():
            try:
                manager.release_exclusive()
            except RuntimeError as exc:
                errors.append(exc)

        thread = _spawn(rogue)
        thread.join(timeout=5.0)
        manager.release_exclusive()
        assert len(errors) == 1


class TestKeyScope:
    def test_disjoint_keys_on_one_table_overlap(self):
        manager = LockManager()
        inside = threading.Barrier(2, timeout=5.0)

        def worker(key):
            with manager.scope(LockScope(keys=frozenset({("t", key)}))):
                inside.wait()  # both workers hold a key on t at once

        workers = [_spawn(lambda k=k: worker(k)) for k in (1, 2)]
        for worker_thread in workers:
            worker_thread.join(timeout=5.0)
        assert not any(w.is_alive() for w in workers)
        stats = manager.stats()
        assert stats["key_acquisitions"] == 2
        assert stats["key_waits"] == 0
        assert stats["table_acquisitions"] == 0

    def test_same_key_serialises(self):
        manager = LockManager()
        order = []
        held = threading.Event()
        release = threading.Event()
        scope = LockScope(keys=frozenset({("t", 7)}))

        def first():
            with manager.scope(scope):
                held.set()
                release.wait(timeout=5.0)
                order.append("first")

        def second():
            held.wait(timeout=5.0)
            with manager.scope(scope):
                order.append("second")

        threads = [_spawn(first), _spawn(second)]
        held.wait(timeout=5.0)
        _blocked(manager, scope=1)
        assert order == []
        release.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert order == ["first", "second"]
        assert manager.stats()["key_waits"] == 1

    def test_held_key_blocks_whole_table_scope(self):
        # table↔key conflicts must cut both ways: a DDL taking the whole
        # table has to wait for in-flight row writes.
        manager = LockManager()
        order = []
        held = threading.Event()
        release = threading.Event()

        def key_holder():
            with manager.scope(LockScope(keys=frozenset({("t", 1)}))):
                held.set()
                release.wait(timeout=5.0)
                order.append("key")

        def table_taker():
            held.wait(timeout=5.0)
            with manager.scope(_tables("t")):
                order.append("table")

        threads = [_spawn(key_holder), _spawn(table_taker)]
        held.wait(timeout=5.0)
        _blocked(manager, scope=1)
        assert order == []  # the table scope is blocked behind the key
        release.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert order == ["key", "table"]
        assert manager.stats()["table_waits"] == 1

    def test_held_table_blocks_key_scope(self):
        manager = LockManager()
        order = []
        held = threading.Event()
        release = threading.Event()

        def table_holder():
            with manager.scope(_tables("t")):
                held.set()
                release.wait(timeout=5.0)
                order.append("table")

        def key_taker():
            held.wait(timeout=5.0)
            with manager.scope(LockScope(keys=frozenset({("t", 1)}))):
                order.append("key")

        threads = [_spawn(table_holder), _spawn(key_taker)]
        held.wait(timeout=5.0)
        _blocked(manager, scope=1)
        assert order == []
        release.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert order == ["table", "key"]
        assert manager.stats()["key_waits"] == 1

    def test_key_on_other_table_unaffected_by_table_scope(self):
        manager = LockManager()
        inside = threading.Barrier(2, timeout=5.0)

        def table_worker():
            with manager.scope(_tables("a")):
                inside.wait()

        def key_worker():
            with manager.scope(LockScope(keys=frozenset({("b", 1)}))):
                inside.wait()

        workers = [_spawn(table_worker), _spawn(key_worker)]
        for worker_thread in workers:
            worker_thread.join(timeout=5.0)
        assert not any(w.is_alive() for w in workers)
        assert manager.stats()["key_waits"] == 0
        assert manager.stats()["table_waits"] == 0

    def test_exclusive_waits_for_key_scopes_to_drain(self):
        manager = LockManager()
        key_held = threading.Event()
        release_key = threading.Event()
        order = []

        def key_worker():
            with manager.scope(LockScope(keys=frozenset({("t", 1)}))):
                key_held.set()
                release_key.wait(timeout=5.0)
                order.append("key")

        def exclusive_worker():
            key_held.wait(timeout=5.0)
            with manager.exclusive():
                order.append("exclusive")

        threads = [_spawn(key_worker), _spawn(exclusive_worker)]
        key_held.wait(timeout=5.0)
        _blocked(manager, exclusive=1)
        assert order == []
        release_key.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert order == ["key", "exclusive"]

    def test_mixed_scope_takes_tables_and_keys_atomically(self):
        manager = LockManager()
        scope = LockScope(tables=frozenset({"a"}), keys=frozenset({("b", 5)}))
        with manager.scope(scope):
            stats = manager.stats()
            assert stats["tables_held"] == 1
            assert stats["keys_held"] == 1
            assert stats["key_tables_held"] == 1
        stats = manager.stats()
        assert stats["tables_held"] == 0
        assert stats["keys_held"] == 0
        assert stats["key_tables_held"] == 0

    def test_empty_scope_is_refused(self):
        with pytest.raises(ValueError):
            LockManager().acquire_scope(LockScope())


class TestExclusiveSelfDeadlock:
    """Regression: a thread already holding the exclusive mode used to
    deadlock itself by acquiring any narrower scope — the wait loop
    blocked on ``_exclusive_owner`` clearing, i.e. on itself. Recovery
    paths re-entering the scheduler hit exactly this."""

    def _assert_completes(self, body):
        done = threading.Event()
        failures = []

        def runner():
            try:
                body()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)
            finally:
                done.set()

        thread = _spawn(runner)
        thread.join(timeout=5.0)
        assert done.is_set(), "acquisition deadlocked against own exclusive hold"
        assert failures == []

    def test_table_scope_under_own_exclusive_is_a_noop(self):
        manager = LockManager()

        def body():
            with manager.exclusive():
                with manager.scope(_tables("a", "b")):
                    # Nothing extra is held: exclusive covers it all.
                    assert manager.stats()["tables_held"] == 0
                assert manager.stats()["exclusive_held"] is True

        self._assert_completes(body)
        stats = manager.stats()
        assert stats["covered_by_exclusive"] == 1
        assert stats["exclusive_held"] is False
        assert stats["tables_held"] == 0

    def test_key_scope_under_own_exclusive_is_a_noop(self):
        manager = LockManager()

        def body():
            with manager.exclusive():
                with manager.scope(LockScope(keys=frozenset({("t", 1)}))):
                    assert manager.stats()["keys_held"] == 0

        self._assert_completes(body)
        assert manager.stats()["covered_by_exclusive"] == 1

    def test_acquire_scope_under_own_exclusive_holds_nothing(self):
        manager = LockManager()

        def body():
            manager.acquire_exclusive()
            try:
                held = manager.acquire_scope(_tables("a"))
                # The empty hold releases as a no-op — the later
                # release_scope must not underflow any counter.
                assert held == EXCLUSIVE
                manager.release_scope(held)
            finally:
                manager.release_exclusive()

        self._assert_completes(body)
        stats = manager.stats()
        assert stats["active_table_ops"] == 0
        assert stats["covered_by_exclusive"] == 1

    def test_other_threads_still_blocked_while_exclusive_held(self):
        # The excusal is strictly per-owner: another thread's table scope
        # still queues behind the exclusive hold.
        manager = LockManager()
        in_exclusive = threading.Event()
        release = threading.Event()
        order = []

        def owner():
            with manager.exclusive():
                with manager.scope(_tables("a")):  # self: no-op, no deadlock
                    in_exclusive.set()
                    release.wait(timeout=5.0)
                    order.append("owner")

        def outsider():
            in_exclusive.wait(timeout=5.0)
            with manager.scope(_tables("a")):
                order.append("outsider")

        threads = [_spawn(owner), _spawn(outsider)]
        in_exclusive.wait(timeout=5.0)
        _blocked(manager, scope=1)
        assert order == []  # outsider waits; owner proceeds
        release.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert order == ["owner", "outsider"]


class TestScope:
    def test_scope_with_tables_takes_table_locks(self):
        manager = LockManager()
        scope = LockScope(tables=frozenset({"a"}))
        assert scope.kind == "table"
        with manager.scope(scope):
            stats = manager.stats()
            assert stats["tables_held"] == 1
            assert stats["exclusive_held"] is False

    def test_empty_scope_takes_exclusive(self):
        manager = LockManager()
        assert EXCLUSIVE == LockScope() and EXCLUSIVE.kind == "exclusive"
        with manager.scope(EXCLUSIVE):
            stats = manager.stats()
            assert stats["exclusive_held"] is True
            assert stats["tables_held"] == 0
