"""Reusable fault-injection helpers for HA, recovery, and failover tests.

Before this module, every test that needed a fault built its own ad-hoc
one (`network.kill_endpoint` + `close_connection` pairs, reaching into
`scheduler._resyncing`, ...). These helpers name the faults once, with
the *correct* composition for each — e.g. crashing a controller must
kill its endpoint *before* stopping it, or the stop's final flush would
run one last replication round the crash is supposed to lose.

Seeding: randomised tests draw their RNG from :func:`seeded_rng`. The
seed comes from ``REPRO_CHAOS_SEED`` when set (replay a failure) or from
entropy otherwise, and is always echoed — both printed at draw time and
attached to the failing test's report by the repo conftest — so any
failing interleaving is reproducible with::

    REPRO_CHAOS_SEED=<seed> python -m pytest tests/test_ha.py -k <test>

On controller-to-controller faults: the in-memory network's
``partition(a, b)`` matches channels by exact (local, remote) address
pairs, and everything one controller says to another — replication
rounds, election probes, group operations — leaves through a
``PeerLink`` opened *as* the controller's own address
(``network.connect(..., source=)``). A partition between two controller
listener addresses therefore severs everything the two say to each
other (:func:`partitioned_replication_link`,
:func:`isolated_controller`), a killed endpoint neither hears nor
speaks, and client channels — which originate from anonymous
``client-N`` addresses — are left alone.
"""

from __future__ import annotations

import contextlib
import os
import random
import time
from typing import Any, Callable, Iterator, Optional

#: Seed of the most recent seeded_rng() draw, echoed by the repo
#: conftest on test failure so the interleaving can be replayed.
LAST_SEED: Optional[int] = None


def chaos_seed() -> int:
    """The active chaos seed: ``REPRO_CHAOS_SEED`` when set, fresh
    entropy otherwise. Recorded in :data:`LAST_SEED` either way."""
    global LAST_SEED
    env = os.environ.get("REPRO_CHAOS_SEED")
    seed = int(env) if env else random.SystemRandom().randrange(2**32)
    LAST_SEED = seed
    return seed


def seeded_rng() -> "tuple[random.Random, int]":
    """A ``(rng, seed)`` pair for a randomised test; prints the rerun
    line so the seed survives even when only stdout was captured."""
    seed = chaos_seed()
    print(f"chaos seed: {seed} (rerun with REPRO_CHAOS_SEED={seed})")
    return random.Random(seed), seed


# -- controller faults ---------------------------------------------------------


def crash_controller(env: Any, controller: Any) -> None:
    """Kill a controller as a crash would: its endpoint dies first (no
    frame — not even a final replication round — escapes), then the
    process state is torn down without the graceful stop's final log
    flush. This is the fault that strands a primary's unreplicated log
    suffix."""
    env.network.kill_endpoint(controller.address)
    controller.stop(flush=False)


def graceful_stop(env: Any, controller: Any) -> None:
    """Planned shutdown: the final flush (and, on an HA primary, the
    final replication round) runs, then the endpoint goes dark."""
    controller.stop()
    env.network.kill_endpoint(controller.address)


def revive_controller(env: Any, controller: Any) -> None:
    """Bring a killed controller back (endpoint + listener)."""
    env.network.revive_endpoint(controller.address)
    controller.start()


# -- backend (replica database) faults ----------------------------------------


def fail_backend(env: Any, controllers: Any, replica_index: int) -> None:
    """Kill one replica database server and drop every controller's
    pooled connection to it — the composition the recovery tests
    previously spelled out inline. (A pooled channel to a killed
    endpoint already fails on its next send; dropping it makes every
    controller observe the death as a refused connect.)"""
    env.network.kill_endpoint(env.replica_addresses[replica_index])
    if not isinstance(controllers, (list, tuple)):
        controllers = [controllers]
    for controller in controllers:
        for backend in controller.backends():
            backend.close_connection()


def revive_backend(env: Any, replica_index: int) -> None:
    env.network.revive_endpoint(env.replica_addresses[replica_index])


# -- controller-to-controller link faults ---------------------------------------


@contextlib.contextmanager
def partitioned_replication_link(primary: Any, peer_address: str) -> Iterator[None]:
    """Partition the two controllers from each other at the network:
    nothing either says to the other gets through — replication rounds
    and their acks, election probes, group operations — while every
    other channel, including clients of both nodes, is untouched."""
    primary.network.partition(primary.address, peer_address)
    try:
        yield
    finally:
        primary.network.heal_partition(primary.address, peer_address)


@contextlib.contextmanager
def isolated_controller(env: Any, controller: Any) -> Iterator[None]:
    """Partition ``controller`` from every other controller (healed on
    exit): it keeps running and keeps its clients, but is alone on its
    side of the controller tier."""
    others = [c.address for c in env.controllers if c is not controller]
    for address in others:
        env.network.partition(controller.address, address)
    try:
        yield
    finally:
        for address in others:
            env.network.heal_partition(controller.address, address)


@contextlib.contextmanager
def injected_latency(env: Any, seconds: float) -> Iterator[None]:
    """Network-wide per-send latency (the in-memory network has no
    per-link latency), covering the replication link among everything
    else."""
    env.network.set_latency(seconds)
    try:
        yield
    finally:
        env.network.set_latency(0.0)


def drop_every_nth_message(env: Any, n: int) -> None:
    """Deterministically drop every n-th sent message network-wide
    (0 disables)."""
    env.network.drop_every_nth_message(n)


@contextlib.contextmanager
def crash_after_next_replication(env: Any, controller: Any) -> Iterator[Any]:
    """Arm a one-shot crash on ``controller`` (an HA primary) that fires
    *after* its next replication round ships — the
    crash-between-append-and-ack window: followers hold the entries, but
    the primary's endpoint dies before its client learns the write
    committed. Yields a ``fired`` callable reporting whether the window
    triggered; on exit the controller is fully torn down (crash-style,
    no final flush) from the caller's thread — the hook itself only
    kills the endpoint, because a full stop() from inside the very
    worker thread that is mid-flush would tear down its own pool."""
    store = controller.ha_store
    original = store.replicate
    state = {"fired": False}

    def replicate_then_crash(*args: Any, **kwargs: Any) -> Any:
        result = original(*args, **kwargs)
        if not state["fired"]:
            state["fired"] = True
            env.network.kill_endpoint(controller.address)
        return result

    store.replicate = replicate_then_crash
    try:
        yield lambda: state["fired"]
    finally:
        store.replicate = original
        if state["fired"]:
            controller.stop(flush=False)


# -- scheduler-state fakes -----------------------------------------------------


@contextlib.contextmanager
def resync_freeze(controller: Any) -> Iterator[None]:
    """Hold a controller in its 'replaying the recovery log' state (the
    ``controller_recovering`` bounce) without an actual replay — the
    fault the driver-failover tests previously faked by poking
    ``scheduler._resyncing`` inline."""
    controller.scheduler._resyncing = True
    try:
        yield
    finally:
        controller.scheduler._resyncing = False


# -- coordination --------------------------------------------------------------


def wait_until(
    predicate: Callable[[], bool], timeout: float = 5.0, interval: float = 0.002
) -> bool:
    """Bounded condition poll for states that expose no event to wait on
    (session teardown, detector claims...). Returns as soon as the
    predicate holds — unlike a blind ``time.sleep(guess)`` it adds no
    fixed latency and survives slow machines; the timeout keeps a wrong
    predicate from hanging the suite."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()
