"""Pluggable read load-balancing policies.

The scheduler asks a :class:`ReadPolicy` to pick one enabled backend for
each read. Policies are deliberately stateless about membership: they are
handed the *current* enabled backend list on every call and must stay
well-behaved when backends are disabled, re-enabled or added mid-stream.

Under partial replication (see :mod:`repro.cluster.placement`) only the
backends hosting a statement's tables may serve it, so the scheduler
hands ``choose`` just those. Rotation state (cursors, weighted scores)
is keyed so that a subset does not reset fairness across the full
membership.

Available policies (selected by a spec string via :func:`create_policy`,
which is how :class:`~repro.cluster.controller.ControllerConfig` configures
them — ``name`` or ``name:args``, the shape placement specs use):

- ``round_robin`` — rotate over the enabled backends with an unbounded
  cursor, so the rotation stays uniform across membership changes,
- ``least_pending`` — pick the backend with the fewest in-flight
  statements (per-backend counters on :class:`~repro.cluster.backend.Backend`),
  breaking ties round-robin,
- ``weighted`` — smooth weighted round-robin over per-backend weights
  named in the spec (``weighted:db1=3,db2=1``); an unnamed backend
  weighs 1.0.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.backend import Backend
from repro.errors import DriverError


class ReadPolicy:
    """Strategy interface: choose one backend from a non-empty list of
    the backends allowed to serve this statement (placement has already
    narrowed it; the scheduler raises ``NoHostingBackendError`` before
    ever calling a policy with none)."""

    name = "abstract"

    def choose(self, backends: List[Backend]) -> Backend:
        raise NotImplementedError


class RoundRobinPolicy(ReadPolicy):
    """Rotate over the enabled backends.

    Cursors are kept **per candidate set** (one per distinct filtered
    backend-name combination — under placement that is one per table
    host-set, a small number): a single shared cursor interleaved
    between differently-sized candidate lists can alias (e.g. strict 1:1
    interleave of a 2-candidate and a 3-candidate workload leaves the
    2-candidate reads always seeing an even cursor — one backend starves
    despite hosting the table).

    Each cursor grows without bound and is reduced modulo the candidate
    count only at selection time, and a newly seen set's cursor is
    seeded from a shared monotonic tick rather than zero — so a
    membership change (a backend disabled or re-enabled) shifts the
    rotation rather than deterministically restarting it at the
    list-first backend (the original scheduler stored one cursor already
    modded, which skewed the distribution on every membership change).
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._cursors: Dict[Tuple[str, ...], int] = {}
        self._ticks = 0
        self._lock = threading.Lock()

    def choose(self, candidates: List[Backend]) -> Backend:
        key = tuple(sorted(backend.name for backend in candidates))
        with self._lock:
            self._ticks += 1
            cursor = self._cursors.get(key)
            if cursor is None:
                cursor = self._ticks
            choice = candidates[cursor % len(candidates)]
            self._cursors[key] = cursor + 1
            return choice


class LeastPendingPolicy(RoundRobinPolicy):
    """Pick the backend with the fewest in-flight statements.

    Ties rotate as :class:`RoundRobinPolicy` rotates, with a cursor
    **per tied candidate set**: one cursor shared across differently-sized
    tie sets aliases — a strict interleave of 2-way and 3-way ties leaves
    the 2-way ties always seeing the same cursor parity, starving one of
    those backends despite it hosting the table."""

    name = "least_pending"

    def choose(self, eligible: List[Backend]) -> Backend:
        # Snapshot the counters once: they move concurrently, and a
        # re-read between min() and the filter could leave no candidate.
        pairs = [(backend.pending, backend) for backend in eligible]
        least = min(pending for pending, _ in pairs)
        return super().choose([backend for pending, backend in pairs if pending == least])


class WeightedPolicy(ReadPolicy):
    """Smooth weighted round-robin (the nginx algorithm).

    Each round every backend's running score grows by its weight; the
    highest score wins and is debited by the total weight. Over time each
    backend serves a share of reads proportional to its weight, without
    bursts. Scores are keyed by backend name, so membership changes only
    affect the backends that actually came or went.
    """

    name = "weighted"

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        self._weights = dict(weights or {})
        self._scores: Dict[str, float] = {}
        self._lock = threading.Lock()

    def _weight_of(self, backend: Backend) -> float:
        return max(float(self._weights.get(backend.name, 1.0)), 0.0)

    def choose(self, candidates: List[Backend]) -> Backend:
        with self._lock:
            total = 0.0
            best: Optional[Backend] = None
            best_score = float("-inf")
            for backend in candidates:
                weight = self._weight_of(backend)
                total += weight
                score = self._scores.get(backend.name, 0.0) + weight
                self._scores[backend.name] = score
                if score > best_score:
                    best = backend
                    best_score = score
            assert best is not None  # backends is non-empty
            self._scores[best.name] = best_score - (total if total > 0 else 1.0)
            return best


_POLICIES: Dict[str, Callable[..., ReadPolicy]] = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastPendingPolicy.name: LeastPendingPolicy,
    WeightedPolicy.name: WeightedPolicy,
}


def available_policies() -> List[str]:
    return sorted(_POLICIES)


def _parse_weights(argument: str, spec: str) -> Dict[str, float]:
    weights: Dict[str, float] = {}
    for clause in argument.split(","):
        name, _, value = (part.strip() for part in clause.partition("="))
        try:
            weight = float(value)
        except ValueError:
            weight = float("nan")
        if not (name and 0 <= weight < float("inf")):
            raise DriverError(f"bad weight clause {clause.strip()!r} in read policy {spec!r}")
        weights[name] = weight
    return weights


def create_policy(spec: str) -> ReadPolicy:
    """Instantiate a read policy from its spec string
    (``ControllerConfig.read_policy``): a policy name, or
    ``weighted:db1=3,db2=1`` to name weights."""
    head, separator, argument = spec.partition(":")
    name = head.strip()
    if name not in _POLICIES:
        raise DriverError(
            f"unknown read policy {name!r} (available: {', '.join(available_policies())})"
        )
    if not separator:
        return _POLICIES[name]()
    if name != WeightedPolicy.name:
        raise DriverError(f"read policy {name!r} takes no arguments (got {spec!r})")
    return WeightedPolicy(_parse_weights(argument, spec))
