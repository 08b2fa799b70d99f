"""The placement map: which backends host which tables.

One :class:`PlacementMap` per scheduler. Lookups go through
:meth:`PlacementMap.hosts`: a table the map has pinned returns its fixed
host set; an unknown table is assigned by the policy *at first
reference* and pinned from then on, so the assignment a ``CREATE TABLE``
broadcast was routed by is exactly the assignment every later read,
write, replay filter and subset dump sees. Tables the policy leaves
unpinned (``full``) dynamically resolve to the whole backend universe.

All table names are canonicalised through
:func:`repro.cluster.classifier.normalize_table_name` so ``"Users"``,
``users`` and ``public.users`` key the same placement entry — routing
keys off the classifier's table sets, and those use the same
normalisation.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, TYPE_CHECKING

from repro.cluster.classifier import normalize_table_name
from repro.cluster.placement.policies import FullReplicationPolicy, PlacementPolicy
from repro.errors import DriverError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.backend import Backend


class NoHostingBackendError(DriverError):
    """No enabled backend hosts the table set a statement needs.

    Raised by the scheduler when partial replication leaves a statement
    with nowhere to run: a cross-partition join with no full replica, or
    a write whose hosting backends are all down."""


#: Canonical-name prefixes of engine-owned catalogs. They exist on every
#: backend by construction, so placement never pins them — pinning one to
#: an arbitrary backend would make catalog reads fail whenever that
#: backend is down, for no reason.
_SYSTEM_PREFIXES = ("information_schema.",)


class PlacementMap:
    """Authoritative table → hosting-backend-names mapping."""

    def __init__(
        self,
        policy: Optional[PlacementPolicy] = None,
        assignments: Optional[Dict[str, Iterable[str]]] = None,
        backend_names: Iterable[str] = (),
    ) -> None:
        self._policy = policy or FullReplicationPolicy()
        self._lock = threading.Lock()
        #: Backend universe, in registration order (assignments key off a
        #: sorted copy, so order here does not affect hashing).
        self._universe: List[str] = []
        #: Pinned table → hosts. Tables the policy leaves unpinned
        #: (full replication) are deliberately absent.
        self._pinned: Dict[str, FrozenSet[str]] = {}
        for name in backend_names:
            if name not in self._universe:
                self._universe.append(name)
        for table, hosts in (assignments or {}).items():
            self.assign(table, hosts)

    # -- configuration -----------------------------------------------------------

    @property
    def policy(self) -> PlacementPolicy:
        return self._policy

    @property
    def is_full(self) -> bool:
        """True when this map is exact RAIDb-1: the full policy and no
        pinned partial assignment. The scheduler short-circuits every
        placement check in that case, so default configs pay nothing."""
        with self._lock:
            return isinstance(self._policy, FullReplicationPolicy) and not self._pinned

    def add_backend(self, name: str) -> None:
        """Grow the universe (pinned assignments never move)."""
        with self._lock:
            if name not in self._universe:
                self._universe.append(name)

    def remove_backend(self, name: str) -> None:
        """Forget a backend that never (successfully) joined — e.g. a
        failed bootstrap. Leaving a ghost in the universe would let the
        policy pin future tables to a backend that does not exist,
        making every statement on them raise NoHostingBackendError.
        Pinned host sets shed the name too (the survivors have the
        data); a table pinned *only* to the ghost is unpinned so the
        policy re-places it over the real universe."""
        with self._lock:
            if name in self._universe:
                self._universe.remove(name)
            for table, hosts in list(self._pinned.items()):
                if name in hosts:
                    remaining = hosts - {name}
                    if remaining:
                        self._pinned[table] = remaining
                    else:
                        del self._pinned[table]

    def backend_names(self) -> List[str]:
        with self._lock:
            return list(self._universe)

    def assign(self, table: str, hosts: Iterable[str]) -> None:
        """Pin ``table`` to ``hosts`` explicitly (admin override)."""
        host_set = frozenset(str(host) for host in hosts)
        if not host_set:
            raise DriverError(f"placement for table {table!r} names no backend")
        key = normalize_table_name(table)
        with self._lock:
            for host in host_set:
                if host not in self._universe:
                    self._universe.append(host)
            self._pinned[key] = host_set

    # -- lookups -----------------------------------------------------------------

    def hosts(self, table: str, pin: bool = True) -> FrozenSet[str]:
        """Backends hosting ``table``; assigns on first sight, *pinning*
        the assignment when ``pin`` is true.

        Read-side lookups pass ``pin=False``: policies are deterministic,
        so the answer is identical, but a SELECT on a misspelled or
        nonexistent table must not leave a permanent garbage entry in the
        map (only writes — which create tables — pin). System catalogs
        (``information_schema.*``) are exempt either way: every backend
        serves them, always."""
        key = normalize_table_name(table)
        with self._lock:
            return self._hosts_locked(key, pin)

    def _hosts_locked(self, key: str, pin: bool) -> FrozenSet[str]:
        if key.startswith(_SYSTEM_PREFIXES):
            return frozenset(self._universe)
        pinned = self._pinned.get(key)
        if pinned is not None:
            return pinned
        placed = self._policy.place(key, tuple(self._universe))
        if placed is None:
            # Unpinned ⇒ everyone, resolved fresh each call so later
            # backends are included (exact RAIDb-1 behaviour).
            return frozenset(self._universe)
        if pin:
            self._pinned[key] = placed
        return placed

    def unpin(self, tables: Iterable[str]) -> None:
        """Forget assignments for dropped tables, so the map stays
        bounded under table churn and a recreated table is placed fresh."""
        with self._lock:
            for table in tables:
                self._pinned.pop(normalize_table_name(table), None)

    def ensure_colocated(self, table: str, referenced: Iterable[str]) -> None:
        """Enforce that ``table`` has exactly the hosts of each of its
        ``REFERENCES`` targets. A host of the referencing table without a
        target fails every insert's foreign-key check; a host of a target
        without the referencing table accepts the DELETE of a referenced
        row that the other hosts refuse. The scheduler's divergence logic
        reads either as a dead replica.

        Policies whose host choice is arbitrary (hash spreads) are
        re-pointed: the new table is pinned onto the targets' hosts.
        Operator-chosen assignments are never silently overridden, and
        targets on different host sets cannot be followed — either
        raises :class:`NoHostingBackendError` so the spec gets fixed."""
        key = normalize_table_name(table)
        if key.startswith(_SYSTEM_PREFIXES):
            return
        targets = {self.hosts(ref, pin=True) for ref in referenced if normalize_table_name(ref) != key}
        if not targets:
            return
        if len(targets) > 1:
            raise NoHostingBackendError(
                f"the REFERENCES targets of table {key!r} are hosted by different backend "
                f"sets {sorted(sorted(hosts) for hosts in targets)}; colocate them"
            )
        (hosts,) = targets
        with self._lock:
            current = self._pinned.get(key)
            if current is None:
                placed = self._policy.place(key, tuple(self._universe))
                # Unpinned ⇒ hosted everywhere.
                current = frozenset(self._universe) if placed is None else placed
                if current != hosts and getattr(self._policy, "colocatable", False):
                    self._pinned[key] = hosts
                    return
            if current != hosts:
                raise NoHostingBackendError(
                    f"placement puts table {key!r} on {sorted(current)} but its REFERENCES "
                    f"targets on {sorted(hosts)}; colocate them"
                )

    def backend_hosts(self, backend_name: str, table: str, pin: bool = False) -> bool:
        return backend_name in self.hosts(table, pin=pin)

    def hosting_all(self, tables: Iterable[str], backends: List["Backend"]) -> List["Backend"]:
        """Backends (of ``backends``) hosting *every* table in ``tables``
        — the read candidates; only a full replica qualifies for a
        cross-partition join. Never pins (reads must not leave garbage
        assignments for nonexistent tables)."""
        table_list = list(tables)
        if not table_list:
            return list(backends)
        host_sets = [self.hosts(table, pin=False) for table in table_list]
        return [
            backend
            for backend in backends
            if all(backend.name in hosts for hosts in host_sets)
        ]

    def hosting_any(self, tables: Iterable[str], backends: List["Backend"]) -> List["Backend"]:
        """Backends hosting *at least one* table in ``tables`` — the
        write fan-out: every replica of every written table must apply
        the write or it silently diverges. Pins: a routed write is what
        brings a table into existence."""
        table_list = list(tables)
        if not table_list:
            return list(backends)
        host_union = frozenset().union(*(self.hosts(table) for table in table_list))
        return [backend for backend in backends if backend.name in host_union]

    def tables_hosted_by(self, backend_name: str) -> FrozenSet[str]:
        """Pinned tables this backend hosts (unpinned tables are hosted
        by everyone and not enumerable here)."""
        with self._lock:
            return frozenset(
                table for table, hosts in self._pinned.items() if backend_name in hosts
            )

    # -- observability -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            per_backend = {name: 0 for name in self._universe}
            for hosts in self._pinned.values():
                for host in hosts:
                    if host in per_backend:
                        per_backend[host] += 1
            return {
                "mode": self._policy.describe(),
                "full": isinstance(self._policy, FullReplicationPolicy) and not self._pinned,
                "backends": list(self._universe),
                "pinned_tables": len(self._pinned),
                "tables": {
                    table: sorted(hosts) for table, hosts in sorted(self._pinned.items())
                },
                "tables_per_backend": per_backend,
            }
