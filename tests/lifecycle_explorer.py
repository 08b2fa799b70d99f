"""Small-scope exhaustive explorer for the driver lifecycle rules.

Breadth-first search, with state hashing (``tests/explorer.py``), over
every sequence of up to ``depth`` events on two Drivolution servers, one
bootloader with two connection slots, and packages A, B and C. The
decisions are the rule functions of :mod:`repro.core.policies` —
``offer_step``, ``expiry_step`` and ``unload_step``, the ones
``Bootloader`` and ``ManagedConnection`` call, imported, never restated.
What this module adds is what their shells add around them: which server
answers, what the answer is, loading, the lease, and the connections'
statements.

The two servers number the packages differently (s2 held an unrelated
driver first), as one ``DrivolutionAdmin`` does when it installs a
package on both. The bootloader has a signer configured.

Events:

- ``push X P`` — the administrator offers package X under expiration
  policy P (renew policy UPGRADE) on both servers; ``rollback`` offers
  the known-good package (the one offered before) again; ``refuse`` ends
  the driver's permissions, so the servers answer DRIVOLUTION_ERROR;
  ``revoke-policy`` offers the current package under the REVOKE renew
  policy; ``mis-signed`` offers a package whose signature the
  bootloader's signer rejects.
- ``down s`` / ``up s`` — a server fails or comes back.
- ``tick`` — a lease check (``check_for_update(force=True)``): the
  server that granted the lease is asked first, then the other.
- ``connect`` — a connection on the running driver, in a free slot.
- ``begin c`` (the BEGIN is sent), ``answer c`` (it is answered: the
  transaction is open), ``stmt c``, ``commit c``, ``close c``.

Invariants:

- **L1** — IMMEDIATE leaves no open connection on a superseded driver.
- **L2** — AFTER_COMMIT and AFTER_CLOSE never abort a transaction (a
  BEGIN in flight counts), and under AFTER_COMMIT an open connection on
  a superseded driver is inside a transaction or has a statement in
  flight.
- **L3** — the loaded drivers are exactly the running one plus those
  that open connections use.
- **L4** — an offer of the running package is never an upgrade and
  touches no connection.
- **L5** — the running driver is what the last answer said: a refusal or
  a REVOKE-policy offer leaves none running; a failed verification or an
  unreachable server leaves driver, lease and connections as they were.
- **L6** — every statement of one transaction runs on one driver
  generation.

Not modelled: lease timing (every check is forced), discovery, the push
channel, and several application threads on one connection.

Run::

    PYTHONPATH=src python tests/lifecycle_explorer.py [--depth N]
"""

from __future__ import annotations

import argparse
import functools
from typing import Any, Callable, FrozenSet, List, NamedTuple, Optional, Tuple

import explorer
from explorer import Result
from repro.core import policies
from repro.core.constants import ExpirationPolicy, RenewPolicy
from repro.core.messages import DrivolutionOffer
from repro.core.package import DriverPackage
from repro.core.policies import CLOSE, RAISE, RENEWED, UPGRADED

SERVERS = ("s1", "s2")
PACKAGES = ("A", "B", "C")
#: The package the bootloader's signer rejects.
MISSIGNED = "M"
#: The id each server gave each package.
IDS = ({"A": 1, "B": 2, "C": 3, "M": 4}, {"A": 2, "B": 3, "C": 4, "M": 5})
POLICIES = tuple(ExpirationPolicy)
#: The default bound: the first install, two upgrades and a renewal at
#: the second server after the first fails are seven events; the eighth
#: is room for a connection.
DEPTH = 8
INVARIANTS = ("L1", "L2", "L3", "L4", "L5", "L6")

#: The rule functions the model calls, by name; a test substitutes one.
RULES = ("offer_step", "expiry_step", "unload_step")

_PACKAGE = {
    name: DriverPackage.from_source(f"pydb-{name}", "PYDB-API", f"DRIVER_NAME = 'pydb-{name}'\n")
    for name in PACKAGES + (MISSIGNED,)
}

Event = Tuple[Any, ...]


class Conn(NamedTuple):
    generation: int
    in_tx: bool
    #: A BEGIN was sent and not yet answered.
    in_flight: bool
    #: The expiration policy its driver was superseded under.
    expiry: Optional[ExpirationPolicy]
    #: The generation the open transaction's statements ran on.
    tx_generation: Optional[int]


class State(NamedTuple):
    #: What both servers answer: ``(package, renew policy, expiration
    #: policy)``, or None for a refusal.
    offering: Optional[Tuple[str, RenewPolicy, ExpirationPolicy]]
    #: The package offered before the current one (the rollback target).
    known_good: Optional[str]
    up: Tuple[bool, ...]
    #: ``(package, generation, driver_id)`` of the running driver.
    running: Optional[Tuple[str, int, int]]
    #: ``(server, package, renew policy, expiration policy)`` of the lease.
    lease: Optional[Tuple[int, str, RenewPolicy, ExpirationPolicy]]
    server_used: Optional[int]
    revoked: bool
    loaded: FrozenSet[int]
    loads: int
    conns: Tuple[Optional[Conn], ...]


class _Loaded(NamedTuple):
    """What ``offer_step`` reads of a ``LoadedDriver``."""

    package: DriverPackage
    driver_id: int


@functools.lru_cache(maxsize=None)
def _loaded(name: str, driver_id: int) -> _Loaded:
    return _Loaded(_PACKAGE[name], driver_id)


@functools.lru_cache(maxsize=None)
def _offer(server: int, name: str, renew: RenewPolicy, expiration: ExpirationPolicy) -> DrivolutionOffer:
    """The OFFER ``server`` answers, as ``DrivolutionServer`` builds it."""
    return DrivolutionOffer(
        lease_id=f"lease-{server}",
        lease_time_ms=1_000,
        driver_id=IDS[server][name],
        driver_location=_PACKAGE[name].location(),
        binary_format=_PACKAGE[name].binary_format,
        renew_policy=int(renew),
        expiration_policy=int(expiration),
        server_id=SERVERS[server],
    )


class Model:
    """One step of the driver lifecycle, decided by the rule functions
    (``overrides`` replaces some of them by name)."""

    def __init__(self, **overrides: Callable[..., Any]) -> None:
        self.rule = explorer.bind_rules((policies,), RULES, overrides)

    @staticmethod
    def name(event: Event) -> str:
        kind, *args = event
        if kind == "push":
            return f"push {args[0]} {args[1].name}"
        if kind in ("down", "up"):
            return f"{kind} {SERVERS[args[0]]}"
        if args:
            return f"{kind} c{args[0] + 1}"
        return kind

    def initial(self) -> State:
        offering = ("A", RenewPolicy.UPGRADE, ExpirationPolicy.AFTER_COMMIT)
        return State(offering, None, (True, True), None, None, None, False, frozenset(), 0, (None, None))

    def events(self, state: State) -> List[Event]:
        offered = state.offering[0] if state.offering else None
        events: List[Event] = [
            ("push", name, policy) for name in PACKAGES if name != offered for policy in POLICIES
        ]
        if state.known_good not in (None, offered):
            events.append(("rollback",))
        if state.offering is not None:
            events.append(("refuse",))
            if state.offering[1] != RenewPolicy.REVOKE:
                events.append(("revoke-policy",))
        if offered != MISSIGNED:
            events.append(("mis-signed",))
        events += [("up" if not up else "down", s) for s, up in enumerate(state.up)]
        events.append(("tick",))
        if state.running is not None and None in state.conns:
            events.append(("connect",))
        for c, conn in enumerate(state.conns):
            if conn is None:
                continue
            if conn.in_flight:
                events.append(("answer", c))
                continue
            events += [("begin", c)] if not conn.in_tx else [("commit", c)]
            events += [("stmt", c), ("close", c)]
        return events

    # -- transitions ---------------------------------------------------------------

    def step(self, state: State, event: Event) -> Tuple[Optional[State], List[str]]:
        """The state after ``event`` and the invariants violated on the way."""
        kind, *args = event
        violations: List[str] = []
        if kind == "tick":
            state = self._tick(state, violations)
        elif kind in ("push", "rollback", "refuse", "revoke-policy", "mis-signed"):
            state = self._administer(state, kind, *args)
        elif kind in ("down", "up"):
            up = list(state.up)
            up[args[0]] = kind == "up"
            state = state._replace(up=tuple(up))
        elif kind == "connect":
            c = state.conns.index(None)
            state = _with_conn(state, c, Conn(state.running[1], False, False, None, None))
        else:
            state = self._statement(state, kind, args[0], violations)
        return state, violations + self._check(state)

    @staticmethod
    def _administer(state: State, kind: str, *args: Any) -> State:
        """What the administrator's operation makes both servers answer."""
        offering = state.offering
        offered = offering[0] if offering else None
        expiration = offering[2] if offering else ExpirationPolicy.AFTER_COMMIT
        good = offered if offered not in (None, MISSIGNED) else state.known_good
        if kind == "push":
            return state._replace(offering=(args[0], RenewPolicy.UPGRADE, args[1]), known_good=good)
        if kind == "rollback":
            return state._replace(offering=(state.known_good, RenewPolicy.UPGRADE, expiration), known_good=good)
        if kind == "mis-signed":
            return state._replace(offering=(MISSIGNED, RenewPolicy.UPGRADE, expiration), known_good=good)
        if kind == "refuse":
            return state._replace(offering=None)
        return state._replace(offering=(offered, RenewPolicy.REVOKE, expiration))

    def _tick(self, state: State, violations: List[str]) -> State:
        """``Bootloader.check_for_update(force=True)`` and ``_switch_driver``."""
        order = [s for s in range(len(SERVERS)) if s != state.server_used]
        if state.server_used is not None:
            order.insert(0, state.server_used)
        server = next((s for s in order if state.up[s]), None)
        if server is None:
            return state  # unreachable: everything is kept (or the check raises)
        offer = _offer(server, *state.offering) if state.offering else None
        running = _loaded(state.running[0], state.running[2]) if state.running else None
        outcome, load = self.rule["offer_step"](running, offer, state.revoked)
        offers_running = (
            offer is not None
            and offer.renew_policy != RenewPolicy.REVOKE
            and state.running is not None
            and state.offering[0] == state.running[0]
        )
        if offers_running and outcome == UPGRADED:
            violations.append("L4")
        if outcome == RAISE or (load and state.offering[0] == MISSIGNED):
            # Nothing is mutated before the load; a refused signature
            # leaves driver, lease and connections as they were.
            return state
        old = state.running
        if load:
            name = state.offering[0]
            new = (name, state.loads + 1, IDS[server][name])
            state = state._replace(loaded=state.loaded | {new[1]}, loads=state.loads + 1)
        else:
            new = old if outcome == RENEWED else None
        governing = offer.expiration_policy if offer is not None else (state.lease[3] if state.lease else None)
        lease = (server, *state.offering) if new is not None else None
        revoked = (state.revoked or old is not None) if new is None else False
        state = state._replace(
            running=new, lease=lease, server_used=server if offer else None, revoked=revoked
        )
        said = state.offering[0] if offer is not None and offer.renew_policy != RenewPolicy.REVOKE else None
        if (new[0] if new else None) != said:
            violations.append("L5")
        if new == old:
            return state
        policy = ExpirationPolicy.from_value(governing)
        conns = state.conns
        for c, conn in enumerate(conns):
            if conn is None or (new is not None and conn.generation == new[1]):
                continue
            verdict = self.rule["expiry_step"](policy, conn.in_tx, conn.in_flight)
            if verdict == CLOSE:
                if policy != ExpirationPolicy.IMMEDIATE and (conn.in_tx or conn.in_flight):
                    violations.append("L2")
                conns = conns[:c] + (None,) + conns[c + 1:]
            else:
                conns = conns[:c] + (conn._replace(expiry=policy),) + conns[c + 1:]
        if offers_running:
            violations.append("L4")
        state = self._unload(state._replace(conns=conns))
        if policy == ExpirationPolicy.IMMEDIATE and any(
            conn is not None and (new is None or conn.generation != new[1]) for conn in state.conns
        ):
            violations.append("L1")
        return state

    def _statement(self, state: State, kind: str, c: int, violations: List[str]) -> State:
        """The application's calls on connection ``c``, and the statement
        boundary after each (``ManagedConnection._statement``)."""
        conn = state.conns[c]
        if kind == "close":
            return self._unload(_with_conn(state, c, None))
        if kind == "begin":
            return _with_conn(state, c, conn._replace(in_flight=True))
        if conn.in_tx and conn.tx_generation != conn.generation:
            violations.append("L6")
        if kind == "answer":
            conn = conn._replace(in_tx=True, in_flight=False, tx_generation=conn.generation)
        elif kind == "commit":
            conn = conn._replace(in_tx=False, tx_generation=None)
        if conn.expiry is not None and self.rule["expiry_step"](conn.expiry, conn.in_tx, False) == CLOSE:
            if conn.in_tx and conn.expiry != ExpirationPolicy.IMMEDIATE:
                violations.append("L2")
            return self._unload(_with_conn(state, c, None))
        return _with_conn(state, c, conn)

    def _unload(self, state: State) -> State:
        """``Bootloader._unload_unused``."""
        running = state.running[1] if state.running else None
        in_use = {conn.generation for conn in state.conns if conn is not None}
        gone = self.rule["unload_step"](running, sorted(state.loaded), in_use)
        return state._replace(loaded=state.loaded - set(gone))

    # -- invariants -----------------------------------------------------------------

    @staticmethod
    def _check(state: State) -> List[str]:
        violations = []
        open_conns = [conn for conn in state.conns if conn is not None]
        if any(
            conn.expiry == ExpirationPolicy.AFTER_COMMIT and not (conn.in_tx or conn.in_flight)
            for conn in open_conns
        ):
            violations.append("L2")
        expected = {conn.generation for conn in open_conns}
        if state.running is not None:
            expected.add(state.running[1])
        if state.loaded != expected:
            violations.append("L3")
        return violations


def _with_conn(state: State, c: int, conn: Optional[Conn]) -> State:
    return state._replace(conns=state.conns[:c] + (conn,) + state.conns[c + 1:])


def explore(depth: int = DEPTH, stop_at: Optional[str] = None, **overrides: Callable[..., Any]) -> Result:
    """Every state reachable in ``depth`` events (:func:`explorer.explore`);
    ``overrides`` replace rule functions by name."""
    return explorer.explore(Model(**overrides), depth, stop_at)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--depth", type=int, default=DEPTH, help=f"events per trace (default {DEPTH})")
    args = parser.parse_args()
    return explorer.report(explore(args.depth), INVARIANTS)


if __name__ == "__main__":
    raise SystemExit(main())
