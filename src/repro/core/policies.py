"""The driver lifecycle's rules (Sections 3.1–3.3): pure functions of
plain values that return a verdict. ``Bootloader`` and its connections
are the shells that ask them; ``tests/lifecycle_explorer.py`` drives the
same functions through every short sequence of events (docs/lifecycle.md).

- :func:`offer_step` — what the server's answer does to the running driver;
- :func:`expiry_step` — what a connection on a superseded driver does;
- :func:`unload_step` — which loaded drivers go;
- :func:`apply_expiration_policy` — the transition's shell over
  :func:`expiry_step`, whose :class:`TransitionReport` the experiments measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, List, NamedTuple, Optional

from repro.core.constants import ExpirationPolicy, RenewPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.bootloader import ManagedConnection
    from repro.core.loader import LoadedDriver
    from repro.core.messages import DrivolutionOffer

#: What an answer does (the outcomes ``check_for_update`` reports; RAISE:
#: the answer leaves no driver where there was none to revoke).
INSTALLED, RENEWED, UPGRADED, REVOKED, RAISE = "installed", "renewed", "upgraded", "revoked", "raise"
#: What a superseded connection does, and the report counter it moves.
CLOSE, DEFER, STALE = "close", "defer", "stale"
_COUNTERS = {CLOSE: "closed_immediately", DEFER: "deferred_to_commit", STALE: "deferred_to_close"}


#: ``load``: whether the offered package is to be fetched and loaded.
OfferVerdict = NamedTuple("OfferVerdict", [("outcome", str), ("load", bool)])


def offer_step(
    running: Optional["LoadedDriver"], offer: Optional["DrivolutionOffer"], revoked_before: bool
) -> OfferVerdict:
    """The running driver (None for none), the answer (None for a
    refusal) and whether a driver was revoked before → the outcome. A
    driver is its package's ``location()``, a fingerprint, whichever server
    numbered it. An offer under the REVOKE renew policy is a refusal; an
    offer that ships no file, or names the running package, renews it."""
    if offer is None or RenewPolicy.from_value(offer.renew_policy) == RenewPolicy.REVOKE:
        return OfferVerdict(REVOKED if running is not None or revoked_before else RAISE, False)
    if running is None:
        return OfferVerdict(INSTALLED, True) if offer.includes_file else OfferVerdict(RAISE, False)
    if not offer.includes_file or offer.driver_location == running.package.location():
        return OfferVerdict(RENEWED, False)
    return OfferVerdict(UPGRADED, True)


def expiry_step(policy: ExpirationPolicy, in_transaction: bool, in_flight: bool) -> str:
    """A superseded connection's fate: CLOSE now (IMMEDIATE aborts any
    transaction), DEFER to the next statement boundary outside a
    transaction (AFTER_COMMIT), or STALE until the application closes it
    (AFTER_CLOSE). Idle means no transaction open *and* no statement in
    flight: a BEGIN on its way is a transaction about to open."""
    if policy == ExpirationPolicy.IMMEDIATE:
        return CLOSE
    if policy == ExpirationPolicy.AFTER_COMMIT:
        return DEFER if in_transaction or in_flight else CLOSE
    return STALE


def unload_step(running: Optional[int], loaded: Collection[int], in_use: Collection[int]) -> List[int]:
    """The loaded driver generations to unload: every one but the running
    one that no open connection uses, so a superseded driver goes with its
    last open connection."""
    return [generation for generation in loaded if generation != running and generation not in in_use]


@dataclass
class TransitionReport:
    """Outcome of applying an expiration policy to a set of connections."""

    policy: ExpirationPolicy
    total_connections: int = 0
    closed_immediately: int = 0
    aborted_transactions: int = 0
    deferred_to_commit: int = 0
    deferred_to_close: int = 0
    already_closed: int = 0
    details: List[str] = field(default_factory=list)

    @property
    def still_open(self) -> int:
        return self.deferred_to_commit + self.deferred_to_close


def apply_expiration_policy(
    connections: List["ManagedConnection"], policy: ExpirationPolicy
) -> TransitionReport:
    """Supersede each connection's driver under ``policy``, counting the
    verdicts. ``expire`` is the connection's one hook: it asks
    :func:`expiry_step`, applies the verdict and asks again at every
    later statement boundary; it returns ``(verdict, in_transaction)``."""
    report = TransitionReport(policy=policy, total_connections=len(connections))
    for managed in connections:
        if managed.closed:
            report.already_closed += 1
            continue
        verdict, in_transaction = managed.expire(policy)
        counter = _COUNTERS[verdict]
        setattr(report, counter, getattr(report, counter) + 1)
        aborted = verdict == CLOSE and in_transaction
        report.aborted_transactions += aborted
        report.details.append(f"{managed.connection_id}: {counter}" + (", transaction aborted" if aborted else ""))
    return report

