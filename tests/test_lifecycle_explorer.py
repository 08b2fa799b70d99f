"""The driver lifecycle rules, explored: tests/lifecycle_explorer.py drives
the rule functions of repro.core.policies through every sequence of up to
``lifecycle_explorer.DEPTH`` events on two Drivolution servers, one
bootloader with two connections and packages A, B and C, and checks
L1-L6. Each counterexample is printed as the shortest trace of events
that breaks it."""

import dataclasses

import pytest

import lifecycle_explorer
from repro.core.constants import ExpirationPolicy, RenewPolicy
from repro.core.policies import (
    CLOSE,
    DEFER,
    RENEWED,
    STALE,
    UPGRADED,
    OfferVerdict,
    expiry_step,
    offer_step,
    unload_step,
)


@pytest.fixture(scope="module")
def explored():
    result = lifecycle_explorer.explore()
    print(f"explored {result.states} states to depth {result.depth} in {result.elapsed:.1f} s")
    return result


def test_the_bound_reaches_two_upgrades_and_a_failover_in_time(explored):
    # tick, push B, tick, push C, tick, down s1, tick: seven events.
    assert explored.depth == lifecycle_explorer.DEPTH >= 7
    assert explored.elapsed < 20.0


@pytest.mark.parametrize("invariant", lifecycle_explorer.INVARIANTS)
def test_the_lifecycle_rules_hold(explored, invariant):
    trace = explored.counterexamples.get(invariant)
    assert trace is None, f"{invariant} violated by: " + ", ".join(trace)


def _unload_at_the_transition(running, loaded, in_use):
    return [generation for generation in loaded if generation != running]


def _idle_judged_from_the_last_reply(policy, in_transaction, in_flight):
    return expiry_step(policy, in_transaction, False)


def _identity_by_server_local_driver_id(running, offer, revoked_before):
    verdict = offer_step(running, offer, revoked_before)
    if running is not None and verdict.outcome in (RENEWED, UPGRADED):
        same = offer.driver_id == running.driver_id
        return OfferVerdict(RENEWED, False) if same else OfferVerdict(UPGRADED, True)
    return verdict


def _after_commit_closes_inside_a_transaction(policy, in_transaction, in_flight):
    if policy == ExpirationPolicy.AFTER_COMMIT and in_transaction:
        return CLOSE
    return expiry_step(policy, in_transaction, in_flight)


def _revoke_renew_policy_ignored(running, offer, revoked_before):
    if offer is not None:
        offer = dataclasses.replace(offer, renew_policy=int(RenewPolicy.UPGRADE))
    return offer_step(running, offer, revoked_before)


@pytest.mark.parametrize(
    "invariant, rule, mutant",
    [
        pytest.param("L3", "unload_step", _unload_at_the_transition, id="unload-at-transition"),
        pytest.param("L2", "expiry_step", _idle_judged_from_the_last_reply, id="idle-from-last-reply"),
        pytest.param("L4", "offer_step", _identity_by_server_local_driver_id, id="identity-by-driver-id"),
        pytest.param(
            "L2", "expiry_step", _after_commit_closes_inside_a_transaction, id="after-commit-closes-in-tx"
        ),
        pytest.param("L5", "offer_step", _revoke_renew_policy_ignored, id="revoke-policy-ignored"),
    ],
)
def test_the_explorer_kills_a_rule_mutant(invariant, rule, mutant):
    result = lifecycle_explorer.explore(stop_at=invariant, **{rule: mutant})
    trace = result.counterexamples.get(invariant)
    assert trace is not None, f"mutant of {rule} survived {result.states} states"
    print(f"mutant of {rule}: {invariant} violated by: " + ", ".join(trace))


def test_idle_means_no_transaction_and_no_statement_in_flight():
    """The expiry rule's table: a BEGIN on its way defers like an open
    transaction; only IMMEDIATE closes either."""
    for policy, idle, busy in [
        (ExpirationPolicy.IMMEDIATE, CLOSE, CLOSE),
        (ExpirationPolicy.AFTER_COMMIT, CLOSE, DEFER),
        (ExpirationPolicy.AFTER_CLOSE, STALE, STALE),
    ]:
        assert expiry_step(policy, False, False) == idle
        assert expiry_step(policy, True, False) == expiry_step(policy, False, True) == busy


def test_a_driver_in_use_is_never_unloaded():
    assert unload_step(3, [1, 2, 3], {1}) == [2]
    assert unload_step(None, [1, 2], set()) == [1, 2]
