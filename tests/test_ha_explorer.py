"""The HA rules, explored: tests/ha_explorer.py drives the rule functions
of repro.cluster.recovery.replication through every sequence of up to
``ha_explorer.DEPTH`` events on three controllers and checks I1 (no two
nodes primary at one epoch) and I2 (an acked entry is in every node an
election promotes afterwards). Each counterexample is printed as the
shortest trace of events that breaks it."""

import pytest

import ha_explorer
from repro.cluster.recovery import replication
from repro.cluster.recovery.replication import ACK, ACCEPT, GAP, ROLE_PRIMARY


@pytest.fixture(scope="module")
def explored():
    result = ha_explorer.explore()
    print(f"explored {result.states} states to depth {result.depth} in {result.elapsed:.1f} s")
    return result


def test_the_bound_is_covered_in_time(explored):
    # The bound reaches the 7-event I2 counterexample and the 9-event
    # trace that tells mutant (b) apart.
    assert explored.depth == ha_explorer.DEPTH >= 9
    assert explored.elapsed < 30.0


def test_no_two_nodes_are_ever_primary_at_one_epoch(explored):
    assert "I1" not in explored.counterexamples, explored.counterexamples["I1"]


@pytest.mark.xfail(
    strict=True,
    reason="the election ranks by last_index alone, so a deposed primary's unacked "
    "suffix can outrank an acked write (ROADMAP item 1(a); tests/test_ha.py replays "
    "the trace on a real cluster)",
)
def test_an_acked_entry_is_in_every_later_primary(explored):
    trace = explored.counterexamples.get("I2")
    assert trace is None, "I2 violated by: " + ", ".join(trace)


@pytest.mark.xfail(
    strict=True,
    reason="an election probe is not a promise: a candidate whose announce is lost "
    "leaves its responders at the old epoch, and a second candidate promotes to the "
    "same epoch (ROADMAP item 1(b))",
)
def test_no_two_nodes_are_primary_at_one_epoch_when_an_announce_is_lost():
    result = ha_explorer.explore(stop_at="I1", lost_announce=True)
    trace = result.counterexamples.get("I1")
    assert trace is None, "I1 violated by: " + ", ".join(trace)


def _elect_without_majority(status, replies, required_acks):
    return replication.elect(status, replies, 1)


def _promotion_ignoring_probes(epoch, floor_epoch):
    return replication.promotion(epoch, 0)


@pytest.mark.parametrize(
    "rule, mutant",
    [
        pytest.param("elect", _elect_without_majority, id="a-election-without-majority"),
        pytest.param("promotion", _promotion_ignoring_probes, id="b-promotion-ignores-floor-epoch"),
    ],
)
def test_the_explorer_kills_a_rule_mutant(rule, mutant):
    result = ha_explorer.explore(stop_at="I1", **{rule: mutant})
    trace = result.counterexamples.get("I1")
    assert trace is not None, f"mutant of {rule} survived {result.states} states"
    print(f"mutant of {rule}: I1 violated by: " + ", ".join(trace))


def test_a_primary_never_meets_a_frame_of_its_own_epoch():
    """Why mutant (c) — accept a same-epoch REPLICATE while primary —
    survives: the same-epoch guard only answers a second primary at the
    receiver's epoch, which I1 rules out, so within the bound the rule is
    never asked. The guard is defence in depth, not a rule the explorer
    can tell apart."""
    asked = []

    def on_replicate(epoch, role, hint, frame_epoch, sender):
        if frame_epoch == epoch and role == ROLE_PRIMARY:
            asked.append((epoch, sender))
        return replication.on_replicate(epoch, role, hint, frame_epoch, sender)

    ha_explorer.explore(on_replicate=on_replicate)
    assert asked == []
    assert replication.on_replicate(2, ROLE_PRIMARY, None, 2, "b:1")[0] != ACCEPT


def test_a_behind_peer_never_arises_without_compaction():
    """Mutant (d) — count a *behind* peer as an ack — is not covered: a
    peer is behind only below a compaction floor, and the explorer models
    no compaction, so no round ever ends with a peer at GAP.
    tests/test_ha.py::test_behind_peer_is_never_counted_toward_quorum
    holds that rule."""
    finals = []

    def tally_round(epoch, role, outcomes, required_acks):
        outcomes = list(outcomes)
        finals.extend(outcome for outcome, _ in outcomes)
        return replication.tally_round(epoch, role, outcomes, required_acks)

    ha_explorer.explore(tally_round=tally_round)
    assert ACK in finals and GAP not in finals
