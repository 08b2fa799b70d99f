"""The write rules, explored: tests/write_explorer.py drives the rule
functions of repro.cluster.scheduler and repro.cluster.backend through
every sequence of up to ``write_explorer.DEPTH`` events on two replicas,
two sessions and two tables, and checks W1-W8. Each counterexample is
printed as the shortest trace of events that breaks it."""

import pytest

import write_explorer
from repro.cluster import scheduler
from repro.cluster.backend import APPLIED, APPLY, AppliedSeqs, replay_step
from repro.cluster.broadcaster import BackendOutcome
from repro.cluster.recovery.logstore import LogEntry
from repro.cluster.scheduler import ADVANCE, CLAMP, KEEP, checkpoint_moves, round_verdict
from repro.dbapi.exceptions import ProgrammingError


@pytest.fixture(scope="module")
def explored():
    result = write_explorer.explore()
    print(f"explored {result.states} states to depth {result.depth} in {result.elapsed:.1f} s")
    return result


def test_the_bound_is_covered_in_time(explored):
    assert explored.depth == write_explorer.DEPTH >= 6
    assert explored.elapsed < 20.0


@pytest.mark.parametrize("invariant", ["W1", "W2", "W3", "W4", "W5", "W6", "W8"])
def test_the_write_rules_hold(explored, invariant):
    trace = explored.counterexamples.get(invariant)
    assert trace is None, f"{invariant} violated by: " + ", ".join(trace)


def test_an_acked_autocommit_write_is_never_undone(explored):
    trace = explored.counterexamples.get("W7")
    assert trace is None, "W7 violated by: " + ", ".join(trace)


def _log_a_write_no_replica_accepted(accepted, ran_in_transaction, still_open):
    return scheduler.write_fate(True, ran_in_transaction, still_open)


def _fail_every_rejecting_target(replies):
    accepted, _ = round_verdict(replies)
    return accepted, [reply.backend for reply in replies if reply.error is not None]


def _flush_a_commit_no_replica_accepted(alive, command, accepted):
    return scheduler.transaction_step(alive, command, True)


def _settle_only_after_transaction_control(alive, command, accepted):
    if command not in ("COMMIT", "ROLLBACK"):
        return KEEP
    return scheduler.transaction_step(alive, command, accepted)


def _release_at_statement_end(in_transaction, is_read):
    return False


def _advance_every_accepting_target(items, last_index, enabled):
    everyone = [reply.backend for replies, _ in items for reply in replies]
    return checkpoint_moves(items, last_index, everyone)


@pytest.mark.parametrize(
    "invariant, rule, mutant",
    [
        pytest.param("W2", "write_fate", _log_a_write_no_replica_accepted, id="b-log-rejected-write"),
        pytest.param("W5", "round_verdict", _fail_every_rejecting_target, id="c-fail-when-all-rejected"),
        pytest.param(
            "W2", "transaction_step", _flush_a_commit_no_replica_accepted, id="d-flush-rejected-commit"
        ),
        pytest.param(
            "W6", "transaction_step", _settle_only_after_transaction_control, id="f-settle-on-control-only"
        ),
        pytest.param(
            "W3", "checkpoint_moves", _advance_every_accepting_target, id="e-advance-non-enabled"
        ),
        pytest.param("W8", "scope_held", _release_at_statement_end, id="g-release-at-statement-end"),
    ],
)
def test_the_explorer_kills_a_rule_mutant(invariant, rule, mutant):
    result = write_explorer.explore(stop_at=invariant, **{rule: mutant})
    trace = result.counterexamples.get(invariant)
    assert trace is not None, f"mutant of {rule} survived {result.states} states"
    print(f"mutant of {rule}: {invariant} violated by: " + ", ".join(trace))


def _final_checkpoint(moves, target):
    checkpoint = 0
    for kind, moved, index, _ in moves:
        if moved == target and index is not None:
            checkpoint = max(checkpoint, index) if kind == ADVANCE else min(checkpoint, index)
    return checkpoint


def test_clamp_before_advance_is_equivalent_behind_the_enabled_guard():
    """Why mutant (a) — clamp before advance — survives: a target is
    clamped only for a statement that carried entries, which some replica
    accepted, so round_verdict took the target out of the rotation and
    checkpoint_moves's ENABLED guard gives its advance no index. The
    order then cannot matter. The model's rounds are one statement each,
    so the clamped and advanced sets never meet there; a batch round is
    where they do, and there the guard alone decides."""
    clamped_while_enabled = []

    def moves(items, last_index, enabled):
        result = checkpoint_moves(items, last_index, enabled)
        clamped_while_enabled.extend(t for kind, t, _, _ in result if kind == CLAMP and t in enabled)
        return result

    write_explorer.explore(checkpoint_moves=moves)
    assert clamped_while_enabled == []

    # A batch: r1 accepted statement 1 and rejected statement 2, which r2
    # accepted. The round verdict takes r1 out of the rotation...
    ok, rejected = ([], [], 1), ProgrammingError("dup")
    second = [BackendOutcome("r1", None, rejected), BackendOutcome("r2", ok, None)]
    assert round_verdict(second) == (ok, ["r1"])
    entries = [LogEntry(index=i, sql=f"s{i}", table_seqs={"t": i}) for i in (1, 2)]
    first = [BackendOutcome("r1", ok, None), BackendOutcome("r2", ok, None)]
    items = [(first, entries[:1]), (second, entries[1:])]

    def clamp_first(items, last_index, enabled):
        result = checkpoint_moves(items, last_index, enabled)
        return [m for m in result if m[0] == CLAMP] + [m for m in result if m[0] == ADVANCE]

    # ...so with the guard both orders leave it below entry 2...
    for rule in (checkpoint_moves, clamp_first):
        assert _final_checkpoint(rule(items, 2, ["r2"]), "r1") == 0
    # ...and only without it would the order decide.
    assert _final_checkpoint(checkpoint_moves(items, 2, ["r1", "r2"]), "r1") == 1
    assert _final_checkpoint(clamp_first(items, 2, ["r1", "r2"]), "r1") == 2


def test_replay_skips_exactly_what_was_applied():
    """The replay step's dedup is exact membership: sequence 3 applied
    does not shadow a missed sequence 2."""
    applied = AppliedSeqs()
    applied.add({"t": 1})
    applied.add({"t": 3})
    assert ("t", 1) in applied and ("t", 3) in applied and ("t", 2) not in applied
    missed = LogEntry(index=2, sql="s", table_seqs={"t": 2})
    again = LogEntry(index=3, sql="s", table_seqs={"t": 3})
    assert replay_step(missed, 1, applied, {"t": 1})[0] == APPLY
    assert replay_step(again, 1, applied, {"t": 2})[0] == APPLIED
