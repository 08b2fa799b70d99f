"""Small-scope exhaustive explorer for the write-path rules.

Breadth-first search, with state hashing (``tests/explorer.py``), over
every sequence of up to ``depth`` events on two replicas, two client
sessions and two tables. The decisions are the rule functions of
:mod:`repro.cluster.scheduler` (``round_verdict``, ``transaction_step``,
``write_fate``, ``checkpoint_moves``) and :mod:`repro.cluster.backend`
(``replay_step``) — the ones ``RequestScheduler`` and ``Backend`` call,
imported, never restated. What this module adds is what their shell
adds around them, and what the replicas do: where a statement goes,
what a reply does to a replica's rows and connection, and its
checkpoint and applied sequences.

Placement: r1 hosts tables a and b, r2 only b. So a write to a goes to r1
alone, a write to b to both, and BEGIN/COMMIT/ROLLBACK to every enabled
replica.

Events (each outcome list gives every target's answer: ``ok``, ``stmt``
— a statement fault — or ``conn`` — a connection fault, which drops the
replica's connection and so rolls back any transaction on it):

- ``write s t o..`` — session s writes table t. This is the round's
  *execute*: the targets apply it and the replicas the round verdict
  names leave the rotation. A later ``account t`` settles the
  transaction record, logs or defers the write and moves checkpoints,
  so two rounds on disjoint tables interleave as their table scopes
  allow.
- ``begin s o..``, ``commit s o..``, ``rollback s o..`` — transaction
  control, under the exclusive scope: only with no round in flight, and
  accounted by ``account *``. BEGIN only when no transaction is open,
  COMMIT and ROLLBACK only by its owner.
- ``disable r`` — ``checkpoint_and_disable`` of an enabled replica.
- ``resync r`` — ``resync_and_enable`` of a FAILED or DISABLED one.

The replicas' connections are shared, as they are today: another
session's auto-commit write runs inside the open transaction.

Invariants (W1, W4 and W6 whenever no round is in flight):

- **W1** — every ENABLED replica holds exactly the logged writes it
  hosts, plus the open transaction's buffered writes it hosts.
- **W2** — the log holds no rolled-back write and no write that every
  replica rejected.
- **W3** — ``resync`` brings a FAILED or DISABLED replica back to W1.
- **W4** — per-table sequences are gapless, in the log and in what every
  ENABLED replica recorded as applied for the tables it hosts.
- **W5** — no replica leaves the rotation for a statement that no
  replica accepted but it rejected.
- **W6** — the record is open exactly when some replica reports a
  transaction, and ``resync`` is refused only then.
- **W7** — an acked auto-commit write is never undone. The shared
  connection breaks it (ROADMAP item 2).

Not modelled: the write batcher's rounds of several statements (each is
accounted as the single-statement rounds are), reads and the query
cache, key scopes, compaction and dumps, and faults between a round's
target snapshot and its broadcast — an event runs to completion.

Run::

    PYTHONPATH=src python tests/write_explorer.py [--depth N]
"""

from __future__ import annotations

import argparse
import functools
import itertools
from typing import Any, Callable, FrozenSet, List, NamedTuple, Optional, Tuple

import explorer
from explorer import Result
from repro.cluster import backend, scheduler
from repro.cluster.backend import APPLY, BEHIND, REGRESSED
from repro.cluster.broadcaster import BackendOutcome
from repro.cluster.recovery.logstore import LogEntry
from repro.cluster.scheduler import ADVANCE, DEFER, DISCARD, FLUSH, LOG, OPEN
from repro.dbapi.exceptions import OperationalError, ProgrammingError

REPLICAS = ("r1", "r2")
SESSIONS = ("A", "B")
TABLES = ("a", "b")
#: Which replicas host each table.
HOSTS = {"a": (0,), "b": (0, 1)}
OK, STMT, CONN = "ok", "stmt", "conn"
ENABLED, FAILED, DISABLED = "enabled", "failed", "disabled"
#: The default bound. The longest shortest trace a test needs — a
#: transaction's write, then a COMMIT whose connections all drop — is
#: six events long; the seventh is margin.
DEPTH = 7
INVARIANTS = ("W1", "W2", "W3", "W4", "W5", "W6", "W7")

#: The rule functions the model calls, by name; a test substitutes one.
RULES = ("round_verdict", "transaction_step", "write_fate", "checkpoint_moves", "replay_step")

#: What a target answers: ``(result, error)``.
_REPLIES = {
    OK: (([], [], 1), None),
    STMT: (None, ProgrammingError("rejected")),
    CONN: (None, OperationalError("connection lost")),
}


def _replies(targets: Tuple[int, ...], outcomes: Tuple[str, ...]) -> List[BackendOutcome]:
    """The targets' replies as the broadcaster hands them to the rules."""
    return [BackendOutcome(r, *_REPLIES[outcome]) for r, outcome in zip(targets, outcomes)]

Event = Tuple[Any, ...]


class Replica(NamedTuple):
    state: str
    checkpoint: int
    #: The ``(table, seq)`` pairs recorded as applied here.
    applied: FrozenSet[Tuple[str, int]]
    #: Writes committed here.
    committed: FrozenSet[int]
    #: Writes applied inside the transaction open on its connection;
    #: None when none is.
    tx: Optional[Tuple[int, ...]]


class Round(NamedTuple):
    """An executed round waiting for its account."""

    session: str
    #: The statement's command: INSERT, BEGIN, COMMIT or ROLLBACK.
    command: str
    #: The written table; "*" for transaction control.
    table: str
    targets: Tuple[int, ...]
    outcomes: Tuple[str, ...]
    accepted: bool
    #: The write's value (0 for transaction control).
    write: int
    #: Serial of the record the statement ran inside (0 for none).
    within: int


class Truth(NamedTuple):
    """The transaction as the replicas ran it — the model's own account,
    which the rules' record is checked against."""

    owner: str
    writes: Tuple[int, ...]
    committed: bool


class State(NamedTuple):
    replicas: Tuple[Replica, ...]
    #: ``(write, table, seq)`` per log entry; an entry's index is its
    #: position + 1.
    log: Tuple[Tuple[int, str, int], ...]
    #: The scheduler's record: ``(serial, owner, buffered writes)``.
    record: Optional[Tuple[int, Optional[str], Tuple[int, ...]]]
    serials: int
    pending: Tuple[Round, ...]
    #: ``(session, table)`` of write n at position n - 1.
    writes: Tuple[Tuple[str, str], ...]
    truth: Optional[Truth]
    rolled_back: FrozenSet[int]
    rejected: FrozenSet[int]
    #: Writes acked to a session that had no transaction of its own open.
    acked_autocommit: FrozenSet[int]


@functools.lru_cache(maxsize=None)
def _entry(index: int, write: int, table: str, seq: int) -> LogEntry:
    sql = f"INSERT INTO {table} VALUES ({write})"
    return LogEntry(index=index, sql=sql, write_tables=(table,), table_seqs={table: seq})


def _hosted_by(r: int) -> Callable[[LogEntry], bool]:
    return lambda entry: any(r in HOSTS[table] for table in entry.write_tables)


_FILTERS = tuple(_hosted_by(r) for r in range(len(REPLICAS)))


def _outcome_lists(count: int) -> List[Tuple[str, ...]]:
    return list(itertools.product((OK, STMT, CONN), repeat=count))


def _in_tx(replicas: Any) -> bool:
    return any(replica.tx is not None for replica in replicas)


class Model:
    """One step of the write path, decided by the rule functions
    (``overrides`` replaces some of them by name)."""

    def __init__(self, **overrides: Callable[..., Any]) -> None:
        self.rule = explorer.bind_rules((scheduler, backend), RULES, overrides)

    @staticmethod
    def name(event: Event) -> str:
        kind, *args = event
        if kind in ("disable", "resync"):
            return f"{kind} {REPLICAS[args[0]]}"
        if kind == "account":
            return f"account {args[0]}"
        if kind == "write":
            return " ".join([kind, args[0], args[1], *args[3]])
        return " ".join([kind, args[0], *args[2]])

    def initial(self) -> State:
        replica = Replica(ENABLED, 0, frozenset(), frozenset(), None)
        none: FrozenSet[int] = frozenset()
        return State((replica, replica), (), None, 0, (), (), None, none, none, none)

    def events(self, state: State) -> List[Event]:
        events: List[Event] = [("account", round.table) for round in state.pending]
        busy = {round.table for round in state.pending}
        if "*" in busy:
            return events
        for table in TABLES:
            targets = tuple(r for r in HOSTS[table] if state.replicas[r].state == ENABLED)
            if table in busy or not targets:
                continue
            for session in SESSIONS:
                events += [("write", session, table, targets, o) for o in _outcome_lists(len(targets))]
        if state.pending:
            return events
        enabled = tuple(r for r, replica in enumerate(state.replicas) if replica.state == ENABLED)
        if enabled:
            if state.truth is None:
                commands = [("begin", session) for session in SESSIONS]
            else:
                commands = [(kind, state.truth.owner) for kind in ("commit", "rollback")]
            for kind, session in commands:
                events += [(kind, session, enabled, o) for o in _outcome_lists(len(enabled))]
        for r, replica in enumerate(state.replicas):
            events.append(("disable" if replica.state == ENABLED else "resync", r))
        return events

    # -- transitions ---------------------------------------------------------------

    def step(self, state: State, event: Event) -> Tuple[Optional[State], List[str]]:
        """The state after ``event`` and the invariants violated on the way."""
        kind, *args = event
        violations: List[str] = []
        if kind == "account":
            state = self._account(state, next(r for r in state.pending if r.table == args[0]))
        elif kind == "disable":
            state = self._disable(state, args[0])
        elif kind == "resync":
            state = self._resync(state, args[0], violations)
        elif kind == "write":
            session, table, targets, outcomes = args
            state = self._execute(state, session, "INSERT", table, targets, outcomes, violations)
        else:
            session, targets, outcomes = args
            state = self._execute(state, session, kind.upper(), "*", targets, outcomes, violations)
        return state, violations + self._check(state)

    def _execute(
        self,
        state: State,
        session: str,
        command: str,
        table: str,
        targets: Tuple[int, ...],
        outcomes: Tuple[str, ...],
        violations: List[str],
    ) -> State:
        """The broadcast and the round verdict, which takes replicas out
        of the rotation before the round's account."""
        replicas = list(state.replicas)
        writes, write = state.writes, 0
        if command == "INSERT":
            writes += ((session, table),)
            write = len(writes)
        truth, committed = state.truth, False
        for r, outcome in zip(targets, outcomes):
            replica = replicas[r]
            if outcome == CONN:
                replicas[r] = replica._replace(tx=None)
            elif outcome == OK:
                committed = committed or (command == "COMMIT" and replica.tx is not None)
                replicas[r] = _run(replica, command, write)
        accepted, leaving = self.rule["round_verdict"](_replies(targets, outcomes))
        if OK not in outcomes and any(outcomes[targets.index(r)] == STMT for r in leaving):
            violations.append("W5")
        for r in leaving:
            replicas[r] = replicas[r]._replace(state=FAILED, tx=None)
        rejected, acked = state.rejected, state.acked_autocommit
        if write and OK not in outcomes:
            rejected |= {write}
        elif write:
            if truth is None or truth.owner != session:
                acked |= {write}
            if truth is not None:
                truth = truth._replace(writes=truth.writes + (write,))
        if committed:
            truth = truth._replace(committed=True)
        within = state.record[0] if state.record is not None else 0
        round = Round(session, command, table, targets, outcomes, accepted is not None, write, within)
        state = state._replace(
            replicas=tuple(replicas),
            writes=writes,
            truth=truth,
            rejected=rejected,
            acked_autocommit=acked,
            pending=state.pending + (round,),
        )
        return _track(state, session)

    def _account(self, state: State, round: Round) -> State:
        """``RequestScheduler._run_round``'s ``_state_lock`` section."""
        state, step, ended = self._settle(state, round.command, round.accepted, round.session)
        record = state.record
        fate = None
        if round.command == "INSERT":
            still_open = record is not None and record[0] == round.within
            fate = self.rule["write_fate"](round.accepted, round.within != 0, still_open)
        if fate == DEFER and record is not None and record[0] == round.within:
            record = record[:2] + (record[2] + (round.write,),)
        rows = ended[2] if step == FLUSH else (round.write,) if fate == LOG else ()
        log = state.log
        for write in rows:
            table = state.writes[write - 1][1]
            log += ((write, table, 1 + sum(t == table for _, t, _ in log)),)
        entries = [_entry(index, *log[index - 1]) for index in range(len(state.log) + 1, len(log) + 1)]
        replicas = list(state.replicas)
        replies = _replies(round.targets, round.outcomes)
        enabled = [r for r in round.targets if replicas[r].state == ENABLED]
        moves = self.rule["checkpoint_moves"]([(replies, entries)], len(log), enabled)
        for kind, r, index, table_seqs in moves:
            replica = replicas[r]
            if kind == ADVANCE:
                applied = replica.applied | {pair for seqs in table_seqs for pair in seqs.items()}
                checkpoint = max(replica.checkpoint, index) if index is not None else replica.checkpoint
                replicas[r] = replica._replace(applied=applied, checkpoint=checkpoint)
            else:
                replicas[r] = replica._replace(checkpoint=min(replica.checkpoint, index))
        pending = tuple(other for other in state.pending if other is not round)
        return state._replace(replicas=tuple(replicas), log=log, record=record, pending=pending)

    def _settle(
        self,
        state: State,
        command: Optional[str] = None,
        accepted: bool = False,
        session: Optional[str] = None,
    ) -> Tuple[State, str, Any]:
        """``RequestScheduler._settle_locked``: the step and the record it ended."""
        record = state.record
        step = self.rule["transaction_step"](record is not None, _in_tx(state.replicas), command, accepted)
        if step == OPEN:
            serial = state.serials + 1
            return state._replace(record=(serial, session, ()), serials=serial), step, None
        if step in (FLUSH, DISCARD):
            return state._replace(record=None), step, record
        return state, step, None

    def _disable(self, state: State, r: int) -> State:
        replicas = list(state.replicas)
        replica = replicas[r]
        checkpoint = len(state.log) if replica.state == ENABLED else replica.checkpoint
        replicas[r] = replica._replace(state=DISABLED, checkpoint=checkpoint, tx=None)
        state = _track(state._replace(replicas=tuple(replicas)), None)
        return self._settle(state)[0]

    def _resync(self, state: State, r: int, violations: List[str]) -> State:
        state = self._settle(state)[0]
        if state.record is not None:
            if not _in_tx(state.replicas):
                violations.append("W6")
            return state
        replica = state.replicas[r]
        checkpoint, applied, committed = replica.checkpoint, replica.applied, replica.committed
        floor: dict = {}
        for index in range(replica.checkpoint + 1, len(state.log) + 1):
            write, table, seq = state.log[index - 1]
            entry = _entry(index, write, table, seq)
            verdict, floor = self.rule["replay_step"](entry, checkpoint, applied, floor, _FILTERS[r])
            if verdict == REGRESSED:
                violations.append("W3")
                break
            if verdict == APPLY:
                committed |= {write}
                applied |= set(entry.table_seqs.items())
            if verdict != BEHIND:
                checkpoint = index
        replica = Replica(ENABLED, checkpoint, applied, committed, None)
        state = state._replace(replicas=state.replicas[:r] + (replica,) + state.replicas[r + 1:])
        if not _holds_w1(state, r):
            violations.append("W3")
        return state

    # -- invariants -----------------------------------------------------------------

    @staticmethod
    def _check(state: State) -> List[str]:
        violations = []
        logged = {write for write, _, _ in state.log}
        if logged & (state.rolled_back | state.rejected):
            violations.append("W2")
        if state.acked_autocommit & state.rolled_back:
            violations.append("W7")
        if state.pending:
            return violations
        enabled = [r for r, replica in enumerate(state.replicas) if replica.state == ENABLED]
        if not all(_holds_w1(state, r) for r in enabled):
            violations.append("W1")
        for table in TABLES:
            seqs = [seq for _, t, seq in state.log if t == table]
            if seqs != list(range(1, len(seqs) + 1)) or any(
                {seq for t, seq in state.replicas[r].applied if t == table} != set(seqs)
                for r in enabled
                if r in HOSTS[table]
            ):
                violations.append("W4")
                break
        if (state.record is not None) != _in_tx(state.replicas):
            violations.append("W6")
        return violations


def _run(replica: Replica, command: str, write: int) -> Replica:
    """What one replica does with a statement it accepts."""
    if command == "INSERT":
        if replica.tx is not None:
            return replica._replace(tx=replica.tx + (write,))
        return replica._replace(committed=replica.committed | {write})
    if command == "BEGIN":
        return replica._replace(tx=replica.tx or ())
    if command == "COMMIT":
        return replica._replace(committed=replica.committed | set(replica.tx or ()), tx=None)
    return replica._replace(tx=None)


def _track(state: State, session: Optional[str]) -> State:
    """Open or close the model's own account of the transaction from what
    the replicas' connections now hold."""
    truth, open_now = state.truth, _in_tx(state.replicas)
    if truth is None and open_now:
        return state._replace(truth=Truth(session, (), False))
    if truth is not None and not open_now:
        rolled_back = state.rolled_back if truth.committed else state.rolled_back | set(truth.writes)
        return state._replace(truth=None, rolled_back=rolled_back)
    return state


def _holds_w1(state: State, r: int) -> bool:
    replica = state.replicas[r]
    hosted = {write for write, (_, table) in enumerate(state.writes, start=1) if r in HOSTS[table]}
    buffered = set(state.record[2]) if state.record is not None else set()
    return (
        replica.committed == {write for write, _, _ in state.log} & hosted
        and set(replica.tx or ()) == buffered & hosted
    )


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
