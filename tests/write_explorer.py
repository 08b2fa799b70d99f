"""Small-scope exhaustive explorer for the write-path rules.

Breadth-first search, with state hashing (``tests/explorer.py``), over
every sequence of up to ``depth`` events on two replicas, two client
sessions and two tables. The decisions are the rule functions of
:mod:`repro.cluster.scheduler` (``round_verdict``, ``transaction_step``,
``write_fate``, ``scope_held``, ``checkpoint_moves``) and
:mod:`repro.cluster.backend` (``replay_step``) — the ones
``RequestScheduler`` and ``Backend`` call, imported, never restated.
What this module adds is what their shell adds around them, and what
the replicas do: where a statement goes, what a reply does to a
replica's rows and connections, and its checkpoint and applied
sequences.

Placement: r1 hosts tables a and b, r2 only b. So a write to a goes to r1
alone and a write to b to both.

Each session's transaction is its own: a record (its buffer, the
replicas it checked a connection out of, the tables it holds) and, on
each replica, a connection of its own. Auto-commit writes run on each
replica's own connection.

Events (each outcome list gives every target's answer: ``ok``, ``stmt``
— a statement fault — or ``conn`` — a connection fault, which drops that
connection and so rolls back the transaction on it):

- ``write s t o..`` — session s writes table t: auto-commit, or in s's
  transaction, where the first write to a replica checks a connection
  out there and BEGIN runs on it first. This is the round's *execute*:
  the targets apply it and the replicas the round verdict names leave
  the rotation, closing all their connections. A later ``account s``
  settles s's record, logs or defers the write and moves checkpoints,
  so rounds on disjoint tables interleave as their table scopes allow.
  A table is taken while a round on it is in flight, and while another
  session's transaction holds it (what :func:`scope_held` keeps).
- ``begin s`` — opens s's record; it sends nothing.
- ``next s`` — s's next statement after its connections all dropped
  outside a round of its own (a disable, another session's round): the
  record stayed, over, to fail that statement (or take its ROLLBACK),
  and goes.
- ``commit s o..``, ``rollback s o..`` — s's transaction ends on its own
  connections that still hold it, accounted by ``account s``.
- ``disable r`` — ``checkpoint_and_disable`` of an enabled replica.
- ``resync r`` — ``resync_and_enable`` of a FAILED or DISABLED one.

Invariants (W1, W4 and W6 whenever no round is in flight):

- **W1** — every ENABLED replica holds exactly the logged writes it
  hosts, and on each session's connection exactly that session's
  buffered writes it hosts.
- **W2** — the log holds no rolled-back write and no write that every
  replica rejected.
- **W3** — ``resync`` brings a FAILED or DISABLED replica back to W1.
- **W4** — per-table sequences are gapless, in the log and in what every
  ENABLED replica recorded as applied for the tables it hosts.
- **W5** — no replica leaves the rotation for a statement that no
  replica accepted but it rejected.
- **W6** — a session's record is open (not over) exactly when its
  connections hold its transaction, or it checked none out yet;
  ``resync`` is refused only then.
- **W7** — an acked auto-commit write is never undone.
- **W8** — per table, the log orders writes as they ran.

Not modelled: the write batcher's rounds of several statements (each is
accounted as the single-statement rounds are), reads and the query
cache, key scopes, wait-die refusals (a write that would wait is simply
not enabled), compaction and dumps, and faults between a round's target
snapshot and its broadcast — an event runs to completion.

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
from repro.cluster.scheduler import ADVANCE, DEFER, DISCARD, FLUSH, KEEP, LOG
from repro.dbapi.exceptions import OperationalError, ProgrammingError

REPLICAS = ("r1", "r2")
SESSIONS = ("A", "B")
TABLES = ("a", "b")
#: Which replicas host each table.
HOSTS = {"a": (0,), "b": (0, 1)}
OK, STMT, CONN = "ok", "stmt", "conn"
ENABLED, FAILED, DISABLED = "enabled", "failed", "disabled"
#: The default bound. The longest shortest trace a test needs — a
#: transaction's write, another session's write to its table, then its
#: COMMIT, each with its account — is seven events long.
DEPTH = 7
INVARIANTS = ("W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8")

#: The rule functions the model calls, by name; a test substitutes one.
RULES = (
    "round_verdict",
    "transaction_step",
    "write_fate",
    "scope_held",
    "checkpoint_moves",
    "replay_step",
)

#: What a target answers: ``(result, error)``.
_REPLIES = {
    OK: (([], [], 1), None),
    STMT: (None, ProgrammingError("rejected")),
    CONN: (None, OperationalError("connection lost")),
}
_NO_TX = (None,) * len(SESSIONS)


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
    #: Per session, the writes applied inside the transaction open on its
    #: connection here; None when that connection holds none.
    tx: Tuple[Optional[Tuple[int, ...]], ...]


class Record(NamedTuple):
    """The scheduler's record of one session's transaction."""

    buffer: Tuple[int, ...]
    #: The replicas it checked a connection out of.
    leased: FrozenSet[int]
    #: The tables its writes hold until it ends.
    held: FrozenSet[str]
    #: Its connections all dropped outside its own round: its scopes and
    #: buffer are gone, and its session's next statement ends it.
    over: bool = False


class Round(NamedTuple):
    """An executed round waiting for its account."""

    session: int
    #: The statement's command: INSERT, COMMIT or ROLLBACK.
    command: str
    #: The written table; "" for transaction control.
    table: str
    targets: Tuple[int, ...]
    outcomes: Tuple[str, ...]
    accepted: bool
    #: The write's value (0 for transaction control).
    write: int
    #: Whether it ran in its session's transaction (whose record no
    #: other event ends while the round is in flight).
    within: bool


class Truth(NamedTuple):
    """A session's transaction as the replicas ran it — the model's own
    account, which the rules' records are checked against."""

    writes: Tuple[int, ...]
    committed: bool


class State(NamedTuple):
    replicas: Tuple[Replica, ...]
    #: ``(write, table, seq)`` per log entry; an entry's index is its
    #: position + 1.
    log: Tuple[Tuple[int, str, int], ...]
    #: Per session, its record (None when it has no transaction open).
    records: Tuple[Optional[Record], ...]
    pending: Tuple[Round, ...]
    #: The table of write n at position n - 1, in the order the writes ran.
    writes: Tuple[str, ...]
    truths: Tuple[Optional[Truth], ...]
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


@functools.lru_cache(maxsize=None)
def _holding(replicas: Any, s: int) -> Tuple[int, ...]:
    """The replicas whose connection of session ``s`` holds its transaction."""
    return tuple(r for r, replica in enumerate(replicas) if replica.tx[s] is not None)


def _alive(state: State, s: int) -> bool:
    """``_Transaction.alive``: no connection checked out yet, or one
    still holding the transaction."""
    return not state.records[s].leased or bool(_holding(state.replicas, s))


def _with(items: Tuple[Any, ...], index: int, value: Any) -> Tuple[Any, ...]:
    return items[:index] + (value,) + items[index + 1:]


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
        if kind in ("account", "begin", "next"):
            return f"{kind} {SESSIONS[args[0]]}"
        if kind == "write":
            return " ".join([kind, SESSIONS[args[0]], args[1], *args[3]])
        return " ".join([kind, SESSIONS[args[0]], *args[2]])

    def initial(self) -> State:
        replica = Replica(ENABLED, 0, frozenset(), frozenset(), _NO_TX)
        none: FrozenSet[int] = frozenset()
        return State((replica, replica), (), _NO_TX, (), (), _NO_TX, none, none, none)

    def events(self, state: State) -> List[Event]:
        events: List[Event] = [("account", round.session) for round in state.pending]
        busy = {round.table for round in state.pending}
        running = {round.session for round in state.pending}
        for s, record in enumerate(state.records):
            if s in running:
                continue
            if record is not None and record.over:
                events.append(("next", s))
                continue
            held = {t for other, r in enumerate(state.records) if r is not None and other != s for t in r.held}
            for table in TABLES:
                targets = tuple(r for r in HOSTS[table] if state.replicas[r].state == ENABLED)
                if table in busy or table in held or not targets:
                    continue
                events += [("write", s, table, targets, o) for o in _outcome_lists(len(targets))]
            if record is None:
                events.append(("begin", s))
                continue
            live = _holding(state.replicas, s)
            for kind in ("commit", "rollback"):
                events += [(kind, s, live, o) for o in _outcome_lists(len(live))]
        if not state.pending:
            for r, replica in enumerate(state.replicas):
                events.append(("disable" if replica.state == ENABLED else "resync", r))
        return events

    # -- transitions ---------------------------------------------------------------

    def step(self, state: State, event: Event) -> Tuple[Optional[State], List[str]]:
        """The state after ``event`` and the invariants violated on the way."""
        kind, *args = event
        violations: List[str] = []
        if kind == "account":
            state = self._account(state, next(r for r in state.pending if r.session == args[0]))
        elif kind == "begin":
            state = self._begin(state, args[0])
        elif kind == "next":
            state = state._replace(records=_with(state.records, args[0], None))
        elif kind == "disable":
            state = self._disable(state, args[0])
        elif kind == "resync":
            state = self._resync(state, args[0], violations)
        elif kind == "write":
            session, table, targets, outcomes = args
            state = self._execute(state, session, "INSERT", table, targets, outcomes, violations)
        else:
            session, targets, outcomes = args
            state = self._execute(state, session, kind.upper(), "", targets, outcomes, violations)
        return state, violations + list(self._check(state))

    def _begin(self, state: State, s: int) -> State:
        return state._replace(records=_with(state.records, s, Record((), frozenset(), frozenset())))

    def _execute(
        self,
        state: State,
        s: int,
        command: str,
        table: str,
        targets: Tuple[int, ...],
        outcomes: Tuple[str, ...],
        violations: List[str],
    ) -> State:
        """The broadcast and the round verdict, which takes replicas out
        of the rotation before the round's account."""
        replicas, truths = list(state.replicas), list(state.truths)
        record = state.records[s]
        writes, write = state.writes, 0
        if command == "INSERT":
            writes += (table,)
            write = len(writes)
        effective = []
        for r, outcome in zip(targets, outcomes):
            replica = replicas[r]
            if record is not None and r not in record.leased:
                # Checked out for the transaction: BEGIN runs on it first.
                replica = replica._replace(tx=_with(replica.tx, s, ()))
                record = record._replace(leased=record.leased | {r})
                truths[s] = truths[s] or Truth((), False)
            elif record is not None and replica.tx[s] is None:
                outcome = CONN  # the transaction's connection here is gone
            if outcome == CONN:
                replica = replica._replace(tx=_with(replica.tx, s, None)) if record is not None else replica
            elif outcome == OK:
                replica = _run(replica, command, write, s if record is not None else None)
            replicas[r] = replica
            effective.append(outcome)
        outcomes = tuple(effective)
        committed = command == "COMMIT" and OK in outcomes
        accepted, leaving = self.rule["round_verdict"](_replies(targets, outcomes))
        if OK not in outcomes and any(outcomes[targets.index(r)] == STMT for r in leaving):
            violations.append("W5")
        for r in leaving:
            replicas[r] = replicas[r]._replace(state=FAILED, tx=_NO_TX)
        rejected, acked = state.rejected, state.acked_autocommit
        if write and OK not in outcomes:
            rejected |= {write}
        elif write and record is None:
            acked |= {write}
        elif write:
            truths[s] = truths[s]._replace(writes=truths[s].writes + (write,))
        if committed:
            truths[s] = truths[s]._replace(committed=True)
        within = record is not None
        if within:
            if command == "INSERT" and self.rule["scope_held"](True, False):
                record = record._replace(held=record.held | {table})
        round = Round(s, command, table, targets, outcomes, accepted is not None, write, within)
        state = _track(
            state._replace(
                replicas=tuple(replicas),
                records=_with(state.records, s, record),
                writes=writes,
                truths=tuple(truths),
                rejected=rejected,
                acked_autocommit=acked,
                pending=state.pending + (round,),
            )
        )
        # A replica that left closed every session's connection there.
        return self._settle_dead(state) if leaving else state

    def _account(self, state: State, round: Round) -> State:
        """``RequestScheduler._run_round``'s ``_state_lock`` section."""
        s = round.session
        record, step = state.records[s], KEEP
        if round.within:
            step = self.rule["transaction_step"](_alive(state, s), round.command, round.accepted)
        fate = None
        if round.command == "INSERT":
            fate = self.rule["write_fate"](round.accepted, round.within, step == KEEP)
        if fate == DEFER:
            record = record._replace(buffer=record.buffer + (round.write,))
        rows = record.buffer if step == FLUSH else (round.write,) if fate == LOG else ()
        log = state.log
        for write in rows:
            table = state.writes[write - 1]
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
        if step in (FLUSH, DISCARD):
            record = None
        pending = tuple(other for other in state.pending if other is not round)
        records = _with(state.records, s, record)
        return state._replace(replicas=tuple(replicas), log=log, records=records, pending=pending)

    def _settle_dead(self, state: State) -> State:
        """``RequestScheduler._settle_dead``: records whose connections
        all dropped, but for those with a round in flight — its own
        account settles each — are over, their scopes released."""
        records = list(state.records)
        running = {round.session for round in state.pending}
        for s, record in enumerate(records):
            if record is not None and not record.over and s not in running and not _alive(state, s):
                records[s] = Record((), record.leased, frozenset(), True)
        return state._replace(records=tuple(records))

    def _disable(self, state: State, r: int) -> State:
        replicas = list(state.replicas)
        replica = replicas[r]
        checkpoint = len(state.log) if replica.state == ENABLED else replica.checkpoint
        replicas[r] = replica._replace(state=DISABLED, checkpoint=checkpoint, tx=_NO_TX)
        return self._settle_dead(_track(state._replace(replicas=tuple(replicas))))

    def _resync(self, state: State, r: int, violations: List[str]) -> State:
        state = self._settle_dead(state)
        if any(record is not None and not record.over for record in state.records):
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
        replica = Replica(ENABLED, checkpoint, applied, committed, _NO_TX)
        state = state._replace(replicas=_with(state.replicas, r, replica))
        if not _holds_w1(state, r):
            violations.append("W3")
        return state

    # -- invariants -----------------------------------------------------------------

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _check(state: State) -> List[str]:
        violations = []
        logged = {write for write, _, _ in state.log}
        if logged & (state.rolled_back | state.rejected):
            violations.append("W2")
        if state.acked_autocommit & state.rolled_back:
            violations.append("W7")
        for table in TABLES:
            order = [write for write, t, _ in state.log if t == table]
            if order != sorted(order):
                violations.append("W8")
                break
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
        for s, record in enumerate(state.records):
            holding = bool(_holding(state.replicas, s))
            if holding if record is None or record.over else not (holding or not record.leased):
                violations.append("W6")
                break
        return violations


def _run(replica: Replica, command: str, write: int, s: Optional[int]) -> Replica:
    """What one replica does with a statement it accepts, on session
    ``s``'s connection (None: its own, auto-commit)."""
    if s is None:
        return replica._replace(committed=replica.committed | {write})
    tx = replica.tx[s]
    if command == "INSERT":
        return replica._replace(tx=_with(replica.tx, s, tx + (write,)))
    committed = replica.committed | set(tx) if command == "COMMIT" else replica.committed
    return replica._replace(committed=committed, tx=_with(replica.tx, s, None))


def _track(state: State) -> State:
    """Open or close the model's own account of each session's
    transaction from what its connections now hold."""
    truths, rolled_back = list(state.truths), state.rolled_back
    for s, truth in enumerate(truths):
        open_now = bool(_holding(state.replicas, s))
        if truth is None and open_now:
            truths[s] = Truth((), False)
        elif truth is not None and not open_now:
            if not truth.committed:
                rolled_back |= set(truth.writes)
            truths[s] = None
    return state._replace(truths=tuple(truths), rolled_back=rolled_back)


def _holds_w1(state: State, r: int) -> bool:
    replica = state.replicas[r]
    hosted = {write for write, table in enumerate(state.writes, start=1) if r in HOSTS[table]}
    return replica.committed == {write for write, _, _ in state.log} & hosted and all(
        set(tx or ()) == (set(record.buffer) if record is not None else set()) & hosted
        for tx, record in zip(replica.tx, state.records)
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
