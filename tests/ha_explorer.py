"""Small-scope exhaustive explorer for the controller-HA rules.

Breadth-first search, with state hashing (``tests/explorer.py``), over
every sequence of up to ``depth`` events on a three-controller group.
The decisions are the rule
functions of :mod:`repro.cluster.recovery.replication` — the same ones
:class:`ReplicatedLogStore` calls — imported, never restated. What this
module adds is what the store's shell adds around them: who can reach
whom, what a crash keeps, and the primary's per-peer ack cursor.

Events (each runs to completion before the next):

- ``write n`` — a client write lands on node n. On a follower it runs
  the election first, as ``Controller._ha_gate_write`` does, and a
  promotion announces. Past the gate the entry is appended and, if n is
  still primary, one replication round decides whether it is acked.
- ``crash n`` — n stops; its log and persisted epoch survive.
- ``restart n`` — n comes back with its durable log, as
  :func:`start_state` says: a follower at its persisted epoch, or by the
  zero-configuration rule if it never persisted one.
- ``isolate n`` — n is cut from both peers (clients still reach it).
- ``heal`` — every cut is restored.
- ``elect n`` — only with ``lost_announce``: a write on follower n
  promotes it, and then the write and n's announce are lost — n crashed
  or was cut off between its probes and its announce.

Invariants, checked whenever a node becomes primary:

- **I1** — no two nodes are ever primary at the same epoch.
- **I2** — an entry acked to a client is in the log of every node that
  an election promotes after the ack.

Not modelled: compaction and snapshot install (so no peer is ever
*behind*), reconnect backoff (in-memory failures are instant), and,
unless ``lost_announce`` is set, faults inside an event — a probe and
its announce see the same network.

Run::

    PYTHONPATH=src python tests/ha_explorer.py [--depth N] [--lost-announce]
"""

from __future__ import annotations

import argparse
import functools
from typing import Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

import explorer
from explorer import Result
from repro.cluster.recovery import replication
from repro.cluster.recovery.logstore import LogEntry
from repro.cluster.recovery.replication import (
    ACK,
    COMMITTED,
    DIVERGED,
    DOWN,
    GAP,
    PROMOTE,
    REFUSE,
    ROLE_FOLLOWER,
    ROLE_PRIMARY,
)
from repro.cluster.wire import ERROR_STALE_EPOCH, make_error, make_ha_status_ok, make_replicate_ok

NODES = (0, 1, 2)
NODE_IDS = ("c1", "c2", "c3")
ADDRESSES = ("c1:1", "c2:1", "c3:1")
REQUIRED_ACKS = 2
#: The default bound: the shortest trace that tells a rule mutant apart
#: (promotion ignoring the probes' epochs) is 9 events long.
DEPTH = 9

#: The rule functions the model calls, by name; a test substitutes one.
RULES = ("start_state", "on_replicate", "place_entries", "read_reply", "tally_round", "elect", "promotion")

Event = Tuple[Any, ...]


class Node(NamedTuple):
    up: bool
    epoch: int
    role: str
    #: Entry values by index - 1; each write appends a fresh value.
    log: Tuple[int, ...]
    #: The ack cursor this node's link to each peer holds (own slot 0).
    cursors: Tuple[int, ...]


class State(NamedTuple):
    nodes: Tuple[Node, ...]
    isolated: FrozenSet[int]
    #: Values acked to a client.
    acked: FrozenSet[int]
    #: Every (epoch, node) that was ever primary, for I1.
    leaders: FrozenSet[Tuple[int, int]]
    writes: int


@functools.lru_cache(maxsize=None)
def _entry(index: int, value: int) -> LogEntry:
    return LogEntry(index=index, sql=f"INSERT INTO t VALUES ({value})")


def _others(n: int) -> Tuple[int, ...]:
    return tuple(m for m in NODES if m != n)


class Model:
    """One step of the three-node group, decided by the rule functions
    (``overrides`` replaces some of them by name)."""

    def __init__(self, lost_announce: bool = False, **overrides: Callable[..., Any]) -> None:
        self.lost_announce = lost_announce
        self.rule = explorer.bind_rules((replication,), RULES, overrides)

    @staticmethod
    def name(event: Event) -> str:
        return " ".join([event[0], *(NODE_IDS[n] for n in event[1:])])

    def initial(self) -> State:
        nodes = []
        for n in NODES:
            epoch, role, _ = self.rule["start_state"](ADDRESSES[n], [ADDRESSES[m] for m in _others(n)], None)
            nodes.append(Node(True, epoch, role, (), (0, 0, 0)))
        leaders = frozenset((node.epoch, n) for n, node in enumerate(nodes) if node.role == ROLE_PRIMARY)
        return State(tuple(nodes), frozenset(), frozenset(), leaders, 0)

    def events(self, state: State) -> List[Event]:
        events: List[Event] = []
        for n, node in enumerate(state.nodes):
            if node.up:
                events += [("write", n), ("crash", n)]
                if self.lost_announce and node.role != ROLE_PRIMARY:
                    events.append(("elect", n))
                if n not in state.isolated:
                    events.append(("isolate", n))
            else:
                events.append(("restart", n))
        if state.isolated:
            events.append(("heal",))
        return events

    # -- transitions ---------------------------------------------------------------

    def step(self, state: State, event: Event) -> Tuple[Optional[State], List[str]]:
        """The state after ``event`` (None when nothing changed) and the
        invariants violated on the way."""
        kind, *args = event
        nodes = list(state.nodes)
        if kind == "heal":
            return state._replace(isolated=frozenset()), []
        (n,) = args
        if kind == "isolate":
            return state._replace(isolated=state.isolated | {n}), []
        if kind == "crash":
            # What survives a crash is the log and the persisted epoch;
            # links (and their cursors) do not.
            nodes[n] = nodes[n]._replace(up=False, role=ROLE_FOLLOWER, cursors=(0, 0, 0))
            return state._replace(nodes=tuple(nodes)), []
        if kind == "restart":
            node = nodes[n]
            # The shell persists the epoch on every change, and every
            # change raises it: an epoch above 1 is one the log's record holds.
            persisted = node.epoch if node.epoch > 1 else None
            epoch, role, _ = self.rule["start_state"](
                ADDRESSES[n], [ADDRESSES[m] for m in _others(n)], persisted
            )
            nodes[n] = node._replace(up=True, epoch=epoch, role=role)
            violations: List[str] = []
            leaders = state.leaders
            if role == ROLE_PRIMARY:
                violations, leaders = self._became_primary(state, nodes, n, elected=False)
            return state._replace(nodes=tuple(nodes), leaders=leaders), violations
        return self._write(state, nodes, n, announce=kind == "write")

    def _write(
        self, state: State, nodes: List[Node], n: int, announce: bool
    ) -> Tuple[Optional[State], List[str]]:
        violations: List[str] = []
        leaders = state.leaders
        if nodes[n].role != ROLE_PRIMARY:
            status = self._status(nodes, n)
            replies = [
                make_ha_status_ok(**self._status(nodes, m)) if self._reachable(state, nodes, n, m) else None
                for m in _others(n)
            ]
            verdict, _, floor_epoch = self.rule["elect"](status, replies, REQUIRED_ACKS)
            if verdict != PROMOTE:
                return None, []  # bounced with not_primary: nothing changed
            epoch, role, _ = self.rule["promotion"](nodes[n].epoch, floor_epoch)
            nodes[n] = nodes[n]._replace(epoch=epoch, role=role)
            violations, leaders = self._became_primary(state, nodes, n, elected=True)
            if not announce:
                return state._replace(nodes=tuple(nodes), leaders=leaders), violations
            self._round(state, nodes, n)  # the announce: best effort
        # Past the gate the statement runs and is logged; only then does
        # the round find out whether this node is still the primary.
        value = state.writes + 1
        nodes[n] = nodes[n]._replace(log=nodes[n].log + (value,))
        acked = state.acked
        if nodes[n].role == ROLE_PRIMARY and self._round(state, nodes, n) == COMMITTED:
            acked = acked | {value}
        return state._replace(nodes=tuple(nodes), acked=acked, leaders=leaders, writes=value), violations

    def _became_primary(
        self, state: State, nodes: List[Node], n: int, elected: bool
    ) -> Tuple[List[str], FrozenSet[Tuple[int, int]]]:
        epoch = nodes[n].epoch
        violations = []
        if any(e == epoch and m != n for e, m in state.leaders):
            violations.append("I1")
        # A restart by the zero-configuration rule is primary at epoch 1,
        # where it commits nothing once a peer has moved past it; only an
        # election hands the cluster to a new log.
        if elected and not state.acked <= set(nodes[n].log):
            violations.append("I2")
        return violations, state.leaders | {(epoch, n)}

    # -- the shell, modelled -------------------------------------------------------

    @staticmethod
    def _reachable(state: State, nodes: List[Node], a: int, b: int) -> bool:
        return nodes[a].up and nodes[b].up and a not in state.isolated and b not in state.isolated

    @staticmethod
    def _status(nodes: List[Node], n: int) -> Dict[str, Any]:
        node = nodes[n]
        return {
            "node_id": NODE_IDS[n],
            "address": ADDRESSES[n],
            "epoch": node.epoch,
            "role": node.role,
            "last_index": len(node.log),
        }

    def _round(self, state: State, nodes: List[Node], n: int) -> str:
        """``ReplicatedLogStore.replicate``: every reachable peer gets the
        entries past its cursor, a peer that answers gap gets them again
        from its real head, and the tally decides."""
        primary = nodes[n]
        cursors = list(primary.cursors)
        outcomes = {m: (DOWN, 0) for m in _others(n)}
        pending = list(outcomes)
        for _ in range(2):
            for m in pending:
                if not self._reachable(state, nodes, n, m):
                    outcomes[m] = (DOWN, 0)
                    continue
                shipped = primary.log[cursors[m]:]
                reply = self._apply(nodes, m, n, primary.epoch, cursors[m], shipped)
                outcomes[m] = self.rule["read_reply"](reply)
                if outcomes[m][0] in (ACK, GAP):
                    cursors[m] = outcomes[m][1]
            pending = [m for m in pending if outcomes[m][0] == GAP]
        verdict, _, epoch, role = self.rule["tally_round"](
            primary.epoch, primary.role, outcomes.values(), REQUIRED_ACKS
        )
        nodes[n] = primary._replace(epoch=epoch, role=role, cursors=tuple(cursors))
        return verdict

    def _apply(
        self, nodes: List[Node], m: int, sender: int, frame_epoch: int, base: int, shipped: Tuple[int, ...]
    ) -> Dict[str, Any]:
        """``ReplicatedLogStore.apply_replicate`` on node m, for a frame
        carrying the values ``shipped`` from index ``base + 1``."""
        node = nodes[m]
        verdict, epoch, role, _ = self.rule["on_replicate"](
            node.epoch, node.role, None, frame_epoch, ADDRESSES[sender]
        )
        if verdict == REFUSE:
            reply = make_error(ERROR_STALE_EPOCH, "stale")
            reply["epoch"] = node.epoch
            return reply
        node = nodes[m] = node._replace(epoch=epoch, role=role)
        local_last = len(node.log)
        local = {i + 1: _entry(i + 1, v) for i, v in enumerate(node.log)}
        entries = [_entry(base + i + 1, v) for i, v in enumerate(shipped)]
        placement, _ = self.rule["place_entries"](entries, local_last, 0, True, local)
        if placement == DIVERGED:
            return make_error("diverged_log", "diverged")
        if placement != GAP:
            fresh = shipped[max(0, local_last - base):]
            node = nodes[m] = node._replace(log=node.log + fresh)
        return make_replicate_ok(NODE_IDS[m], node.epoch, len(node.log), gap=placement == GAP)


def explore(
    depth: int = DEPTH,
    stop_at: Optional[str] = None,
    lost_announce: bool = False,
    **overrides: Callable[..., Any],
) -> Result:
    """Every state reachable in ``depth`` events (:func:`explorer.explore`);
    ``overrides`` replace rule functions by name."""
    return explorer.explore(Model(lost_announce, **overrides), depth, stop_at)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--depth", type=int, default=DEPTH, help=f"events per trace (default {DEPTH})")
    parser.add_argument("--lost-announce", action="store_true", help="add the elect event")
    args = parser.parse_args()
    return explorer.report(explore(args.depth, lost_announce=args.lost_announce), ("I1", "I2"))


if __name__ == "__main__":
    raise SystemExit(main())
