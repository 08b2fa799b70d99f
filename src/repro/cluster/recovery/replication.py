"""Controller HA: recovery-log replication across controller peers.

The paper's middleware replicates the *backends*, but each controller's
recovery log is local — if the controller dies, committed writes that
only its log knew about are stranded even though the physical databases
applied them. :class:`ReplicatedLogStore` closes that gap: it wraps any
:class:`~repro.cluster.recovery.logstore.LogStore` and, when the
group-commit leader flushes, pushes the fsync group's entries to every
follower peer over the cluster wire protocol (REPLICATE/REPLICATE_OK
frames) and requires a **majority of the controller cluster** to hold
them before ``wait_durable`` resolves. One replication round covers the
whole fsync group — the group-commit batching from PR 7 amortises the
network round-trip exactly like it amortises the fsync.

Total order is the recovery log's own: entries arrive at the primary
already indexed (the :class:`RecoveryLog` facade serialises appends), so
replication is a log-shipping protocol, not a consensus one. What keeps
it safe across failover is the **epoch rule**:

- every node tracks an integer ``epoch``; frames carry the sender's
  epoch;
- a follower refuses any REPLICATE whose epoch is *older* than its own
  (reply: ``stale_epoch`` carrying the refuser's epoch), and adopts any
  *newer* epoch (demoting itself if it thought it was primary);
- promotion bumps the epoch past every value the promoting node has
  seen, so a deposed primary that comes back cannot reach a majority —
  every up-to-date peer refuses its stale epoch, its quorum fails, and
  it demotes itself on the spot.

With ``2f+1`` controllers the cluster tolerates ``f`` failures. The
degenerate 2-node cluster has majority 2, so *either* node's death
halts writes — deliberate: a 2-node cluster that kept accepting writes
on one node could diverge under partition. Use 3 controllers for HA.

The election that decides who promotes
(:meth:`ReplicatedLogStore.ensure_primary`) lives here, next to the
epoch rule it relies on, and so does the one way a frame leaves one
controller for another (:class:`PeerLink`): replication rounds,
election probes and the controller's group operations are all cut by
the same network faults.

See docs/ha.md for the protocol walk-through.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import DriverError, TransportError

from repro.cluster.wire import (
    ClusterMessageType,
    ERROR_STALE_EPOCH,
    make_error,
    make_ha_status,
    make_replicate,
    make_replicate_ok,
)
from repro.cluster.recovery.checkpoints import CheckpointRegistry
from repro.cluster.recovery.logstore import LogEntry, LogStore, atomic_write_json

ROLE_PRIMARY = "primary"
ROLE_FOLLOWER = "follower"

#: A transport failure that took at least this long was a *timeout*
#: (connect or ack), not an instant refusal — only those earn reconnect
#: backoff, because only those would otherwise add their full timeout to
#: every replication round for as long as the peer stays dark.
_SLOW_FAILURE_S = 0.05
_BACKOFF_BASE_S = 0.25
_BACKOFF_CAP_S = 5.0

#: Seconds a peer gets to accept a channel, to ack a replication round,
#: and to answer an election probe.
_CONNECT_TIMEOUT_S = 2.0
_ACK_TIMEOUT_S = 5.0
_PROBE_TIMEOUT_S = 2.0


class ReplicationError(DriverError):
    """A replication round could not reach a majority, or this node was
    deposed mid-round. Raised out of ``flush()`` — and therefore out of
    ``GroupCommit.wait_durable`` — so a write whose durability could not
    be confirmed fails at the client instead of lying about it. The
    statement may still have been applied by the backends (durability
    *unknown*, exactly like a crashed commit on a single-node database);
    replay dedup via per-table sequences keeps a retry safe."""


class PeerLink:
    """One channel from this controller to a peer controller — the only
    way a controller→controller frame leaves a node.

    The channel is lazily (re)connected, as coming from this node's own
    address (``source``) so a network fault between the two controllers
    — or at this node's own endpoint — severs it; any transport failure
    closes it so the next request starts fresh. The replication store
    keeps one link per peer open across rounds; ``acked_index`` is the
    highest log index the peer confirmed holding — the cursor that keeps
    steady-state rounds incremental. Election probes and group
    operations use a link for one exchange (:func:`peer_request`)."""

    def __init__(self, address: str, network: Any, source: str) -> None:
        self.address = address
        self._network = network
        self._source = source
        self._channel: Optional[Any] = None
        self.acked_index = 0
        self.reachable = False
        #: The peer answered but cannot hold the shipped entries (its log
        #: head sits below the primary's compaction floor and it did not
        #: take the snapshot): it needs a reseed and is never counted as
        #: an ack until it catches up.
        self.needs_reseed = False
        #: Reconnect backoff after slow failures: until ``retry_at`` the
        #: peer is skipped (when quorum allows), so a dead peer's connect
        #: timeout is paid once per backoff window, not once per flush.
        self.fail_streak = 0
        self.retry_at = 0.0

    def in_backoff(self) -> bool:
        return time.monotonic() < self.retry_at

    def request(
        self, message: Dict[str, Any], timeout: float = _ACK_TIMEOUT_S
    ) -> Dict[str, Any]:
        """Send one frame and wait ``timeout`` seconds for its reply;
        raises TransportError."""
        started = time.monotonic()
        try:
            channel = self._channel
            if channel is None:
                channel = self._network.connect(
                    self.address, timeout=_CONNECT_TIMEOUT_S, source=self._source
                )
                self._channel = channel
            channel.send(message)
            reply = channel.recv(timeout=timeout)
        except TransportError:
            self.close()
            self._note_failure(time.monotonic() - started)
            raise
        if reply is None:
            self.close()
            self._note_failure(time.monotonic() - started)
            raise TransportError(f"peer {self.address} closed the channel")
        self.fail_streak = 0
        self.retry_at = 0.0
        return reply

    def _note_failure(self, elapsed: float) -> None:
        if elapsed < _SLOW_FAILURE_S:
            return  # instant refusals are cheap to retry next round
        self.fail_streak += 1
        delay = min(_BACKOFF_BASE_S * (2 ** (self.fail_streak - 1)), _BACKOFF_CAP_S)
        self.retry_at = time.monotonic() + delay

    def close(self) -> None:
        channel, self._channel = self._channel, None
        if channel is not None:
            try:
                channel.close()
            except TransportError:
                pass


def peer_request(
    network: Any, source: str, address: str, message: Dict[str, Any], timeout: float
) -> Dict[str, Any]:
    """One exchange with a peer on a channel of its own (election probes,
    group operations): a slow one can never queue in front of a
    replication ack. Raises TransportError."""
    link = PeerLink(address, network, source)
    try:
        return link.request(message, timeout=timeout)
    finally:
        link.close()


class ReplicatedLogStore(LogStore):
    """Wrap an inner :class:`LogStore` with majority-ack peer replication.

    On the **primary**, ``flush()`` first makes the fsync group durable
    locally (``inner.flush()``), then runs one replication round: every
    peer missing entries gets them in a single REPLICATE frame, and the
    round succeeds only when acks + self reach ``required_acks`` (strict
    cluster majority, counting this node). Failure raises
    :class:`ReplicationError` up through ``wait_durable``.

    On a **follower**, :meth:`apply_replicate` appends the shipped
    entries idempotently (duplicates skipped, gaps reported for
    backfill), mirrors the primary's compaction floor, and flushes the
    inner store *before* acking — a majority ack therefore means a
    majority of controllers hold the entries at their own local
    durability level.

    Every controller is a node of such a group; a standalone one is the
    group of one: no links, always primary, its own majority, a
    ``flush()`` that ships nothing.
    """

    def __init__(
        self,
        inner: LogStore,
        network: Any,
        node_id: str,
        self_address: str,
        peer_addresses: List[str],
        meta_path: Optional[str] = None,
    ) -> None:
        self.inner = inner
        self._network = network
        self.node_id = node_id
        self.self_address = self_address
        #: A group of one has nobody to be deposed by: it persists no
        #: epoch and always restarts as its own primary.
        self._meta_path = meta_path if peer_addresses else None
        self._peers: Dict[str, PeerLink] = {
            address: PeerLink(address, network, source=self_address)
            for address in peer_addresses
        }
        self.cluster_size = 1 + len(self._peers)
        #: Strict majority of the controller cluster, counting this node.
        self.required_acks = self.cluster_size // 2 + 1
        self.epoch = 1
        #: Where the cluster thinks the primary is; followers hand this
        #: to bounced drivers so failover goes straight to the right node.
        self.primary_hint: Optional[str] = None
        restored = self._load_meta()
        if restored is not None:
            # This node was deposed or promoted in a previous life; its
            # pre-crash role is unknowable, so restart as a follower at
            # the persisted epoch and let election sort it out.
            self.epoch = restored
            self.role = ROLE_FOLLOWER
        else:
            # Deterministic initial primary with zero configuration: the
            # lexicographically smallest controller address. Every peer
            # computes the same answer from the same peer list.
            all_addresses = sorted([self_address, *peer_addresses])
            self.role = ROLE_PRIMARY if all_addresses[0] == self_address else ROLE_FOLLOWER
            if self.role == ROLE_FOLLOWER:
                self.primary_hint = all_addresses[0]
        #: Serialises replication rounds (one group-commit leader at a
        #: time calls flush, but promote()/announce() may race it).
        self._round_lock = threading.Lock()
        #: Serialises REPLICATE application (two primaries racing a
        #: failover may both hold an open replication channel here).
        self._apply_lock = threading.Lock()
        #: Guards epoch/role/hint transitions against concurrent
        #: REPLICATE application and election probes. Deliberately NOT
        #: held across log appends or fsyncs: status() answers election
        #: probes under this lock, and a probe stuck behind a flush would
        #: blow past the probe timeout and skew responder sets.
        self._state_lock = threading.Lock()
        #: Serialises election attempts (non-blocking: a write that finds
        #: an election already running just reports not_primary).
        self._election_lock = threading.Lock()
        self._checkpoints: Optional[CheckpointRegistry] = None
        self._on_applied: Callable[[List[LogEntry]], None] = lambda entries: None
        self._replicated_through = 0
        self._announced_floor = 0
        self.rounds = 0
        self.entries_shipped = 0
        self.snapshot_installs = 0
        self.quorum_failures = 0
        self.promotions = 0
        self.depositions = 0
        self.epoch_adoptions = 0

    # -- epoch persistence --------------------------------------------------------

    def _load_meta(self) -> Optional[int]:
        if self._meta_path is None:
            return None
        import json
        import os

        if not os.path.exists(self._meta_path):
            return None
        try:
            with open(self._meta_path, "r", encoding="utf-8") as handle:
                return int(json.load(handle).get("epoch", 1))
        except (ValueError, OSError):
            return None

    def _persist_meta_locked(self) -> None:
        if self._meta_path is not None:
            atomic_write_json(self._meta_path, {"epoch": self.epoch})

    # -- wiring --------------------------------------------------------------------

    def attach(
        self,
        checkpoints: CheckpointRegistry,
        on_applied: Callable[[List[LogEntry]], None],
    ) -> None:
        """Wire in the two things built on top of the store (which is
        constructed first): the checkpoint registry, shipped whole with
        every round and restored from every accepted frame, and the
        callable told which entries a frame appended here
        (``RecoveryLog.observe_replicated`` — replicated entries bypass
        the facade, whose per-table sequence counters must still advance
        or a later promotion would hand out colliding sequences)."""
        self._checkpoints = checkpoints
        self._on_applied = on_applied

    @property
    def is_primary(self) -> bool:
        return self.role == ROLE_PRIMARY

    def peer_addresses(self) -> List[str]:
        return list(self._peers)

    def peer_link(self, address: str) -> PeerLink:
        return self._peers[address]

    # -- LogStore delegation -------------------------------------------------------

    def append(self, entry: LogEntry) -> None:
        self.inner.append(entry)

    def append_many(self, entries: List[LogEntry]) -> None:
        self.inner.append_many(entries)

    def entries_after(self, index: int) -> List[LogEntry]:
        return self.inner.entries_after(index)

    @property
    def last_index(self) -> int:
        return self.inner.last_index

    @property
    def truncated_through(self) -> int:
        return self.inner.truncated_through

    @property
    def entry_count(self) -> int:
        return self.inner.entry_count

    def truncate_through(self, index: int) -> int:
        return self.inner.truncate_through(index)

    def reset_to_floor(self, index: int) -> None:
        self.inner.reset_to_floor(index)

    def close(self) -> None:
        for peer in self._peers.values():
            peer.close()
        self.inner.close()

    def __getattr__(self, name: str) -> Any:
        # Store-specific observables (FileLogStore.fsyncs, .directory,
        # .recovered_partial_lines, ...) stay reachable through the wrap.
        return getattr(self.inner, name)

    # -- primary side --------------------------------------------------------------

    def flush(self) -> None:
        """Local durability first, then one majority-ack round for
        everything the fsync group made durable. Called once per
        group-commit flush — N batched writes cost one network round."""
        self.inner.flush()
        if self._peers and self.is_primary:
            self.replicate()

    def replicate(self, force: bool = False, require_quorum: bool = True) -> bool:
        """Run one replication round; returns True on majority.

        Skips the network entirely when nothing new happened since the
        last majority-acked round (``force`` overrides, used by
        :meth:`announce` after promotion). Raises
        :class:`ReplicationError` when the round cannot reach a majority
        (``require_quorum=False`` downgrades that to a False return, for
        best-effort announcements)."""
        with self._round_lock:
            with self._state_lock:
                if self.role != ROLE_PRIMARY:
                    raise ReplicationError(
                        f"{self.node_id} is not the primary (epoch {self.epoch})"
                    )
                epoch = self.epoch
            head = self.inner.last_index
            floor = self.inner.truncated_through
            if not force and head <= self._replicated_through and floor <= self._announced_floor:
                return True
            # ``is not None``: an empty registry is falsy but still shipped
            # (releases propagate as an empty snapshot).
            checkpoints = (
                self._checkpoints.snapshot() if self._checkpoints is not None else None
            )
            outcomes = self._ship_round(epoch, floor, checkpoints)
            acks = 1  # this node holds its own log
            stale_epoch_seen = 0
            for peer in self._peers.values():
                outcome, stale_epoch, shipped = outcomes[peer.address]
                self.entries_shipped += shipped
                if outcome == "ack":
                    peer.reachable = True
                    peer.needs_reseed = False
                    acks += 1
                elif outcome == "behind":
                    # Reachable, but its log head sits below our compaction
                    # floor and the backfill retry could not fill it: the
                    # peer does NOT hold the entries, so it must not count
                    # toward the majority — otherwise an "acked" write
                    # could be durable on fewer nodes than promised.
                    peer.reachable = True
                    peer.needs_reseed = True
                elif outcome == "stale":
                    peer.reachable = True
                    stale_epoch_seen = max(stale_epoch_seen, stale_epoch)
                else:
                    peer.reachable = False
            if stale_epoch_seen:
                # A peer is ahead of us: we were deposed while we slept.
                with self._state_lock:
                    if stale_epoch_seen > self.epoch:
                        self.epoch = stale_epoch_seen
                        self.epoch_adoptions += 1
                    if self.role == ROLE_PRIMARY:
                        self.role = ROLE_FOLLOWER
                        self.depositions += 1
                    self._persist_meta_locked()
                raise ReplicationError(
                    f"{self.node_id} was deposed: a peer is at epoch "
                    f"{stale_epoch_seen}, refusing our stale appends"
                )
            if acks >= self.required_acks:
                self.rounds += 1
                self._replicated_through = head
                self._announced_floor = floor
                return True
            self.quorum_failures += 1
            if require_quorum:
                raise ReplicationError(
                    f"replication quorum failed: {acks}/{self.required_acks} "
                    f"acks in a cluster of {self.cluster_size}"
                )
            return False

    def _ship_round(
        self,
        epoch: int,
        floor: int,
        checkpoints: Optional[List[Dict[str, Any]]],
    ) -> Dict[str, Tuple[str, int, int]]:
        """Contact every peer for one round; returns per-address
        ``(outcome, stale_epoch, entries_shipped)``.

        Peers in reconnect backoff are skipped for free (counted "down")
        — unless the round cannot reach quorum without them, in which
        case they are tried anyway: backoff only ever trades latency,
        never availability."""
        results: Dict[str, Tuple[str, int, int]] = {}
        ready = [p for p in self._peers.values() if not p.in_backoff()]
        deferred = [p for p in self._peers.values() if p.in_backoff()]
        for peer in deferred:
            results[peer.address] = ("down", 0, 0)
        self._contact_peers(ready, epoch, floor, checkpoints, results)
        acks = sum(1 for outcome, _, _ in results.values() if outcome == "ack")
        if deferred and 1 + acks < self.required_acks:
            self._contact_peers(deferred, epoch, floor, checkpoints, results)
        return results

    def _contact_peers(
        self,
        peers: List[PeerLink],
        epoch: int,
        floor: int,
        checkpoints: Optional[List[Dict[str, Any]]],
        results: Dict[str, Tuple[str, int, int]],
    ) -> None:
        """One REPLICATE exchange per peer, concurrently: the round costs
        the *slowest* peer's latency, not the sum — one dead peer's
        connect timeout no longer serialises in front of every live
        peer's ack on every group-commit flush."""
        if not peers:
            return

        def ship(target: PeerLink) -> None:
            results[target.address] = self._replicate_to_peer(
                target, epoch, floor, checkpoints
            )

        threads = [
            threading.Thread(target=ship, args=(peer,), daemon=True)
            for peer in peers[1:]
        ]
        for thread in threads:
            thread.start()
        ship(peers[0])
        for thread in threads:
            thread.join()

    def _replicate_to_peer(
        self,
        peer: PeerLink,
        epoch: int,
        floor: int,
        checkpoints: Optional[List[Dict[str, Any]]],
    ) -> Tuple[str, int, int]:
        """Ship the peer everything past its ack cursor; returns
        ``(outcome, stale_epoch, entries_shipped)`` where outcome is
        "ack", "behind" (reachable but unable to hold the entries — needs
        a reseed, never counted toward quorum), "stale" (peer refused our
        epoch) or "down"."""
        shipped = 0
        for attempt in range(2):  # one retry to backfill a reported gap
            base = max(peer.acked_index, floor)
            entries = [e.to_wire() for e in self.inner.entries_after(base)]
            frame = make_replicate(
                origin=self.node_id,
                epoch=epoch,
                entries=entries,
                truncated_through=floor,
                checkpoints=checkpoints,
            )
            try:
                reply = peer.request(frame)
            except TransportError:
                return "down", 0, shipped
            kind = reply.get("type")
            if kind == ClusterMessageType.REPLICATE_OK:
                shipped += len(entries)
                peer.acked_index = int(reply.get("last_index", 0))
                if not reply.get("gap"):
                    return "ack", 0, shipped
                if attempt == 0:
                    # The peer is further behind than our cursor thought
                    # (e.g. it restarted empty); resend from its real head.
                    continue
                # Still gapped after the backfill retry: the peer's head
                # is below our compaction floor and the retained log
                # cannot fill it (it refused or never got the snapshot).
                return "behind", 0, shipped
            if kind == ClusterMessageType.ERROR and reply.get("code") == ERROR_STALE_EPOCH:
                return "stale", int(reply.get("epoch", epoch + 1)), shipped
            return "down", 0, shipped
        return "down", 0, shipped  # pragma: no cover

    # -- follower side -------------------------------------------------------------

    def answer(self, frame: Dict[str, Any], sender: str) -> Dict[str, Any]:
        """The reply to one REPLICATE the peer at ``sender`` sent: applied
        (entries, per-table sequence counters, checkpoint registry) and
        acked. That the sender is a peer is the listener's to check, from
        the transport (``Controller.routes``)."""
        reply, applied = self.apply_replicate(frame, sender)
        if applied:
            self._on_applied(applied)
        snapshot = frame.get("checkpoints")
        if (
            snapshot is not None
            and self._checkpoints is not None
            and reply["type"] == ClusterMessageType.REPLICATE_OK
        ):
            self._checkpoints.restore_snapshot(snapshot)
        return reply

    def apply_replicate(
        self, frame: Dict[str, Any], sender: str
    ) -> "tuple[Dict[str, Any], List[LogEntry]]":
        """Apply one REPLICATE frame; returns ``(reply, applied_entries)``.

        ``applied_entries`` is the suffix actually appended here
        (:meth:`answer` advances the per-table sequence counters from
        it). The inner store is flushed before the ack so a
        majority ack implies majority-local durability. Epoch/role
        transitions happen under ``_state_lock``; the append+fsync work
        runs outside it (serialised by ``_apply_lock``) so election
        probes answered by :meth:`status` never queue behind a flush.
        An accepted frame makes ``sender`` the primary hint.

        The whole frame is decoded before any of it is applied (its
        top-level fields arrive typed, ``Controller.routes``): one that
        does not decode is refused (``bad_replicate``) with the log, the
        epoch and the role untouched — raising would kill the peer
        channel's thread, and the sender would read that as "peer down"."""
        frame_epoch, floor = frame["epoch"], frame["truncated_through"]
        try:
            entries = [LogEntry.from_wire(e) for e in frame["entries"]]
            for item in frame.get("checkpoints") or []:
                str(item["name"]), int(item["index"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return make_error("bad_replicate", f"malformed REPLICATE frame: {exc!r}"), []
        with self._apply_lock:
            with self._state_lock:
                if frame_epoch < self.epoch or (
                    frame_epoch == self.epoch and self.role == ROLE_PRIMARY
                ):
                    # Stale primary (or same-epoch split brain): refuse, and
                    # tell it our epoch so it demotes itself.
                    reply = make_error(
                        ERROR_STALE_EPOCH,
                        f"{self.node_id} is at epoch {self.epoch}, "
                        f"refusing epoch {frame_epoch} appends",
                    )
                    reply["epoch"] = self.epoch
                    return reply, []
                if frame_epoch > self.epoch:
                    self.epoch = frame_epoch
                    self.epoch_adoptions += 1
                    if self.role == ROLE_PRIMARY:
                        self.role = ROLE_FOLLOWER
                        self.depositions += 1
                    self._persist_meta_locked()
                self.primary_hint = sender
            local_last = self.inner.last_index
            gap = False
            applied: List[LogEntry] = []
            if entries:
                if entries[0].index > local_last + 1:
                    if (
                        frame.get("checkpoints") is not None
                        and local_last <= floor
                        and entries[0].index == floor + 1
                    ):
                        # Snapshot install: our whole log sits below the
                        # primary's compaction floor, and this frame carries
                        # everything the primary itself retains — the
                        # checkpoint-registry snapshot plus every entry past
                        # the floor. Adopt the floor (our stale prefix is
                        # superseded by the snapshot, the same blind spot
                        # compaction already accepts) and splice the fresh
                        # suffix, so a restarted-empty follower catches up
                        # instead of gapping forever.
                        self.inner.reset_to_floor(floor)
                        for entry in entries:
                            self.inner.append(entry)
                            applied.append(entry)
                        self.snapshot_installs += 1
                    else:
                        gap = True
                else:
                    divergence = self._check_overlap(entries, local_last)
                    if divergence is not None:
                        return divergence, []
                    for entry in entries:
                        if entry.index <= local_last:
                            continue
                        self.inner.append(entry)
                        applied.append(entry)
            if floor > self.inner.truncated_through:
                self.inner.truncate_through(floor)
            self.inner.flush()
            with self._state_lock:
                reply = make_replicate_ok(
                    self.node_id, self.epoch, self.inner.last_index, gap=gap
                )
            return reply, applied

    def _check_overlap(
        self, entries: List[LogEntry], local_last: int
    ) -> Optional[Dict[str, Any]]:
        """Compare the overlapping prefix against our retained log; a
        mismatch means histories diverged (a deposed primary kept writes
        no majority saw) and this node must not silently splice them."""
        overlap = [e for e in entries if e.index <= local_last]
        if not overlap:
            return None
        local = {
            e.index: e for e in self.inner.entries_after(overlap[0].index - 1)
        }
        for incoming in overlap:
            mine = local.get(incoming.index)
            if mine is None:
                continue  # below our compaction floor; nothing to compare
            if (mine.sql, mine.table_seqs) != (incoming.sql, incoming.table_seqs):
                return make_error(
                    "diverged_log",
                    f"{self.node_id} log diverges at index {incoming.index}; "
                    "this node needs a reseed before rejoining",
                )
        return None

    # -- promotion / election -----------------------------------------------------

    def promote(self, floor_epoch: int = 0) -> int:
        """Take over as primary at a fresh epoch; returns the new epoch.

        The epoch bump past everything this node has seen is what fences
        the old primary: its next round meets ``stale_epoch`` refusals at
        every up-to-date peer and cannot reach a majority.
        ``floor_epoch`` is the highest epoch observed elsewhere (election
        probe responses) — the bump goes past it as well as our own, so a
        candidate whose local epoch lagged (missed announce frames)
        cannot promote *behind* an epoch already persisted in the
        cluster."""
        with self._state_lock:
            if self.role != ROLE_PRIMARY:
                self.role = ROLE_PRIMARY
                self.promotions += 1
            self.epoch = max(self.epoch, floor_epoch) + 1
            self.primary_hint = None
            self._persist_meta_locked()
            return self.epoch

    def announce(self) -> bool:
        """Best-effort round pushing the new epoch (and any entries the
        peers miss) out after promotion; never raises on missing quorum."""
        try:
            return self.replicate(force=True, require_quorum=False)
        except ReplicationError:
            return False

    def set_primary_hint(self, address: Optional[str]) -> None:
        with self._state_lock:
            self.primary_hint = address

    def ensure_primary(self, promote: Callable[[int], int]) -> bool:
        """Deterministic self-election, run when a write lands on a
        follower: probe every peer, and promote only when (a) no
        reachable peer claims the primaryship at our epoch or newer, and
        (b) a strict cluster majority is reachable (self included) and
        this node wins the (last_index, node_id) tie-break among the
        responders. Every surviving follower computes the same winner
        from the same probes, so at most one promotes. Probes leave as
        this node's own address, so a partition or a dead endpoint hides
        a peer from the election exactly as it hides it from a
        replication round: a minority side never promotes, a majority
        side always can. ``promote(floor_epoch)`` is the owner's
        promotion (it ends in :meth:`promote` and :meth:`announce`).
        Returns whether this node is primary afterwards."""
        if not self._election_lock.acquire(blocking=False):
            # An election is already running on another worker; this
            # statement just bounces with not_primary and the driver
            # retries — by then the election has settled.
            return self.is_primary
        try:
            status = self.status()
            if status["role"] == ROLE_PRIMARY:
                return True
            responders = [status]
            for address in self._peers:
                try:
                    reply = peer_request(
                        self._network,
                        self.self_address,
                        address,
                        make_ha_status(self.node_id),
                        _PROBE_TIMEOUT_S,
                    )
                except TransportError:
                    continue
                if reply.get("type") == ClusterMessageType.HA_STATUS_OK:
                    responders.append(reply)
            live_primaries = [
                r
                for r in responders
                if r["role"] == ROLE_PRIMARY and r["epoch"] >= status["epoch"]
            ]
            if live_primaries:
                # The primary is alive (we were probed by a stale hint or
                # a client raced a settled election): just point at it.
                self.set_primary_hint(max(live_primaries, key=lambda r: r["epoch"])["address"])
                return False
            if len(responders) < self.required_acks:
                # Can't prove a majority side of any partition; promoting
                # here could split the brain. Stay a follower.
                return False
            winner = max(responders, key=lambda r: (r["last_index"], r["node_id"]))
            if winner["node_id"] != self.node_id:
                self.set_primary_hint(winner["address"])
                return False
            # Fold every epoch the probes reported into the promotion:
            # the new epoch must land past values persisted anywhere in
            # the responder set, not just past this node's own (which may
            # lag if it missed announce frames).
            promote(max(r["epoch"] for r in responders))
            return True
        finally:
            self._election_lock.release()

    def status(self) -> Dict[str, Any]:
        """Election-probe payload (HA_STATUS_OK body, sans type)."""
        with self._state_lock:
            return {
                "node_id": self.node_id,
                "address": self.self_address,
                "epoch": self.epoch,
                "role": self.role,
                "last_index": self.inner.last_index,
            }

    # -- stats ---------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        base = self.inner.stats()
        base["replication"] = self.ha_stats()
        return base

    def ha_stats(self) -> Dict[str, Any]:
        with self._state_lock:
            return {
                "node_id": self.node_id,
                "role": self.role,
                "epoch": self.epoch,
                "cluster_size": self.cluster_size,
                "required_acks": self.required_acks,
                "primary_hint": self.primary_hint,
                "replicated_through": self._replicated_through,
                "rounds": self.rounds,
                "entries_shipped": self.entries_shipped,
                "snapshot_installs": self.snapshot_installs,
                "quorum_failures": self.quorum_failures,
                "promotions": self.promotions,
                "depositions": self.depositions,
                "epoch_adoptions": self.epoch_adoptions,
                "peers": {
                    address: {
                        "acked_index": peer.acked_index,
                        "reachable": peer.reachable,
                        "needs_reseed": peer.needs_reseed,
                    }
                    for address, peer in self._peers.items()
                },
            }
