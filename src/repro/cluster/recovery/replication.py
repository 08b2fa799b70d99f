"""Controller HA: recovery-log replication across controller peers.

The paper replicates the *backends*; each controller's recovery log is
local, so a dead controller strands the writes only its log knew about.
:class:`ReplicatedLogStore` is the HA node over a controller's
:class:`~repro.cluster.recovery.log.RecoveryLog`: when the group-commit
leader flushes, it ships the fsync group's entries to the follower peers
(REPLICATE/REPLICATE_OK) and requires a **majority of the controller
cluster** to hold them before ``wait_durable`` resolves — one round per
fsync group, amortised like the fsync. Entries are indexed by the
primary's :class:`RecoveryLog` and a follower's log takes them as they
are (``RecoveryLog.apply_replicated``), so this is log shipping, not
consensus; what keeps failover safe is the **epoch rule**: a follower
refuses an older epoch and adopts a newer one, and promotion bumps the
epoch past every one the new primary has seen, so a deposed primary
meets refusals, misses its majority and demotes itself. Use ``2f+1``
controllers to survive ``f`` deaths (a 2-node group halts on either).

The module has two halves. **The rules** (the epoch rule, where shipped
entries go, the round tally, the election, promotion) are functions of
plain values with no lock, clock, channel or thread, and
``tests/ha_explorer.py`` drives them through every bounded interleaving
of faults. **The shell** (:class:`PeerLink`, :func:`exchange`,
:class:`ReplicatedLogStore`) holds sockets, locks, persistence and
counters and asks the rules what to do. Replication rounds, election
probes and the controller's group operations all reach the peers through
:func:`exchange` — every peer sent to before any reply is collected, on
the calling thread — so each costs the slowest peer and all are cut by
the same network faults. See docs/ha.md.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import DriverError, TransportError

from repro.cluster.wire import (
    ClusterMessageType,
    ERROR_STALE_EPOCH,
    make_error,
    make_ha_status,
    make_replicate,
    make_replicate_ok,
)
from repro.cluster.recovery.log import RecoveryLog
from repro.cluster.recovery.logstore import LogEntry, decode_checkpoints, encode_checkpoints

ROLE_PRIMARY = "primary"
ROLE_FOLLOWER = "follower"

#: A transport failure that took at least this long was a *timeout*
#: (connect or ack), not an instant refusal — only those earn reconnect
#: backoff, because only those would otherwise add their full timeout to
#: every replication round for as long as the peer stays dark.
_SLOW_FAILURE_S = 0.05
_BACKOFF_BASE_S = 0.25
_BACKOFF_CAP_S = 5.0

#: Seconds a peer gets to accept a channel, to answer a replication
#: round or a group operation, and to answer an election probe.
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


# -- the rules: plain values in, new values and a verdict out -------------------

#: Verdicts of :func:`on_replicate`.
REFUSE, ADOPT, ACCEPT = "refuse", "adopt", "accept"
#: Verdicts of :func:`place_entries`.
APPEND, INSTALL, GAP, DIVERGED = "append", "install", "gap", "diverged"
#: What one peer's REPLICATE reply says (:func:`read_reply`); ``GAP``
#: again when the peer's log ends below what was shipped.
ACK, STALE, DOWN = "ack", "stale", "down"
#: Verdicts of :func:`tally_round`.
COMMITTED, NO_QUORUM, DEPOSED = "committed", "no_quorum", "deposed"
#: Verdicts of :func:`elect`.
FOLLOW, NO_MAJORITY, DEFER, PROMOTE = "follow", "no_majority", "defer", "promote"


def start_state(
    self_address: str, peer_addresses: Sequence[str], persisted_epoch: Optional[int]
) -> Tuple[int, str, Optional[str]]:
    """``(epoch, role, primary_hint)`` of a node that starts. One that
    persisted an epoch was deposed or promoted in a previous life; its
    pre-crash role is unknowable, so it is a follower at that epoch and
    lets an election sort it out. Otherwise the initial primary is the
    lexicographically smallest address — every peer computes the same
    answer from the same peer list."""
    if persisted_epoch is not None:
        return persisted_epoch, ROLE_FOLLOWER, None
    first = min([self_address, *peer_addresses])
    if first == self_address:
        return 1, ROLE_PRIMARY, None
    return 1, ROLE_FOLLOWER, first


def on_replicate(
    epoch: int, role: str, hint: Optional[str], frame_epoch: int, sender: str
) -> Tuple[str, int, str, Optional[str]]:
    """The epoch rule for a REPLICATE from ``sender``:
    ``(verdict, epoch, role, hint)``. An older epoch — or our own while
    we believe we are primary, the same-epoch split-brain guard — is
    refused; a newer one is adopted, demoting a primary; an accepted
    frame makes the sender the primary hint."""
    if frame_epoch < epoch or (frame_epoch == epoch and role == ROLE_PRIMARY):
        return REFUSE, epoch, role, hint
    if frame_epoch > epoch:
        return ADOPT, frame_epoch, ROLE_FOLLOWER, sender
    return ACCEPT, epoch, role, sender


def place_entries(
    entries: Sequence[LogEntry],
    local_last: int,
    floor: int,
    snapshot: bool,
    local: Dict[int, LogEntry],
) -> Tuple[str, int]:
    """Where a frame's entries go on a follower whose log ends at
    ``local_last`` (``local``: its retained entries the frame overlaps):
    ``(verdict, index)``. ``APPEND`` the entries past ``local_last`` (a
    resent frame is idempotent); ``INSTALL`` — our whole log sits below
    the primary's floor and the frame carries the ``snapshot`` plus every
    entry past it: adopt the floor and append it all; ``GAP`` — the
    entries start past our head, so the primary resends from it; or
    ``DIVERGED`` at ``index``, where an overlapping entry differs (a
    deposed primary kept writes no majority saw): never splice."""
    if not entries:
        return APPEND, 0
    first = entries[0].index
    if first > local_last + 1:
        if snapshot and local_last <= floor and first == floor + 1:
            return INSTALL, 0
        return GAP, 0
    for incoming in entries:
        if incoming.index > local_last:
            break
        mine = local.get(incoming.index)  # None: below our compaction floor
        if mine is not None and (mine.sql, mine.table_seqs) != (incoming.sql, incoming.table_seqs):
            return DIVERGED, incoming.index
    return APPEND, 0


def read_reply(reply: Any) -> Tuple[str, int]:
    """What one peer's answer to a REPLICATE says: ``(ACK, its head)``,
    ``(GAP, its head)``, ``(STALE, its epoch)`` or ``(DOWN, 0)`` —
    a transport error, or any other refusal."""
    if not isinstance(reply, dict):
        return DOWN, 0
    if reply.get("type") == ClusterMessageType.REPLICATE_OK:
        return (GAP if reply.get("gap") else ACK), int(reply.get("last_index", 0))
    if reply.get("type") == ClusterMessageType.ERROR and reply.get("code") == ERROR_STALE_EPOCH:
        return STALE, int(reply.get("epoch", 0))
    return DOWN, 0


def tally_round(
    epoch: int, role: str, outcomes: Iterable[Tuple[str, int]], required_acks: int
) -> Tuple[str, int, int, str]:
    """Judge a round from each peer's final :func:`read_reply`:
    ``(verdict, acks, epoch, role)``. Self and every ``ACK`` count; a peer
    still at ``GAP`` after the backfill retry is *behind* and never
    counts, or an acked write could be held by fewer nodes than promised.
    Any ``STALE`` deposes us at the highest epoch refused with."""
    acks, stale = 1, []
    for outcome, value in outcomes:
        if outcome == ACK:
            acks += 1
        elif outcome == STALE:
            stale.append(value)
    if stale:
        return DEPOSED, acks, max(epoch, *stale), ROLE_FOLLOWER
    return (COMMITTED if acks >= required_acks else NO_QUORUM), acks, epoch, role


def elect(
    status: Dict[str, Any], replies: Iterable[Any], required_acks: int
) -> Tuple[str, Optional[str], int]:
    """A follower's election from its ``status`` and its peers' probe
    replies (anything but HA_STATUS_OK is no answer):
    ``(verdict, primary_hint, floor_epoch)``. ``FOLLOW`` a responder that
    is primary at our epoch or newer; ``NO_MAJORITY`` when fewer than a
    strict majority answered, self included; ``DEFER`` to the responder
    that wins on ``(last_index, node_id)``; else ``PROMOTE`` past the
    highest epoch any responder reported. Every follower ranks the same
    answers alike, so at most one promotes."""
    responders = [status] + [
        reply
        for reply in replies
        if isinstance(reply, dict) and reply.get("type") == ClusterMessageType.HA_STATUS_OK
    ]
    live = [r for r in responders if r["role"] == ROLE_PRIMARY and r["epoch"] >= status["epoch"]]
    if live:
        return FOLLOW, max(live, key=lambda r: r["epoch"])["address"], 0
    if len(responders) < required_acks:
        return NO_MAJORITY, None, 0
    winner = max(responders, key=lambda r: (r["last_index"], r["node_id"]))
    if winner["node_id"] != status["node_id"]:
        return DEFER, winner["address"], 0
    return PROMOTE, None, max(r["epoch"] for r in responders)


def promotion(epoch: int, floor_epoch: int) -> Tuple[int, str, Optional[str]]:
    """``(epoch, role, hint)`` after promoting: the epoch goes past our
    own and past ``floor_epoch`` (the probes' highest), so a candidate
    whose epoch lagged cannot promote behind one already persisted in the
    cluster — and the bump is what fences the old primary."""
    return max(epoch, floor_epoch) + 1, ROLE_PRIMARY, None


# -- the shell: one way to reach a peer -------------------------------------------


class PeerLink:
    """One channel to a peer controller — the only way a
    controller→controller frame leaves a node. :meth:`send` connects if
    needed, as this node's own address (``source``), so a network fault
    between the two (or at our endpoint) severs it; :meth:`collect` waits
    for the reply. Any transport failure closes the channel: the next
    frame starts fresh and a late reply never answers it. The replication
    store keeps a link per peer across rounds (``acked_index``, the
    highest index the peer reported, keeps rounds incremental); probes
    and group operations use one-shot links, never queued behind an ack."""

    def __init__(self, address: str, network: Any, source: str) -> None:
        self.address = address
        self._network = network
        self._source = source
        self._channel: Optional[Any] = None
        self._sent_at = 0.0
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

    def send(self, message: Dict[str, Any]) -> None:
        """Send one frame, connecting first if no channel is open;
        raises TransportError."""
        self._sent_at = time.monotonic()
        try:
            if self._channel is None:
                self._channel = self._network.connect(
                    self.address, timeout=_CONNECT_TIMEOUT_S, source=self._source
                )
            self._channel.send(message)
        except TransportError:
            self._fail()
            raise

    def collect(self, timeout: float = _ACK_TIMEOUT_S) -> Dict[str, Any]:
        """Wait ``timeout`` seconds for the reply to the frame a
        successful :meth:`send` sent; raises TransportError."""
        try:
            reply = self._channel.recv(timeout=timeout)
        except TransportError:
            self._fail()
            raise
        self.fail_streak = 0
        self.retry_at = 0.0
        return reply

    def request(self, message: Dict[str, Any], timeout: float = _ACK_TIMEOUT_S) -> Dict[str, Any]:
        """One frame and its reply; raises TransportError."""
        self.send(message)
        return self.collect(timeout)

    def _fail(self) -> None:
        self.close()
        elapsed = time.monotonic() - self._sent_at
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


def exchange(
    sends: Sequence[Tuple[PeerLink, Dict[str, Any]]],
    timeout: Optional[float] = None,
    close: bool = False,
) -> Dict[str, Any]:
    """Send every link its frame, then collect every reply within what
    remains of one ``timeout`` (default: the ack timeout), on the calling
    thread: it costs the slowest peer, not the sum. Returns, per address
    in send order, the reply or the :class:`TransportError`; ``close``
    ends the links after (one-shot links). Connecting inside ``send``
    loses no overlap: the in-memory connect never blocks, and controllers
    do not peer over TCP (docs/ha.md)."""
    deadline = time.monotonic() + (_ACK_TIMEOUT_S if timeout is None else timeout)
    results: Dict[str, Any] = {}
    try:
        for link, frame in sends:
            try:
                link.send(frame)
            except TransportError as exc:
                results[link.address] = exc
        for link, _ in sends:
            if link.address not in results:
                try:
                    results[link.address] = link.collect(max(0.0, deadline - time.monotonic()))
                except TransportError as exc:
                    results[link.address] = exc
    finally:
        if close:
            for link, _ in sends:
                link.close()
    return {link.address: results[link.address] for link, _ in sends}


class ReplicatedLogStore:
    """The HA node over one :class:`RecoveryLog`: majority-ack peer
    replication of its entries and checkpoints.

    On the **primary**, ``flush()`` makes the fsync group durable locally,
    then runs one round: each peer gets what it misses in one REPLICATE,
    and acks + self must reach ``required_acks`` (a strict majority) or
    :class:`ReplicationError` rises through ``wait_durable``. On a
    **follower**, :meth:`apply_replicate` decides what an accepted frame
    appends (the epoch rule, :func:`place_entries`) and the log writes it
    (``RecoveryLog.apply_replicated``: append, mirror the compaction
    floor, flush) *before* the ack, so a majority ack means a majority
    holds the entries at its own durability level. A standalone
    controller is the group of one: no links, always primary, its own
    majority, a ``flush()`` that ships nothing.
    """

    def __init__(
        self,
        log: RecoveryLog,
        network: Any,
        node_id: str,
        self_address: str,
        peer_addresses: List[str],
    ) -> None:
        self.log = log
        self._network = network
        self.node_id = node_id
        self.self_address = self_address
        #: A group of one has nobody to be deposed by: it neither reads
        #: nor records an epoch and always restarts as its own primary.
        self._epoch_store = log.store if peer_addresses else None
        self._peers: Dict[str, PeerLink] = {
            address: PeerLink(address, network, source=self_address)
            for address in peer_addresses
        }
        self.cluster_size = 1 + len(self._peers)
        #: Strict majority of the controller cluster, counting this node.
        self.required_acks = self.cluster_size // 2 + 1
        #: ``primary_hint`` is where the cluster thinks the primary is;
        #: followers hand it to bounced drivers so failover goes straight
        #: to the right node.
        self.epoch, self.role, self.primary_hint = start_state(
            self_address, peer_addresses, self._epoch_store.epoch if self._epoch_store else None
        )
        #: Serialises replication rounds (one group-commit leader at a
        #: time calls flush, but promote()/announce() may race it).
        self._round_lock = threading.Lock()
        #: Serialises REPLICATE application — reading where a frame goes
        #: and writing it is one step (two primaries racing a failover
        #: may both hold an open replication channel here).
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
        self._replicated_through = 0
        self._announced_floor = 0
        self.rounds = 0
        self.entries_shipped = 0
        self.snapshot_installs = 0
        self.quorum_failures = 0
        self.promotions = 0
        self.depositions = 0
        self.epoch_adoptions = 0

    def _settle_locked(self, epoch: int, role: str) -> None:
        """Take the epoch and role a rule returned: count the transition
        and record the epoch in the log's store when anything changed."""
        if (epoch, role) == (self.epoch, self.role):
            return
        if epoch > self.epoch and role == ROLE_FOLLOWER:
            self.epoch_adoptions += 1
        if role != self.role:
            if role == ROLE_PRIMARY:
                self.promotions += 1
            else:
                self.depositions += 1
        self.epoch, self.role = epoch, role
        if self._epoch_store is not None:
            self._epoch_store.record_epoch(self.epoch)

    # -- role and peers --------------------------------------------------------------

    @property
    def is_primary(self) -> bool:
        return self.role == ROLE_PRIMARY

    def peer_addresses(self) -> List[str]:
        return list(self._peers)

    def peer_link(self, address: str) -> PeerLink:
        return self._peers[address]

    # -- the log, as this node reads it -------------------------------------------
    # Writes go through the RecoveryLog. The node's own reads go to its
    # store without the log's lock: a probe or an ack must not queue
    # behind an append, a compaction or a flush, and a round racing a
    # compaction ships what is retained (the log's entries_after raises).

    @property
    def last_index(self) -> int:
        """The log's head under its lock — what the group-commit leader
        flushes through, covering an append still in progress."""
        return self.log.last_index

    @property
    def truncated_through(self) -> int:
        return self.log.store.truncated_through

    def entries_after(self, index: int) -> List[LogEntry]:
        return self.log.store.entries_after(index)

    def close(self) -> None:
        """Close the peer channels (the log is closed by its owner)."""
        for peer in self._peers.values():
            peer.close()

    # -- primary side --------------------------------------------------------------

    def flush(self) -> None:
        """Local durability first, then one majority-ack round for
        everything the fsync group made durable. Called once per
        group-commit flush — N batched writes cost one network round."""
        self.log.flush()
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
            head = self.log.store.last_index
            floor = self.truncated_through
            if not force and head <= self._replicated_through and floor <= self._announced_floor:
                return True
            # Shipped even when empty: releases propagate as an empty snapshot.
            checkpoints = encode_checkpoints(self.log.checkpoints)
            outcomes = self._ship_round(epoch, floor, checkpoints)
            with self._state_lock:
                verdict, acks, new_epoch, new_role = tally_round(
                    self.epoch, self.role, outcomes.values(), self.required_acks
                )
                self._settle_locked(new_epoch, new_role)
            if verdict == DEPOSED:
                raise ReplicationError(
                    f"{self.node_id} was deposed: a peer is at epoch "
                    f"{new_epoch}, refusing our stale appends"
                )
            if verdict == COMMITTED:
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
        checkpoints: List[Dict[str, Any]],
    ) -> Dict[str, Tuple[str, int]]:
        """Each peer's final :func:`read_reply` for one round.

        Peers in reconnect backoff are skipped for free (counted "down")
        — unless the round cannot reach quorum without them, in which
        case they are tried anyway: backoff only ever trades latency,
        never availability."""
        deferred = [p for p in self._peers.values() if p.in_backoff()]
        ready = [p for p in self._peers.values() if p not in deferred]
        outcomes = {peer.address: (DOWN, 0) for peer in deferred}
        outcomes.update(self._ship(ready, epoch, floor, checkpoints))
        acks = sum(1 for outcome, _ in outcomes.values() if outcome == ACK)
        if deferred and 1 + acks < self.required_acks:
            outcomes.update(self._ship(deferred, epoch, floor, checkpoints))
        return outcomes

    def _ship(
        self,
        peers: List[PeerLink],
        epoch: int,
        floor: int,
        checkpoints: List[Dict[str, Any]],
    ) -> Dict[str, Tuple[str, int]]:
        """At most two passes of :func:`exchange`: every peer gets
        everything past its ack cursor, then each peer that answered
        ``gap`` (it is further behind than its cursor said, e.g. it
        restarted empty) gets it again from its real head."""
        outcomes: Dict[str, Tuple[str, int]] = {}
        for _ in range(2):
            if not peers:
                break
            frames = {}
            for peer in peers:
                base = max(peer.acked_index, floor)
                entries = [e.to_wire() for e in self.entries_after(base)]
                frames[peer.address] = make_replicate(
                    epoch=epoch,
                    entries=entries,
                    truncated_through=floor,
                    checkpoints=checkpoints,
                )
            replies = exchange([(peer, frames[peer.address]) for peer in peers])
            for peer in peers:
                outcome, value = read_reply(replies[peer.address])
                outcomes[peer.address] = (outcome, value)
                peer.reachable = outcome != DOWN
                if outcome in (ACK, GAP):
                    self.entries_shipped += len(frames[peer.address]["entries"])
                    peer.acked_index, peer.needs_reseed = value, outcome == GAP
            peers = [peer for peer in peers if outcomes[peer.address][0] == GAP]
        return outcomes

    # -- follower side -------------------------------------------------------------

    def answer(self, frame: Dict[str, Any], sender: str) -> Dict[str, Any]:
        """The reply to one REPLICATE the peer at ``sender`` sent. That the
        sender is a peer is the listener's to check, from the transport
        (``Controller.routes``)."""
        return self.apply_replicate(frame, sender)[0]

    def apply_replicate(
        self, frame: Dict[str, Any], sender: str
    ) -> "tuple[Dict[str, Any], List[LogEntry]]":
        """Apply one REPLICATE frame; returns ``(reply, applied_entries)``,
        the suffix appended here. The epoch rule runs under
        ``_state_lock``; the append+fsync runs outside it, in
        ``RecoveryLog.apply_replicated`` (serialised by ``_apply_lock``),
        so election probes never queue behind a flush. The frame's
        checkpoints are taken only once its entries are flushed.
        The whole frame is decoded first (its top-level fields arrive
        typed, ``Controller.routes``; a checkpoint row by the record's
        own rule): one that does not decode is refused (``bad_replicate``)
        with nothing touched — raising would kill the peer channel's
        thread, which the sender reads as "peer down"."""
        frame_epoch, floor = frame["epoch"], frame["truncated_through"]
        rows = frame.get("checkpoints")
        try:
            entries = [LogEntry.from_wire(e) for e in frame["entries"]]
            checkpoints = None if rows is None else decode_checkpoints(rows)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return make_error("bad_replicate", f"malformed REPLICATE frame: {exc!r}"), []
        with self._apply_lock:
            with self._state_lock:
                verdict, epoch, role, hint = on_replicate(
                    self.epoch, self.role, self.primary_hint, frame_epoch, sender
                )
                if verdict == REFUSE:
                    # Tell the stale primary our epoch so it demotes itself.
                    reply = make_error(
                        ERROR_STALE_EPOCH,
                        f"{self.node_id} is at epoch {self.epoch}, "
                        f"refusing epoch {frame_epoch} appends",
                    )
                    reply["epoch"] = self.epoch
                    return reply, []
                self._settle_locked(epoch, role)
                self.primary_hint = hint
            local_last = self.log.store.last_index
            local: Dict[int, LogEntry] = {}
            if entries and entries[0].index <= local_last:
                local = {e.index: e for e in self.entries_after(entries[0].index - 1)}
            placement, index = place_entries(entries, local_last, floor, checkpoints is not None, local)
            if placement == DIVERGED:
                return make_error(
                    "diverged_log",
                    f"{self.node_id} log diverges at index {index}; "
                    "this node needs a reseed before rejoining",
                ), []
            applied = [] if placement == GAP else [e for e in entries if e.index > local_last]
            # An install supersedes our stale prefix with the snapshot —
            # the same blind spot compaction already accepts.
            install = placement == INSTALL
            self.log.apply_replicated(applied, floor, install)
            if checkpoints is not None:
                self.log.restore_checkpoints(checkpoints)
            if install:
                self.snapshot_installs += 1
            with self._state_lock:
                reply = make_replicate_ok(
                    self.node_id, self.epoch, self.log.store.last_index, gap=placement == GAP
                )
            return reply, applied

    # -- promotion / election -----------------------------------------------------

    def promote(self, floor_epoch: int = 0) -> int:
        """Take over as primary at a fresh epoch (:func:`promotion`);
        returns the new epoch. ``floor_epoch`` is the highest epoch the
        election probes reported."""
        with self._state_lock:
            epoch, role, self.primary_hint = promotion(self.epoch, floor_epoch)
            self._settle_locked(epoch, role)
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
        """The election (:func:`elect`) a write on a follower runs: every
        peer is probed in one :func:`exchange`, so it costs the slowest
        answer. Probes leave as this node's address, so a fault hides a
        peer from the election as from a round: a minority side never
        promotes, a majority side always can. ``promote(floor_epoch)`` is
        the owner's promotion (ending in :meth:`promote` and
        :meth:`announce`). Returns whether this node is primary after."""
        if not self._election_lock.acquire(blocking=False):
            # An election is already running on another worker; this
            # statement just bounces with not_primary and the driver
            # retries — by then the election has settled.
            return self.is_primary
        try:
            status = self.status()
            if status["role"] == ROLE_PRIMARY:
                return True
            probe = make_ha_status()
            replies = exchange(
                [(PeerLink(a, self._network, self.self_address), probe) for a in self._peers],
                _PROBE_TIMEOUT_S,
                close=True,
            )
            verdict, hint, floor_epoch = elect(status, replies.values(), self.required_acks)
            if verdict == PROMOTE:
                promote(floor_epoch)
                return True
            if hint is not None:
                self.set_primary_hint(hint)
            return False
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
                "last_index": self.log.store.last_index,
            }

    # -- stats ---------------------------------------------------------------------

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
