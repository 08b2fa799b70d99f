"""Controller HA: replicated recovery log, epochs, election, failover.

Covers the protocol in docs/ha.md at two levels: unit tests drive a
:class:`ReplicatedLogStore` directly (majority math, idempotent apply,
epoch fencing, divergence detection), and integration tests run real
3-controller clusters through the driver (replication on the write
path, not_primary bounces, checkpoint/compaction mirroring, failover,
the crash-between-append-and-ack window).

The convergence property test draws a seed via tests/chaos.py — any
failure prints (and attaches to the report) a ``REPRO_CHAOS_SEED`` to
replay the exact interleaving.
"""

import os
import threading
import time

import pytest

import chaos
from repro.cluster import Controller, ControllerConfig
from repro.cluster.driver import ClusterDriverRuntime
from repro.cluster.recovery import replication
from repro.cluster.recovery.log import RecoveryLog
from repro.cluster.recovery.logstore import FileLogStore, LogEntry, LogStoreError
from repro.cluster.recovery.replication import (
    ROLE_FOLLOWER,
    ROLE_PRIMARY,
    PeerLink,
    ReplicatedLogStore,
    ReplicationError,
)
from repro.errors import TransportError
from repro.netsim.inmem import InMemoryNetwork
from repro.cluster.wire import (
    ClusterMessageType,
    ERROR_NOT_PRIMARY,
    make_error,
    make_ha_status,
    make_replicate,
    make_replicate_ok,
)
from repro.dbapi import OperationalError, ProgrammingError
from repro.experiments.environments import build_cluster


@pytest.fixture
def ha_env():
    env = build_cluster(replicas=2, controllers=3, ha=True)
    yield env
    env.close()


def _connect(env, url=None, name="ha-driver"):
    return ClusterDriverRuntime(name=name).connect(
        url or env.client_url(), network=env.network
    )


def _primary_of(env, alive=None):
    # A crashed primary's store still says "primary" (it never heard the
    # election) — pass the surviving controllers once one has died.
    candidates = env.controllers if alive is None else alive
    primaries = [
        c for c in candidates if c.ha_store is not None and c.ha_store.is_primary
    ]
    assert len(primaries) == 1, f"expected one primary, got {primaries}"
    return primaries[0]


def _chain(controller, floor=0):
    """The per-table ordering material of the retained log suffix —
    what every surviving peer must agree on byte for byte."""
    return [
        (e.index, e.sql, tuple(sorted(e.table_seqs.items())))
        for e in controller.ha_store.entries_after(floor)
    ]


# -- store-level unit tests ----------------------------------------------------


def _entry(index, table="t", seq=None, sql=None):
    return LogEntry(
        index=index,
        sql=sql or f"INSERT INTO {table} (id) VALUES ({index})",
        write_tables=(table,),
        table_seqs={table: index if seq is None else seq},
    )


def _store(node="b", peers=("a:1", "c:1"), directory=None):
    return ReplicatedLogStore(
        RecoveryLog(store=FileLogStore(str(directory)) if directory else None),
        network=None,
        node_id=node,
        self_address=f"{node}:1",
        peer_addresses=list(peers),
    )


class TestReplicatedLogStoreUnit:
    def test_majority_math(self):
        assert _store(peers=()).required_acks == 1
        # The 2-node degenerate case needs BOTH nodes — either death
        # halts writes rather than risking split-brain divergence.
        assert _store(peers=("a:1",)).required_acks == 2
        assert _store(peers=("a:1", "c:1")).required_acks == 2
        assert _store(peers=("a:1", "c:1", "d:1", "e:1")).required_acks == 3

    def test_initial_primary_is_smallest_address(self):
        a = _store(node="a", peers=("b:1", "c:1"))
        assert a.role == ROLE_PRIMARY and a.primary_hint is None
        b = _store(node="b", peers=("a:1", "c:1"))
        assert b.role == ROLE_FOLLOWER and b.primary_hint == "a:1"

    @pytest.mark.parametrize("content", ['{"epoch": "x"}', "{not json", "[]", "{}"])
    def test_corrupt_epoch_file_refuses_to_open(self, tmp_path, content):
        # Read as "never started", a 3-peer node with the smallest address
        # would come back as primary at epoch 1.
        state = tmp_path / "state.json"
        state.write_text(content)
        with pytest.raises(LogStoreError, match="corrupt controller state"):
            _store(node="a", peers=("b:1", "c:1"), directory=tmp_path)
        state.write_text('{"truncated_through": 0, "epoch": 4, "checkpoints": []}')
        node = _store(node="a", peers=("b:1", "c:1"), directory=tmp_path)
        assert (node.epoch, node.role) == (4, ROLE_FOLLOWER)
        missing = _store(node="a", peers=("b:1", "c:1"), directory=tmp_path / "none")
        assert (missing.epoch, missing.role) == (1, ROLE_PRIMARY)

    def test_a_durable_member_restarts_with_its_floor_epoch_and_checkpoints(self, tmp_path):
        # The three facts share one record beside the segments.
        config = ControllerConfig(
            controller_id="c1", virtual_database="vdb", log_dir=str(tmp_path),
            ha_peers=["c2:1", "c3:1"],
        )
        network = InMemoryNetwork()
        controller = Controller(config, network, "c1:1")
        assert controller.ha_store.promote() == 2
        log = controller.recovery_log
        for i in range(300):
            log.append(f"INSERT INTO t (id) VALUES ({i})")
        log.checkpoint("backend:db1", 260)
        log.checkpoint("dump-280", 280)
        assert log.compact() == 256
        log.close()
        assert sorted(os.listdir(tmp_path)) == ["segment-00000257.jsonl", "state.json"]
        restarted = Controller(config, network, "c1:1")
        assert (restarted.ha_store.epoch, restarted.ha_store.role) == (2, ROLE_FOLLOWER)
        assert restarted.recovery_log.first_index == 257
        assert restarted.recovery_log.checkpoints == {"backend:db1": 260, "dump-280": 280}
        restarted.recovery_log.close()

    def test_apply_replicate_is_idempotent(self):
        b = _store()
        frame = make_replicate(1, [_entry(1).to_wire(), _entry(2).to_wire()], 0)
        reply, applied = b.apply_replicate(frame, "a:1")
        assert reply["type"] == ClusterMessageType.REPLICATE_OK
        assert reply["last_index"] == 2
        assert [e.index for e in applied] == [1, 2]
        # Resending the same frame (primary retry) appends nothing.
        reply, applied = b.apply_replicate(frame, "a:1")
        assert reply["last_index"] == 2 and applied == []

    def test_gap_reported_for_backfill(self):
        b = _store()
        frame = make_replicate(1, [_entry(5).to_wire()], 0)
        reply, applied = b.apply_replicate(frame, "a:1")
        assert reply["gap"] is True and applied == []
        assert reply["last_index"] == 0  # tells the primary where to resend from

    def test_snapshot_install_catches_up_a_behind_follower(self):
        # The whole local log (here: empty) sits below the primary's
        # compaction floor; the frame carries the checkpoint snapshot and
        # the full post-floor suffix, so the follower adopts the floor
        # instead of gapping forever.
        b = _store()
        frame = make_replicate(1, [_entry(6).to_wire(), _entry(7).to_wire()], 5, checkpoints=[])
        reply, applied = b.apply_replicate(frame, "a:1")
        assert reply["type"] == ClusterMessageType.REPLICATE_OK
        assert not reply.get("gap")
        assert reply["last_index"] == 7
        assert [e.index for e in applied] == [6, 7]
        assert b.truncated_through == 5
        assert b.snapshot_installs == 1

    def test_hole_past_floor_still_gaps_despite_checkpoints(self):
        # entries start past floor+1: a true hole the snapshot does not
        # cover — must stay a gap, never a silent splice.
        b = _store()
        frame = make_replicate(1, [_entry(7).to_wire()], 5, checkpoints=[])
        reply, applied = b.apply_replicate(frame, "a:1")
        assert reply["gap"] is True and applied == []

    def test_behind_peer_is_never_counted_toward_quorum(self):
        # A peer that still reports gap=True after the backfill retry
        # does not hold the entries; acking it would let a "majority"
        # hold fewer copies than promised.
        a = _store(node="a", peers=("b:1",))
        a.log.append(_entry(1).sql, write_tables=("t",))
        link = a.peer_link("b:1")
        link.send = lambda frame: None
        link.collect = lambda timeout: make_replicate_ok("b", 1, 0, gap=True)
        with pytest.raises(ReplicationError):
            a.replicate(force=True)
        assert a.quorum_failures == 1
        assert link.needs_reseed
        assert a.ha_stats()["peers"]["b:1"]["needs_reseed"] is True
        # Once the peer takes the entries, the reseed flag clears.
        link.collect = lambda timeout: make_replicate_ok("b", 1, 1)
        assert a.replicate(force=True) is True
        assert not link.needs_reseed

    def test_stale_epoch_refused_newer_epoch_adopted(self):
        b = _store()
        assert b.epoch == 1
        reply, applied = b.apply_replicate(make_replicate(3, [_entry(1).to_wire()], 0), "c:1")
        assert reply["type"] == ClusterMessageType.REPLICATE_OK
        assert b.epoch == 3 and b.epoch_adoptions == 1
        assert b.primary_hint == "c:1"  # where the accepted frame came from
        # The deposed primary's epoch-1 appends now bounce with our epoch.
        reply, applied = b.apply_replicate(
            make_replicate(1, [_entry(2).to_wire()], 0), "a:1"
        )
        assert reply["type"] == ClusterMessageType.ERROR
        assert reply["code"] == "stale_epoch" and reply["epoch"] == 3
        assert applied == []

    def test_same_epoch_append_refused_while_primary(self):
        a = _store(node="a", peers=("b:1", "c:1"))
        assert a.is_primary
        reply, _ = a.apply_replicate(
            make_replicate(1, [_entry(1).to_wire()], 0), "b:1"
        )
        assert reply["code"] == "stale_epoch"  # same-epoch split-brain guard

    def test_promotion_fences_with_fresh_epoch(self):
        b = _store()
        assert b.promote() == 2
        assert b.is_primary and b.promotions == 1 and b.primary_hint is None
        # Promoting while already primary still bumps the epoch.
        assert b.promote() == 3
        assert b.promotions == 1

    def test_promotion_folds_observed_epochs(self):
        # A candidate whose own epoch lagged (missed announce frames)
        # must bump past the highest epoch its election probes reported,
        # never promote behind one already persisted in the cluster.
        b = _store()
        assert b.promote(floor_epoch=7) == 8
        assert b.promote(floor_epoch=3) == 9  # own epoch already higher

    def test_divergent_overlap_is_refused_not_spliced(self):
        b = _store()
        b.apply_replicate(make_replicate(1, [_entry(1).to_wire()], 0), "a:1")
        rewritten = _entry(1, sql="INSERT INTO t (id) VALUES (999)")
        frame = make_replicate(2, [rewritten.to_wire(), _entry(2).to_wire()], 0)
        reply, applied = b.apply_replicate(frame, "a:1")
        assert reply["code"] == "diverged_log" and applied == []
        assert b.last_index == 1  # nothing was spliced over local history

    def test_compaction_floor_mirrors(self):
        b = _store()
        entries = [_entry(i).to_wire() for i in range(1, 5)]
        b.apply_replicate(make_replicate(1, entries, 0), "a:1")
        reply, _ = b.apply_replicate(make_replicate(1, [], 3), "a:1")
        assert reply["type"] == ClusterMessageType.REPLICATE_OK
        assert b.truncated_through == 3
        assert [e.index for e in b.entries_after(0)] == [4]

    def test_replicate_refused_on_follower(self):
        b = _store()
        with pytest.raises(ReplicationError):
            b.replicate(force=True)

    def test_answer_refuses_a_replicate_from_outside_the_group(self, ha_env):
        # A newer epoch from a configured peer is adopted; from anyone
        # else it must not touch the log, the epoch or the role — whatever
        # the frame claims: who sent it is the channel's source address.
        primary = _primary_of(ha_env)
        store = primary.ha_store
        peer = store.peer_addresses()[0]
        head = store.last_index
        frame = make_replicate(100, [_entry(head + 1).to_wire()], 0)
        frame["origin_address"] = peer  # a claim, not an identity
        with ha_env.network.connect(primary.address, source="x:1") as channel:
            reply = channel.request(frame, timeout=5.0)
        assert reply["type"] == ClusterMessageType.ERROR
        assert reply["code"] == "not_a_peer"
        assert store.last_index == head and store.epoch == 1 and store.is_primary
        assert store.epoch_adoptions == 0 and store.depositions == 0
        # The same frame from a member of the group goes through.
        with ha_env.network.connect(primary.address, source=peer) as channel:
            assert channel.request(frame, timeout=5.0)["type"] == ClusterMessageType.REPLICATE_OK
        assert store.last_index == head + 1 and store.epoch == 100 and not store.is_primary
        assert store.primary_hint == peer

    def test_answer_reports_status_to_an_election_probe(self, ha_env):
        # A peer's probe gets this node's status; anyone else's, nothing.
        c1, c2, _ = ha_env.controllers
        with ha_env.network.connect(c1.address, source=c2.address) as channel:
            reply = channel.request(make_ha_status(), timeout=5.0)
        assert reply == {"type": ClusterMessageType.HA_STATUS_OK, **c1.ha_store.status()}
        with ha_env.network.connect(c1.address) as channel:
            assert channel.request(make_ha_status(), timeout=5.0)["code"] == "not_a_peer"


# -- cluster-level replication -------------------------------------------------


class TestControllerHAReplication:
    def test_initial_roles_are_deterministic(self, ha_env):
        c1, c2, c3 = ha_env.controllers
        assert [c.ha_store.role for c in (c1, c2, c3)] == [
            ROLE_PRIMARY,
            ROLE_FOLLOWER,
            ROLE_FOLLOWER,
        ]
        for follower in (c2, c3):
            assert follower.ha_store.primary_hint == c1.address
        stats = c1.stats()["ha"]
        assert stats["cluster_size"] == 3 and stats["required_acks"] == 2
        assert stats["epoch"] == 1

    def test_writes_replicate_to_every_follower(self, ha_env):
        conn = _connect(ha_env)
        cursor = conn.cursor()
        cursor.execute("CREATE TABLE rep_t (id INTEGER PRIMARY KEY)")
        for i in range(5):
            cursor.execute(f"INSERT INTO rep_t (id) VALUES ({i})")
        conn.close()
        primary = _primary_of(ha_env)
        head = primary.ha_store.last_index
        assert head >= 6  # CREATE + 5 inserts
        for controller in ha_env.controllers:
            assert controller.ha_store.last_index == head
            assert _chain(controller) == _chain(primary)
        ha = primary.stats()["ha"]
        assert ha["rounds"] >= 1
        for peer_stats in ha["peers"].values():
            assert peer_stats["acked_index"] == head and peer_stats["reachable"]

    def test_follower_serves_reads_but_bounces_writes(self, ha_env):
        setup = _connect(ha_env)
        setup.cursor().execute("CREATE TABLE ro_t (id INTEGER PRIMARY KEY)")
        setup.close()
        follower = ha_env.controllers[1]
        conn = _connect(ha_env, url=f"sequoia://{follower.address}/vdb")
        cursor = conn.cursor()
        # Reads never bounce: a follower serves them from local backends.
        cursor.execute("SELECT COUNT(*) FROM ro_t")
        assert cursor.fetchone() == (0,)
        # Writes bounce with not_primary; with no other host to chase the
        # hint to, the driver's bounded retries exhaust and surface it.
        with pytest.raises(OperationalError):
            cursor.execute("INSERT INTO ro_t (id) VALUES (1)")
        assert follower.ha_store.role == ROLE_FOLLOWER  # live primary => no coup
        assert conn.not_primary_bounces >= 1
        conn.close()

    def test_bounce_hint_redirects_driver_to_primary(self, ha_env):
        c1, c2, _ = ha_env.controllers
        conn = _connect(ha_env, url=f"sequoia://{c2.address},{c1.address}/vdb")
        cursor = conn.cursor()
        cursor.execute("CREATE TABLE hint_t (id INTEGER PRIMARY KEY)")
        cursor.execute("INSERT INTO hint_t (id) VALUES (1)")
        # Wherever the round-robin connect landed, the not_primary hint
        # steered the writes to the real primary.
        assert conn.controller_id == c1.config.controller_id
        assert c1.ha_store.last_index >= 2
        conn.close()

    def test_bounce_without_address_keeps_learned_hint(self, ha_env):
        # Mid-election a follower may bounce without knowing the primary;
        # that must not erase routing state the driver already learned.
        conn = _connect(ha_env)
        primary_address = ha_env.controllers[0].address
        conn._primary_hint = primary_address
        with pytest.raises(OperationalError):
            conn._interpret_reply(make_error(ERROR_NOT_PRIMARY, "mid-election"))
        assert conn._primary_hint == primary_address
        conn.close()

    def test_group_commit_amortizes_replication_rounds(self, ha_env):
        conn = _connect(ha_env)
        cursor = conn.cursor()
        cursor.execute("CREATE TABLE gc_t (id INTEGER PRIMARY KEY)")
        primary = _primary_of(ha_env)
        before = primary.ha_store.ha_stats()
        conn.begin()
        for i in range(5):
            cursor.execute(f"INSERT INTO gc_t (id) VALUES ({i})")
        conn.commit()
        after = primary.ha_store.ha_stats()
        # One commit group = one network round; entries_shipped counts
        # per peer (5 entries x 2 followers).
        assert after["rounds"] - before["rounds"] == 1
        assert after["entries_shipped"] - before["entries_shipped"] == 10
        conn.close()

    def test_checkpoint_registry_replicates(self, ha_env):
        primary = _primary_of(ha_env)
        primary.recovery_log.checkpoint("cp-ha")
        conn = _connect(ha_env)
        conn.cursor().execute("CREATE TABLE cp_t (id INTEGER PRIMARY KEY)")
        conn.close()
        for follower in ha_env.controllers[1:]:
            assert "cp-ha" in follower.recovery_log.checkpoints

    def test_compaction_floor_propagates(self, ha_env):
        conn = _connect(ha_env)
        cursor = conn.cursor()
        cursor.execute("CREATE TABLE fl_t (id INTEGER PRIMARY KEY)")
        for i in range(4):
            cursor.execute(f"INSERT INTO fl_t (id) VALUES ({i})")
        primary = _primary_of(ha_env)
        assert primary.recovery_log.compact() > 0
        # The floor rides the next round (here: the next write's flush).
        cursor.execute("INSERT INTO fl_t (id) VALUES (99)")
        conn.close()
        floor = primary.ha_store.truncated_through
        assert floor >= 5
        for follower in ha_env.controllers[1:]:
            assert follower.ha_store.truncated_through == floor
            assert _chain(follower, floor) == _chain(primary, floor)

    def test_partitioned_link_below_quorum_fails_the_write(self, ha_env):
        conn = _connect(ha_env)
        cursor = conn.cursor()
        cursor.execute("CREATE TABLE pq_t (id INTEGER PRIMARY KEY)")
        primary = _primary_of(ha_env)
        peers = primary.ha_store.peer_addresses()
        with chaos.partitioned_replication_link(primary, peers[0]):
            # One of two peers cut: 2/3 acks (self + one) still a majority.
            cursor.execute("INSERT INTO pq_t (id) VALUES (1)")
            with chaos.partitioned_replication_link(primary, peers[1]):
                # Both cut: 1/3 acks, quorum fails, durability unknown.
                with pytest.raises(ProgrammingError):
                    cursor.execute("INSERT INTO pq_t (id) VALUES (2)")
        assert primary.ha_store.quorum_failures >= 1
        # Links healed: the next write replicates and catches peers up.
        cursor.execute("INSERT INTO pq_t (id) VALUES (3)")
        head = primary.ha_store.last_index
        for follower in ha_env.controllers[1:]:
            assert follower.ha_store.last_index == head
        conn.close()

    def test_malformed_replicate_is_refused_and_the_peer_channel_survives(self, ha_env):
        # A frame that does not decode must be answered, not raised on: a
        # dead peer-channel thread reads as "peer down" to the sender.
        # Nothing of it may be applied — not the epoch it names either.
        primary = _primary_of(ha_env)
        follower = next(c for c in ha_env.controllers if c is not primary)
        store = follower.ha_store
        head, epoch = store.last_index, store.epoch
        good = _entry(head + 1).to_wire()

        def frame(**overrides):
            message = make_replicate(epoch + 5, [good], 0)
            message.update(overrides)
            return message

        with ha_env.network.connect(follower.address, source=primary.address) as channel:
            for malformed in (
                frame(epoch="x"),
                frame(entries=[{"bogus": 1}]),
                frame(entries=[good, "x"]),
                frame(entries=7),
                frame(truncated_through=[]),
                frame(checkpoints=[{"name": "cp"}]),
                frame(checkpoints=[{"name": "cp", "index": -1}]),
            ):
                reply = channel.request(malformed, timeout=5.0)
                assert reply["type"] == ClusterMessageType.ERROR, malformed
                assert reply["code"] == "bad_replicate", malformed
                assert (store.last_index, store.epoch) == (head, epoch)
                assert not store.is_primary and store.epoch_adoptions == 0
                assert "cp" not in follower.recovery_log.checkpoints
            # Same channel, a well-formed round: still served.
            reply = channel.request(
                make_replicate(epoch, [good], 0), timeout=5.0
            )
            assert reply["type"] == ClusterMessageType.REPLICATE_OK
            assert store.last_index == head + 1


class TestGroupOfOne:
    def test_standalone_controller_is_its_own_primary_and_majority(self):
        env = build_cluster(replicas=2, controllers=1)
        try:
            (controller,) = env.controllers
            ha = controller.stats()["ha"]
            assert ha["role"] == ROLE_PRIMARY
            assert ha["cluster_size"] == 1 and ha["required_acks"] == 1
            assert ha["peers"] == {}
            conn = _connect(env)
            cursor = conn.cursor()
            cursor.execute("CREATE TABLE solo_t (id INTEGER PRIMARY KEY)")
            cursor.execute("INSERT INTO solo_t (id) VALUES (1)")
            cursor.execute("SELECT COUNT(*) FROM solo_t")
            assert cursor.fetchone() == (1,)
            conn.close()
            head = controller.ha_store.last_index
            # Nobody is its peer, so nobody may append to its log.
            with env.network.connect(controller.address) as channel:
                reply = channel.request(
                    make_replicate(9, [_entry(head + 1).to_wire()], 0),
                    timeout=5.0,
                )
            assert reply["type"] == ClusterMessageType.ERROR
            assert reply["code"] == "not_a_peer"
            assert controller.ha_store.last_index == head
            assert controller.ha_store.is_primary and controller.ha_store.epoch == 1
        finally:
            env.close()


# -- failover ------------------------------------------------------------------


class TestControllerHAFailover:
    def test_primary_crash_elects_follower_and_keeps_writes(self, ha_env):
        env = ha_env
        conn = _connect(env)
        cursor = conn.cursor()
        cursor.execute("CREATE TABLE fo_t (id INTEGER PRIMARY KEY)")
        for i in range(3):
            cursor.execute(f"INSERT INTO fo_t (id) VALUES ({i})")
        old_primary = _primary_of(env)
        chaos.crash_controller(env, old_primary)
        # The next write discovers the death, fails over, and the bounced
        # follower runs the election inline.
        cursor.execute("INSERT INTO fo_t (id) VALUES (100)")
        survivors = [c for c in env.controllers if c is not old_primary]
        new_primary = _primary_of(env, survivors)
        # Equal last_index at crash time => (last_index, node_id)
        # tie-break picks the largest node id.
        assert new_primary.config.controller_id == "controller3"
        assert new_primary.ha_store.epoch == 2
        cursor.execute("SELECT COUNT(*) FROM fo_t")
        assert cursor.fetchone() == (4,)  # zero committed writes lost
        head = new_primary.ha_store.last_index
        for controller in survivors:
            assert controller.ha_store.last_index == head
            assert _chain(controller) == _chain(new_primary)
        # The new primary numbers the table on from the old primary's
        # last sequence: replay dedup never sees one sequence twice.
        seqs = [e.table_seqs["fo_t"] for e in new_primary.ha_store.entries_after(0) if "fo_t" in e.table_seqs]
        assert seqs == [1, 2, 3, 4, 5]
        assert conn.failovers >= 1
        conn.close()

    def test_deposed_primary_is_fenced_by_stale_epoch(self, ha_env):
        env = ha_env
        c1, c2, c3 = env.controllers
        setup = _connect(env)
        setup.cursor().execute("CREATE TABLE st_t (id INTEGER PRIMARY KEY)")
        setup.close()
        # Promote c2 while its link to c1 is cut, so c1 never hears the
        # announcement and still believes it is the epoch-1 primary.
        with chaos.partitioned_replication_link(c2, c1.address):
            assert c2.promote() == 2
        assert c3.ha_store.epoch == 2 and c3.ha_store.role == ROLE_FOLLOWER
        assert c1.ha_store.is_primary and c1.ha_store.epoch == 1
        # c1 accepts the write locally, but its replication round meets
        # stale_epoch refusals at both up-to-date peers: no majority, the
        # write fails (durability unknown), and c1 deposes itself.
        conn = _connect(env, url=f"sequoia://{c1.address}/vdb")
        with pytest.raises(ProgrammingError):
            conn.cursor().execute("INSERT INTO st_t (id) VALUES (1)")
        assert c1.ha_store.role == ROLE_FOLLOWER
        assert c1.ha_store.epoch == 2
        assert c1.ha_store.depositions == 1
        conn.close()
        # Writes through the cluster URL land on c2 (bounces carry its
        # address as the hint) and replicate normally again.
        conn = _connect(env)
        cursor = conn.cursor()
        cursor.execute("INSERT INTO st_t (id) VALUES (2)")
        assert conn.controller_id == c2.config.controller_id
        conn.close()

    def test_majority_side_of_a_partition_elects_and_the_minority_rejoins(self, ha_env):
        env = ha_env
        c1, c2, c3 = env.controllers
        setup = _connect(env)
        cursor = setup.cursor()
        cursor.execute("CREATE TABLE part_t (id INTEGER PRIMARY KEY)")
        cursor.execute("INSERT INTO part_t (id) VALUES (1)")
        setup.close()
        conn = _connect(env, url=f"sequoia://{c2.address},{c3.address}/vdb")
        cursor = conn.cursor()
        with chaos.isolated_controller(env, c1):
            # Two of three controllers still see each other: the write
            # that finds no primary on their side elects one.
            cursor.execute("INSERT INTO part_t (id) VALUES (2)")
            assert _primary_of(env, [c2, c3]).ha_store.epoch == 2
            assert {c2.ha_store.epoch, c3.ha_store.epoch} == {2}
            # The cut-off primary heard nothing of it.
            assert c1.ha_store.is_primary and c1.ha_store.epoch == 1
        # Healed: the next round reaches c1, which adopts the epoch,
        # steps down and is caught up.
        cursor.execute("INSERT INTO part_t (id) VALUES (3)")
        assert c1.ha_store.role == ROLE_FOLLOWER
        assert c1.ha_store.epoch == 2 and c1.ha_store.depositions == 1
        assert len({c.ha_store.last_index for c in env.controllers}) == 1
        assert _chain(c1) == _chain(c2) == _chain(c3)
        cursor.execute("SELECT COUNT(*) FROM part_t")
        assert cursor.fetchone() == (3,)
        conn.close()

    def test_killed_endpoint_sends_no_group_operation(self, ha_env):
        # c2 keeps running in-process, but its endpoint is dead: no
        # frame of its escapes, so it can disable nothing elsewhere.
        c1, c2, c3 = ha_env.controllers
        ha_env.network.kill_endpoint(c2.address)
        c2.disable_backend_cluster_wide("db1")
        assert not c2.backend("db1").enabled
        assert c1.backend("db1").enabled and c3.backend("db1").enabled

    def test_killed_endpoint_cannot_elect_itself(self, ha_env):
        # Its probes are refused at its own dead address: alone, it is
        # no majority, whatever the other two are doing.
        _, c2, _ = ha_env.controllers
        ha_env.network.kill_endpoint(c2.address)
        assert c2.ha_store.ensure_primary(c2.promote) is False
        assert c2.ha_store.role == ROLE_FOLLOWER and c2.ha_store.epoch == 1

    def test_crash_between_append_and_ack_loses_nothing(self, ha_env):
        env = ha_env
        conn = _connect(env)
        cursor = conn.cursor()
        cursor.execute("CREATE TABLE ck_t (id INTEGER PRIMARY KEY)")
        primary = _primary_of(env)
        head_before = primary.ha_store.last_index
        client_error = []

        def write():
            try:
                conn.cursor().execute("INSERT INTO ck_t (id) VALUES (1)")
            except Exception as exc:  # durability-unknown window: any of
                client_error.append(exc)  # lost-channel/duplicate-key is fine

        with chaos.crash_after_next_replication(env, primary) as fired:
            writer = threading.Thread(target=write)
            writer.start()
            assert chaos.wait_until(fired, timeout=10.0)
        writer.join(timeout=10.0)
        assert not writer.is_alive()
        # The entry reached a majority before the primary died: both
        # followers hold it even though the client may never have heard.
        for follower in [c for c in env.controllers if c is not primary]:
            assert follower.ha_store.last_index == head_before + 1
            sqls = [e.sql for e in follower.ha_store.entries_after(head_before)]
            assert any("ck_t" in sql for sql in sqls)
        # A fresh write promotes a survivor; the committed row is there
        # exactly once — not lost, not double-applied by the promotion.
        cursor.execute("INSERT INTO ck_t (id) VALUES (2)")
        cursor.execute("SELECT COUNT(*) FROM ck_t WHERE id = 1")
        assert cursor.fetchone() == (1,)
        survivors = [c for c in env.controllers if c is not primary]
        assert _primary_of(env, survivors) in survivors
        conn.close()


# -- one exchange: every peer is sent to before any reply is collected ---------


@pytest.fixture
def exchange_log(monkeypatch):
    """Replace the wire under every PeerLink: ``send`` and ``collect`` are
    recorded, and each frame is answered as an obliging peer would."""
    log = []

    def send(link, frame):
        log.append(("send", link.address))
        link._fake_frame = frame

    def collect(link, timeout=None):
        log.append(("collect", link.address))
        frame = link._fake_frame
        if frame["type"] == ClusterMessageType.REPLICATE:
            return make_replicate_ok("peer", frame["epoch"], len(frame["entries"]))
        if frame["type"] == ClusterMessageType.HA_STATUS:
            status = {"node_id": "peer", "address": link.address, "epoch": 1, "role": ROLE_FOLLOWER}
            return {"type": ClusterMessageType.HA_STATUS_OK, **status, "last_index": 0}
        return {"type": "seq_group_ack"}

    monkeypatch.setattr(replication.PeerLink, "send", send, raising=False)
    monkeypatch.setattr(replication.PeerLink, "collect", collect, raising=False)
    return log


@pytest.fixture
def release_hung_peers():
    """An event the hung peers of a test wait on; set when it ends."""
    gate = threading.Event()
    yield gate
    gate.set()


def _hang_until(gate, result):
    def hung(*args):
        gate.wait(timeout=30.0)
        return result

    return hung


class TestPeerExchange:
    def test_a_round_sends_to_every_peer_before_collecting(self, exchange_log):
        a = _store(node="a", peers=("b:1", "c:1"))
        a.log.append(_entry(1).sql, write_tables=("t",))
        assert a.replicate(force=True)
        assert exchange_log == [("send", "b:1"), ("send", "c:1"), ("collect", "b:1"), ("collect", "c:1")]

    def test_an_election_probes_every_peer_before_collecting(self, exchange_log):
        z = _store(node="z", peers=("b:1", "c:1"))
        assert z.ensure_primary(z.promote)  # ties on last_index go to "z"
        assert exchange_log[:4] == [("send", "b:1"), ("send", "c:1"), ("collect", "b:1"), ("collect", "c:1")]

    def test_a_group_operation_reaches_every_peer_before_collecting(self, ha_env, exchange_log):
        c1, c2, c3 = ha_env.controllers
        assert c1._broadcast_group("disable_backend", {"backend": "db1"}) == (2, [])
        assert exchange_log == [
            ("send", c2.address), ("send", c3.address), ("collect", c2.address), ("collect", c3.address),
        ]

    def test_an_election_with_two_hung_peers_costs_one_probe_timeout(
        self, ha_env, monkeypatch, release_hung_peers
    ):
        c1, c2, c3 = ha_env.controllers
        monkeypatch.setattr(replication, "_PROBE_TIMEOUT_S", 0.5)
        for hung in (c1, c3):  # they take the probe and never answer
            status = hung.ha_store.status()
            monkeypatch.setattr(hung.ha_store, "status", _hang_until(release_hung_peers, status))
        started = time.monotonic()
        assert c2.ha_store.ensure_primary(c2.promote) is False
        assert time.monotonic() - started < 0.9  # not 2 x 0.5

    def test_a_round_with_one_hung_peer_costs_at_most_one_ack_timeout(
        self, ha_env, monkeypatch, release_hung_peers
    ):
        c1, _, c3 = ha_env.controllers
        monkeypatch.setattr(replication, "_ACK_TIMEOUT_S", 0.5)
        late = make_error("late", "answered after the round gave up")
        monkeypatch.setattr(c3.ha_store, "answer", _hang_until(release_hung_peers, late))
        c1.recovery_log.append("INSERT INTO t (id) VALUES (1)", write_tables=("t",))
        started = time.monotonic()
        assert c1.ha_store.replicate() is True  # self + c2
        assert time.monotonic() - started < 0.9
        assert not c1.ha_store.ha_stats()["peers"][c3.address]["reachable"]

    def test_a_collect_that_timed_out_closes_its_link(self, release_hung_peers):
        # A late reply must never be read as the answer to the next frame.
        network = InMemoryNetwork()
        listener = network.listen("p:1")

        def serve():
            for _ in range(2):
                channel = listener.accept(timeout=5.0)
                frame = channel.recv(timeout=5.0)
                if frame["n"] == 1:
                    release_hung_peers.wait(timeout=5.0)
                channel.send({"type": "answer", "n": frame["n"]})

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        link = PeerLink("p:1", network, "q:1")
        link.send({"type": "ask", "n": 1})
        with pytest.raises(TransportError):
            link.collect(0.1)
        release_hung_peers.set()
        assert link.request({"type": "ask", "n": 2}, timeout=5.0) == {"type": "answer", "n": 2}
        link.close()
        server.join(timeout=5.0)

    def test_a_group_operation_across_a_partition_reaches_nobody(self, ha_env):
        c1, c2, c3 = ha_env.controllers
        with chaos.isolated_controller(ha_env, c1):
            assert c1._broadcast_group("disable_backend", {"backend": "db1"}) == (0, [])
        assert c2.backend("db1").enabled and c3.backend("db1").enabled


# -- known hole: the election ranks by last_index alone ------------------------

_RANKING_BUG = (
    "the election ranks by last_index alone: a deposed primary's unacked suffix "
    "outranks an acked write (ROADMAP item 1(a): per-entry epochs, Raft's lastLogTerm)"
)


def _write_through(env, controller, table, value):
    """One INSERT through a driver that knows only ``controller``; returns
    its SQL when the write was acked, else None."""
    sql = f"INSERT INTO {table} (id) VALUES ({value})"
    conn = _connect(env, url=f"sequoia://{controller.address}/vdb", name=f"ha-{table}-{value}")
    try:
        conn.cursor().execute(sql)
        return sql
    except (OperationalError, ProgrammingError):
        return None
    finally:
        conn.close()


def _primaries_lacking(controllers, acked):
    """Each primary among ``controllers``, with the acked writes missing
    from its log."""
    lacking = {}
    for controller in controllers:
        if controller.ha_store.is_primary:
            logged = {entry.sql for entry in controller.ha_store.entries_after(0)}
            lacking[controller.config.controller_id] = [sql for sql in acked if sql not in logged]
    return lacking


class TestAckedWriteSurvivesElection:
    @pytest.mark.xfail(strict=True, reason=_RANKING_BUG)
    def test_new_primary_holds_an_acked_write_that_a_deposed_suffix_outranks(self, ha_env):
        env = ha_env
        c1, c2, c3 = env.controllers
        setup = _connect(env)
        setup.cursor().execute("CREATE TABLE rk_t (id INTEGER PRIMARY KEY)")
        setup.close()
        assert c3.promote() == 2
        with chaos.isolated_controller(env, c3):
            # Alone, c3 logs the write and cannot replicate it.
            assert _write_through(env, c3, "rk_t", 1) is None
            # c1 and c2 elect c2 at epoch 3, which acks a write at the
            # same index.
            conn = _connect(env, url=f"sequoia://{c1.address},{c2.address}/vdb")
            conn.cursor().execute("INSERT INTO rk_t (id) VALUES (2)")
            conn.close()
            acked = ["INSERT INTO rk_t (id) VALUES (2)"]
            assert c2.ha_store.is_primary and c2.ha_store.epoch == 3
            chaos.crash_controller(env, c2)
        # c3 appends once more and is deposed; then it wins the election
        # on last_index, without the acked write.
        assert _write_through(env, c3, "rk_t", 3) is None
        _write_through(env, c3, "rk_t", 4)
        lacking = _primaries_lacking([c1, c3], acked)
        assert lacking and not any(lacking.values()), lacking

    @pytest.mark.xfail(strict=True, reason=_RANKING_BUG)
    def test_the_explorers_shortest_counterexample_replays_on_a_cluster(self, ha_env):
        """tests/ha_explorer.py's shortest I2 trace, event for event."""
        env = ha_env
        by_name = dict(zip(("c1", "c2", "c3"), env.controllers))
        setup = _connect(env)
        setup.cursor().execute("CREATE TABLE ex_t (id INTEGER PRIMARY KEY)")
        setup.close()
        acked, crashed = [], []
        trace = ["isolate c1", "write c1", "write c3", "crash c3", "heal", "write c1", "write c1"]
        for step, event in enumerate(trace):
            kind, *name = event.split()
            node = by_name[name[0]] if name else None
            if kind == "isolate":
                for other in env.controllers:
                    if other is not node:
                        env.network.partition(node.address, other.address)
            elif kind == "heal":
                for a in env.controllers:
                    for b in env.controllers:
                        env.network.heal_partition(a.address, b.address)
            elif kind == "crash":
                crashed.append(node)
                chaos.crash_controller(env, node)
            else:
                sql = _write_through(env, node, "ex_t", step)
                acked += [sql] if sql else []
        lacking = _primaries_lacking([c for c in env.controllers if c not in crashed], acked)
        assert lacking and not any(lacking.values()), lacking


# -- seeded convergence property (replay with REPRO_CHAOS_SEED=<seed>) ---------


class TestHAConvergenceProperty:
    def test_random_interleaving_converges_on_survivors(self, ha_env):
        env = ha_env
        rng, seed = chaos.seeded_rng()
        conn = _connect(env)
        cursor = conn.cursor()
        tables = ["conv_a", "conv_b", "conv_c"]
        for table in tables:
            cursor.execute(f"CREATE TABLE {table} (id INTEGER PRIMARY KEY)")
        alive = list(env.controllers)
        next_id = [0]
        crash_at = rng.randrange(8, 25)

        def insert(cur, table):
            next_id[0] += 1
            cur.execute(f"INSERT INTO {table} (id) VALUES ({next_id[0]})")

        for op_index in range(32):
            if op_index == crash_at:
                victim = _primary_of(env, alive)
                alive.remove(victim)
                chaos.crash_controller(env, victim)
                continue
            roll = rng.random()
            try:
                if roll < 0.55:
                    insert(cursor, rng.choice(tables))
                elif roll < 0.80:
                    conn.begin()
                    for _ in range(rng.randrange(2, 5)):
                        insert(cursor, rng.choice(tables))
                    conn.commit()
                else:
                    primaries = [c for c in alive if c.ha_store.is_primary]
                    if primaries:
                        primaries[0].recovery_log.compact()
            except (OperationalError, ProgrammingError):
                # The op that discovers the crash can fail (mid-transaction
                # deaths close the connection; durability-unknown windows
                # surface); reconnect and keep the interleaving going.
                if conn.closed:
                    conn = _connect(env, name=f"ha-conv-{op_index}")
                    cursor = conn.cursor()
        # A final write forces one more replication round so floors and
        # heads settle, then every survivor must agree exactly.
        insert(cursor, tables[0])
        conn.close()
        survivors = [c for c in env.controllers if c in alive]
        assert len(survivors) == 2, f"seed {seed}: expected one crash"
        new_primary = _primary_of(env, survivors)
        floor = max(c.ha_store.truncated_through for c in survivors)
        heads = {c.ha_store.last_index for c in survivors}
        assert len(heads) == 1, f"seed {seed}: diverging heads {heads}"
        reference = _chain(new_primary, floor)
        for controller in survivors:
            assert _chain(controller, floor) == reference, (
                f"seed {seed}: {controller.config.controller_id} diverges"
            )
        # Per-table sequence chains are gapless and strictly ordered.
        per_table = {}
        for _, _, seqs in reference:
            for table, seq in seqs:
                per_table.setdefault(table, []).append(seq)
        for table, seqs in per_table.items():
            assert seqs == sorted(seqs), f"seed {seed}: {table} out of order"
            assert len(set(seqs)) == len(seqs), f"seed {seed}: {table} reuses seqs"
