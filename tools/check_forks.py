#!/usr/bin/env python
"""Fail when a retired fork, twin or knob grows back.

Usage: python tools/check_forks.py

Each simplification PR deleted a second copy of something — a ``trace is
None`` branch, a twin session loop, a second lock-footprint spelling, a
second driver attachment. Nothing in the type system stops the copy from
being added again, so the names it went by are kept here, one row each:
``(pattern, paths, message)`` plus how many matching lines are allowed
(none, unless the row says otherwise). Adding a gate is adding a row.
A row with ``allowed`` set to today's count is a ratchet: the number may
only go down.

The last check is of a different kind but guards the same drift: every
backticked ``ControllerConfig.<name>`` or ``BootloaderConfig.<name>`` in
README.md and docs/ must still be a field of the dataclass.

Run by the CI docs job and by tests/test_check_forks.py, so a
reintroduced fork fails locally and not only on push.
"""

from __future__ import annotations

import dataclasses
import os
import re
import sys
from typing import Iterator, List, NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Gate(NamedTuple):
    pattern: str
    #: Files, or directories searched recursively for ``*.py``, relative
    #: to the repository root.
    paths: Tuple[str, ...]
    message: str
    allowed: int = 0
    #: Files or directories (relative to the root) skipped under ``paths``.
    exclude: Tuple[str, ...] = ()


_ROUND_ON_THE_CALLER = (
    "a round sends to every target before collecting any, on the calling thread; there is "
    "no broadcast pool"
)

_ONE_EXCHANGE = (
    "a controller reaches its peers through one split-phase exchange on the calling thread "
    "(replication.exchange: PeerLink.send to every peer, then PeerLink.collect, the one recv)"
)

_ONE_LOG_WRITER = (
    "the recovery log has one writer: RecoveryLog writes its store (a follower's shipped "
    "entries through RecoveryLog.apply_replicated), and the HA node sits over the log "
    "(ReplicatedLogStore(recovery_log, ...)), wired in one direction"
)

_ONE_INSTALL = (
    "one install site: a driver row and its permission row are written by "
    "DrivolutionAdmin.install_driver, whoever installs (a controller too, locally and by GROUP)"
)

_ALWAYS_BATCHED = (
    "write batching has no off switch: every eligible write goes through the WriteBatcher "
    "(a lone writer leads a round of one); an experiment's per-statement baseline is its own "
    "RequestScheduler subclass (experiments.concurrency.UnbatchedScheduler)"
)

_ONE_POLICY_SPEC = (
    "a read policy is one spec string (ControllerConfig.read_policy, e.g. "
    "weighted:db1=3,db2=1, parsed by loadbalancer.create_policy), which also states each weight"
)

_ONE_VALUE_IN_USE = (
    "a knob with one value in use is its class's default, not a ControllerConfig field: "
    "SlowQueryLog(capacity=32), FileLogStore(segment_max_entries=256), "
    "FailureDetector(max_misses=2)"
)

_ONE_RECORD = (
    "a controller's durable state is one record: floor, epoch and checkpoints in state.json, "
    "read once when the FileLogStore opens and written whole by its one writer "
    "(LogStore._save_state_locked); no second file, registry or loader"
)

_ONE_READ_SET = (
    "a read's replica set is decided in one place, RequestScheduler._read_candidates: a read, "
    "in a transaction or not, runs on one replica and never in a write round"
)

_ONE_DEFERRAL = (
    "a second BEGIN deferral: a connection's owed BEGIN, and the test of which texts are a lone "
    "BEGIN, COMMIT or ROLLBACK, live in one place, dbapi/runtime.py's WireConnection; the "
    "replica tier (cluster/backend.py) and the cluster driver (cluster/driver.py) send BEGIN "
    "like any statement and only pass a frame's begin field through"
)

_CREDENTIALS_STOP = (
    "a password goes only to the database that authenticates it (dbserver.wire.make_connect): "
    "the controller authenticates nobody and a Drivolution server checks no secret, so neither "
    "protocol's frames carry one"
)

_SENDER_IS_THE_CHANNEL = (
    "a peer frame names no sender: who sent GROUP, REPLICATE or HA_STATUS is the channel's "
    "remote_address, never a field of the frame"
)

_NO_UNREAD_FIELD = (
    "a frame carries only what its receiver reads: the matchmaker reads no requested "
    "extensions, so neither BootloaderConfig nor DRIVOLUTION_REQUEST names them"
)

_ONE_CONNECTION_LOCK = (
    "one lock keeps a replica connection exclusive, the connection's own (the pydb exchange "
    "lock): the backend's lock covers only choosing the shared connection (a split-form "
    "request goes on it outside the lock, so none waits for a connection under it), and no "
    "DB-API threadsafety level decides which lock applies"
)

GATES = [
    Gate(
        r"trace is (not )?None",
        ("src/repro/cluster",),
        "tracing fork reintroduced: call the trace unconditionally "
        "(repro.obs.NULL_TRACE is the off case)",
    ),
    Gate(
        r"_serve_session|_serve_mux_channel|_mux_execute|config\.multiplexing",
        ("src/repro/cluster",),
        "front-end fork reintroduced: both kinds of channel go through "
        "Controller._on_execute (a dedicated channel is a trunk with one implicit session)",
    ),
    Gate(
        r"_admit_statement\(\)",
        ("src/repro/cluster/controller.py",),
        "controller.py admits statements in more than one place",
        allowed=1,
    ),
    Gate(
        r"conflict_aware|key_level_locking|_scope_kind|ScopeSpec|isinstance\([^)]*LockScope\)",
        ("src/repro/cluster",),
        "lock-footprint fork reintroduced: a footprint is one LockScope, "
        "resolved by lockscope.ScopeResolver",
    ),
    Gate(
        r"information_schema|_pk_",
        ("src/repro/cluster/scheduler.py",),
        "scheduler.py must not know how a key is resolved (that is lockscope.py)",
    ),
    Gate(
        r"_mux_link|_attach_mux|MultiplexedChannel|self\._channel\b",
        ("src/repro/cluster/driver.py",),
        "driver attachment fork reintroduced: a connection holds one session on one "
        "ControllerLink (a dedicated connection is a private link with one implicit session)",
    ),
    Gate(
        r"bootstrap_backend|_auto_disabled|failure_detector\.forget|\.blocked\b",
        ("src/repro/cluster",),
        "replica-lifecycle fork reintroduced: RequestScheduler.resync_and_enable is the one "
        "way into the rotation, Backend.disabled_by says who took a replica out, and a "
        "replication link is cut at the network (Network.connect(source=))",
    ),
    Gate(
        r"ha_store is (not )?None|_maybe_promote|_probe_ha_peer|_handle_ha_status"
        r"|_serve_replication_channel|set_checkpoint_snapshot_provider|ha_disabled",
        ("src/repro/cluster",),
        "controller-tier fork reintroduced: every controller is an HA node (a standalone one "
        "is the group of one); the HA protocol lives in recovery/replication.py",
    ),
    Gate(
        r"network\.connect\(",
        ("src/repro/cluster",),
        "a controller reaches a peer through PeerLink, as itself (source=its own address), "
        "so network faults apply to every controller-to-controller frame",
        allowed=1,
        exclude=("src/repro/cluster/driver.py",),
    ),
    Gate(
        r"require_signature|config\.secure\b|_bootstrap\(|_install_offer|def _revoke\b"
        r"|self\._revoked\b|MatchRequest",
        ("src/repro/core",),
        "one driver transition: Bootloader._switch_driver (a first acquisition is a renewal "
        "with no lease, a revocation an upgrade to no driver); a CA means secure, a signer "
        "means signed",
    ),
    Gate(
        r"network\.connect\(",
        ("src/repro/core/bootloader.py",),
        "a bootloader reaches a Drivolution server through _open_channel",
        allowed=1,
    ),
    Gate(
        r"loader\.unload\(",
        ("src/repro/core",),
        "a driver is unloaded in one place, Bootloader._unload_unused: a superseded driver "
        "goes with its last open connection (policies.unload_step)",
        allowed=1,
    ),
    Gate(
        r"old\.driver_id|force_close|close_after_commit|mark_stale",
        ("src/repro/core",),
        "a second lifecycle decision: whether an offer names the running driver is "
        "policies.offer_step's (by package fingerprint, never a server-local driver_id), and "
        "what a superseded connection does is policies.expiry_step's verdict",
    ),
    Gate(
        r"LeaseManager|InstallRecord|driver_id_on|driver_id_by_server|_install_driver_locally",
        ("src/repro",),
        "a Drivolution fact kept twice: a lease is its row (DriverRegistry.record_lease / "
        "release_lease), the admin names a driver by its package, and every install goes "
        "through DrivolutionAdmin.install_driver",
    ),
    Gate(
        r"registry\.install_driver\(",
        ("src/repro",),
        _ONE_INSTALL,
        allowed=1,
    ),
    Gate(r"\.grant_permission\(", ("src/repro",), _ONE_INSTALL, allowed=1),
    Gate(
        r"workers=|handler_workers",
        ("src/repro/netsim/transport.py", "src/repro/dbserver"),
        "ChannelServer pool mode reintroduced: a handler runs on its connection's own thread",
    ),
    Gate(
        r"enumerate_rows\(",
        ("src/repro/sqlengine/executor.py",),
        "a second row-finding loop: executor._matching_rows is the one place that chooses "
        "between the key index and the scan, and re-checks the predicate either way",
        allowed=1,
    ),
    Gate(
        r"(?<!def )\bparse\(",
        ("src/repro/sqlengine",),
        "a second parse site: Session.execute is the one caller of parse(), on a text the "
        "database keeps no plan for, so every statement goes through the statement cache",
        allowed=1,
    ),
    Gate(
        r"transactions\.current|record_(insert|update|delete)|UndoEntry",
        ("src/repro/sqlengine",),
        "one engine write path: every INSERT/UPDATE/DELETE plan records its undo into the "
        "session's statement log (TransactionManager.statement_log) and runs bracketed by "
        "executor._statement, in auto-commit and in a transaction alike",
    ),
    Gate(
        r"\.evaluate\(|def evaluate|EvalContext|columns_referenced",
        ("src",),
        "an expression interpreter: a statement runs as its compiled plan "
        "(executor.Planner), and an expression node has one method, Expression.compile; "
        "the engine's reference is sqlite3 (tests/test_sql_sqlite_oracle.py)",
    ),
    Gate(
        r"where_equalities|where_in_lists|insert_values|KeyExpr|_match_equality|_match_in_list",
        ("src/repro/cluster",),
        "a second reading of a write: which rows a statement touches is read off the parser's "
        "AST (ClassifiedStatement.dml, expressions.key_terms), never off the token stream",
    ),
    Gate(
        r'"NUMBER"|"STRING"|"PARAM"',
        ("src/repro/cluster/classifier.py",),
        "the classifier reads names, never values: a literal or a parameter means something "
        "only in the grammar, and the grammar is sqlengine/parser.py",
    ),
    Gate(
        r"self\._in_transaction = True",
        ("src/repro",),
        "a client-side guess at the transaction state: WireConnection._reply_received is the "
        "flag's one writer and assigns what the session's owner said on a reply",
    ),
    Gate(
        r"_open_transactions|_tx_owner|_tx_dirty|SessionContext|def observe\(",
        ("src/repro/cluster",),
        "a second answer to \"is a transaction open?\" on the controller: the scheduler's "
        "record of each session's transaction says so (RequestScheduler.in_transaction, one "
        "lookup in its map from session to _Transaction)",
    ),
    Gate(
        r"self\._transaction\b",
        ("src/repro/cluster/scheduler.py",),
        "one cluster-wide transaction record: a transaction is its session's "
        "(RequestScheduler._transactions maps each session to its _Transaction)",
    ),
    Gate(
        r"\.in_transaction for \w+ in|def in_transaction\(self\) -> bool",
        ("src/repro/cluster/scheduler.py", "src/repro/cluster/backend.py"),
        "the scheduler polls every backend for a transaction: a session's record settles from "
        "its own connections (Lease.live), and a backend keeps no transaction flag",
    ),
    Gate(
        r"split\(None, 1\)\[0\]\.upper\(\)",
        ("src/repro/cluster/driver.py",),
        "the driver sniffs a statement's first word: what a statement is comes from "
        "cluster/classifier.py (is_transaction_control)",
    ),
    Gate(
        r"recv\(timeout=None\)|_cond\.wait\(\)",
        ("src/repro",),
        "a new unbounded wait: give it a timeout or a cancel path "
        "(ROADMAP 'no unbounded wait'; the allowance only ever goes down)",
        allowed=4,
        exclude=("src/repro/experiments",),
    ),
    Gate(
        r"register_extension|ExtensionHandler|_PEER_FRAMES|origin_address",
        ("src/repro",),
        "a listener dispatching beside its table: which frames a listener takes, their field "
        "types and who may send them are one table of netsim.ingress Routes read by "
        "ingress.serve, and a sender is who the transport says (Channel.remote_address), "
        "never what a frame says",
        # DriverAssembler.register_extension packs extension modules into a
        # driver package (paper Section 3.3); it dispatches no frame.
        exclude=("src/repro/core/assembly.py", "src/repro/dbapi/driver_factory.py"),
    ),
    Gate(
        r"_encode_value|_decode_value|queue\.Queue\(",
        ("src/repro/netsim",),
        "a frame is one C json pass each way; a hop is one SimpleQueue (framing's encoder "
        "default and decoder object_hook carry bytes, with no Python walk around json)",
    ),
    # framing's decoder, built once at import (its encoder is c_make_encoder's).
    Gate(
        r"JSONEncoder\(|JSONDecoder\(|json\.(dumps|loads)\(",
        ("src/repro/netsim",),
        "a codec built per call: a frame is one call of the encoder framing builds at import "
        "and one scanner call of its one decoder (netsim/framing.py)",
        allowed=1,
    ),
    Gate(
        r"ThreadPoolExecutor|_get_executor|max_workers|threading\.Thread\(",
        ("src/repro/cluster/broadcaster.py",),
        _ROUND_ON_THE_CALLER,
    ),
    Gate(r"max_workers=", ("src/repro/experiments",), _ROUND_ON_THE_CALLER),
    Gate(
        r"ThreadPoolExecutor|concurrent\.futures",
        ("src/repro",),
        "a trunk statement reaches a worker through the controller's run queue: one "
        "SimpleQueue of ready sessions, no executor and no Future per statement",
    ),
    Gate(
        r"append_batch\(",
        ("src/repro/cluster/scheduler.py",),
        "one log-append site: a write round appends every entry its statements carry, a "
        "COMMIT's buffer included, with one RecoveryLog.append_batch (RequestScheduler._run_round)",
        allowed=1,
    ),
    Gate(
        r"_account_transaction_control_locked|_seq_applied_locked",
        ("src/repro/cluster",),
        "a second copy of the write round's accounting or of replay dedup: a COMMIT is a round "
        "like any other, the record settles after every round (transaction_step), and whether "
        "an entry was applied is backend.replay_step's",
    ),
    Gate(
        r"observe_replicated|def attach\(|def __getattr__",
        ("src/repro/cluster/recovery",),
        _ONE_LOG_WRITER,
    ),
    Gate(
        r"\.(append_many|truncate_through|reset_to_floor)\(",
        ("src/repro/cluster",),
        _ONE_LOG_WRITER,
        allowed=5,
        exclude=("src/repro/cluster/recovery/logstore.py",),
    ),
    Gate(
        r"parallel=|self\.parallel\b",
        ("src/repro/cluster",),
        "a sequential broadcast mode reintroduced: a round overlaps every target; the "
        "sequential baseline is E13b's own WriteBroadcaster subclass",
    ),
    Gate(r"threading\.Thread\(", ("src/repro/cluster/recovery",), _ONE_EXCHANGE),
    Gate(r"peer_request", ("src/repro",), _ONE_EXCHANGE),
    Gate(r"\.recv\(", ("src/repro/cluster/recovery/replication.py",), _ONE_EXCHANGE, allowed=1),
    Gate(r"write_batching=", ("src/repro",), _ALWAYS_BATCHED),
    Gate(r"_write_batcher is None", ("src/repro/cluster",), _ALWAYS_BATCHED),
    Gate(r"policy_options", ("src/repro",), _ONE_POLICY_SPEC),
    Gate(r"\.weight\b", ("src/repro/cluster",), _ONE_POLICY_SPEC),
    Gate(r"slow_query_capacity", ("src/repro",), _ONE_VALUE_IN_USE),
    Gate(r"log_segment_entries", ("src/repro",), _ONE_VALUE_IN_USE),
    Gate(r"heartbeat_misses", ("src/repro",), _ONE_VALUE_IN_USE),
    Gate(
        r"CheckpointRegistry|meta_path|_load_meta|_write_meta|logmeta\.json|checkpoints\.json|ha\.json",
        ("src/repro",),
        _ONE_RECORD,
    ),
    # The definition and the one call.
    Gate(r"atomic_write_json\(", ("src/repro/cluster",), _ONE_RECORD, allowed=2),
    Gate(r"hosting_all\(", ("src/repro/cluster/scheduler.py",), _ONE_READ_SET, allowed=1),
    Gate(
        r"owe[sd]_begin|_lone_control|_answer_here",
        ("src/repro",),
        _ONE_DEFERRAL,
        exclude=("src/repro/dbapi/runtime.py",),
    ),
    Gate(
        r"\bclassify\(|\.command\b|[=!]= *[\"'](BEGIN|COMMIT|ROLLBACK)[\"']",
        ("src/repro/cluster/backend.py", "src/repro/cluster/driver.py"),
        _ONE_DEFERRAL,
    ),
    Gate(
        r"\bpassword\b",
        (
            "src/repro/cluster/wire.py",
            "src/repro/cluster/controller.py",
            "src/repro/core/messages.py",
            "src/repro/core/server.py",
        ),
        _CREDENTIALS_STOP,
    ),
    Gate(
        r"\borigin\b",
        ("src/repro/cluster/wire.py", "src/repro/cluster/recovery/replication.py"),
        _SENDER_IS_THE_CHANNEL,
    ),
    Gate(r"requested_extensions", ("src/repro",), _NO_UNREAD_FIELD),
    Gate(r"threadsafety", ("src/repro/cluster",), _ONE_CONNECTION_LOCK),
    Gate(r"\b_locked\b|def _release\b", ("src/repro/cluster/backend.py",), _ONE_CONNECTION_LOCK),
]


def _python_files(path: str, exclude: Tuple[str, ...] = ()) -> Iterator[str]:
    full = os.path.join(ROOT, path)
    if os.path.isfile(full):
        yield full
        return
    skipped = tuple(os.path.join(ROOT, entry) + os.sep for entry in exclude)
    for directory, _, names in os.walk(full):
        for name in sorted(names):
            filename = os.path.join(directory, name)
            if name.endswith(".py") and not (filename + os.sep).startswith(skipped):
                yield filename


def check_gate(gate: Gate) -> List[str]:
    """The gate's failure report: empty when at most ``allowed`` lines match."""
    pattern = re.compile(gate.pattern)
    hits = []
    for path in gate.paths:
        for filename in _python_files(path, gate.exclude):
            with open(filename, "r", encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, start=1):
                    if pattern.search(line):
                        location = os.path.relpath(filename, ROOT)
                        hits.append(f"{location}:{line_number}: {line.strip()}")
    if len(hits) <= gate.allowed:
        return []
    return [f"{gate.message} ({len(hits)} matching lines, {gate.allowed} allowed)"] + hits


def check_documented_config_fields() -> List[str]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.cluster import ControllerConfig
    from repro.core import BootloaderConfig

    documents = [os.path.join(ROOT, "README.md")] + [
        os.path.join(ROOT, "docs", name)
        for name in sorted(os.listdir(os.path.join(ROOT, "docs")))
        if name.endswith(".md")
    ]
    text = ""
    for document in documents:
        with open(document, "r", encoding="utf-8") as handle:
            text += handle.read()
    report = []
    for config in (ControllerConfig, BootloaderConfig):
        fields = {field.name for field in dataclasses.fields(config)}
        mentioned = set(re.findall(rf"`{config.__name__}\.([A-Za-z_]+)", text))
        stale = sorted(mentioned - fields)
        if stale:
            report.append(f"docs mention {config.__name__} fields that do not exist: {stale}")
    return report


def main() -> int:
    report: List[str] = []
    for gate in GATES:
        report.extend(check_gate(gate))
    report.extend(check_documented_config_fields())
    for line in report:
        print(line)
    print(f"checked {len(GATES)} fork gates and the documented config fields")
    return 1 if report else 0


if __name__ == "__main__":
    raise SystemExit(main())
