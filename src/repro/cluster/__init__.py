"""Sequoia-like database replication middleware (paper Section 5.3).

Sequoia is the open-source middleware the paper uses for its case studies:
client applications talk to *controllers* through a failover-capable
driver; controllers replicate writes to a set of database *backends*
(RAIDb-1 style full replication), load-balance reads, and can disable /
re-enable / resynchronise backends around consistent checkpoints.

This package implements the pieces those case studies exercise:

- :mod:`repro.cluster.wire` — the versioned controller wire protocol
  (drivers are backward compatible with older controllers); v3 adds
  session multiplexing and statement pipelining (see docs/wire.md),
- :mod:`repro.cluster.recovery` — the durable recovery subsystem:
  pluggable log stores (in-memory / segmented JSONL files), named
  checkpoints with compaction, dump-based backend cold start and the
  heartbeat failure detector (see docs/recovery.md) — the old
  ``repro.cluster.recovery_log`` compatibility shim has been removed,
- :mod:`repro.cluster.backend` — backend management (enable / disable /
  checkpoint / resync), with a pluggable connection factory so backends
  can be reached through a legacy driver *or* through a Drivolution
  bootloader (the hybrid deployment of Section 5.3.2),
- :mod:`repro.cluster.classifier` — SQL-aware statement classification on
  the sqlengine token stream, extracting read/written table names
  (canonicalised so quoting and schema qualification don't split keys),
- :mod:`repro.cluster.placement` — table placement across the RAIDb
  spectrum: full replication (RAIDb-1, default), hash-spread partial
  replication (RAIDb-2), pure partitioning (RAIDb-0) and explicit
  per-table assignment (see docs/placement.md),
- :mod:`repro.cluster.loadbalancer` — pluggable read policies
  (round-robin, least-pending, weighted) over the placement's
  per-statement candidate set,
- :mod:`repro.cluster.broadcaster` — parallel write broadcast on the
  calling thread (send to every replica, then collect) with
  per-backend failure aggregation,
- :mod:`repro.cluster.querycache` — SELECT-result cache invalidated by
  the tables each write touches,
- :mod:`repro.cluster.scheduler` — the request scheduler orchestrating
  classifier → policy → broadcaster → cache (see docs/scheduling.md),
- :mod:`repro.cluster.controller` — the controller itself, optionally
  embedding a Drivolution server replicated across the controller group,
- :mod:`repro.cluster.driver` — the cluster client driver with
  multi-controller URLs, automatic failover, and multiplexed logical
  sessions sharing pooled physical channels.
"""

from repro.cluster.wire import CLUSTER_PROTOCOL_VERSION, MULTIPLEX_MIN_VERSION
from repro.cluster.recovery import (
    DatabaseDump,
    DatabaseDumper,
    FailureDetector,
    FileLogStore,
    GroupCommit,
    LogCompactedError,
    LogEntry,
    LogStore,
    MemoryLogStore,
    RecoveryLog,
)
from repro.cluster.backend import Backend, BackendState
from repro.cluster.classifier import (
    ClassifiedStatement,
    StatementKind,
    classify,
    normalize_table_name,
)
from repro.cluster.placement import (
    ExplicitPolicy,
    FullReplicationPolicy,
    HashSpreadPolicy,
    NoHostingBackendError,
    PlacementMap,
    PlacementPolicy,
    Raidb0Policy,
    available_placements,
    create_placement,
)
from repro.cluster.loadbalancer import (
    LeastPendingPolicy,
    ReadPolicy,
    RoundRobinPolicy,
    WeightedPolicy,
    available_policies,
    create_policy,
)
from repro.cluster.broadcaster import BroadcastOutcome, WriteBroadcaster
from repro.cluster.locks import LockManager
from repro.cluster.querycache import QueryCache
from repro.cluster.scheduler import RequestScheduler, SchedulerError, is_write_statement
from repro.cluster.controller import Controller, ControllerConfig, ControllerGroup
from repro.cluster.driver import (
    ClusterConnection,
    ClusterDriverRuntime,
    ControllerLink,
    SequoiaDriver,
)

__all__ = [
    "CLUSTER_PROTOCOL_VERSION",
    "MULTIPLEX_MIN_VERSION",
    "GroupCommit",
    "RecoveryLog",
    "LogEntry",
    "LogStore",
    "MemoryLogStore",
    "FileLogStore",
    "LogCompactedError",
    "DatabaseDump",
    "DatabaseDumper",
    "FailureDetector",
    "Backend",
    "BackendState",
    "ClassifiedStatement",
    "StatementKind",
    "classify",
    "normalize_table_name",
    "PlacementMap",
    "PlacementPolicy",
    "FullReplicationPolicy",
    "HashSpreadPolicy",
    "Raidb0Policy",
    "ExplicitPolicy",
    "NoHostingBackendError",
    "available_placements",
    "create_placement",
    "ReadPolicy",
    "RoundRobinPolicy",
    "LeastPendingPolicy",
    "WeightedPolicy",
    "available_policies",
    "create_policy",
    "BroadcastOutcome",
    "WriteBroadcaster",
    "LockManager",
    "QueryCache",
    "RequestScheduler",
    "SchedulerError",
    "is_write_statement",
    "Controller",
    "ControllerConfig",
    "ControllerGroup",
    "ClusterDriverRuntime",
    "ClusterConnection",
    "ControllerLink",
    "SequoiaDriver",
]
