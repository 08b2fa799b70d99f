"""Durable recovery subsystem for the cluster middleware.

The paper keeps replicas consistent by disabling/enabling backends
"around a consistent checkpoint" and replaying a recovery log. This
package is the production-shaped version of that mechanism:

- :mod:`repro.cluster.recovery.logstore` — the pluggable ``LogStore``
  interface with an in-memory store and a segmented, file-backed JSONL
  store that survives controller restarts (crash recovery on open,
  optional fsync-on-append) and keeps the controller's one durable
  record (floor, epoch, checkpoints) in ``state.json``,
- :mod:`repro.cluster.recovery.log` — the :class:`RecoveryLog` facade
  over a store, with named checkpoints replacing the bare integer
  checkpoint and compaction that truncates segments older than the
  oldest live checkpoint,
- :mod:`repro.cluster.recovery.dumper` — :class:`DatabaseDumper`, which
  snapshots a healthy backend through plain SQL (via the sqlengine's
  ``information_schema``) so a brand-new backend can cold-start from
  dump + tail replay instead of a full-history replay,
- :mod:`repro.cluster.recovery.failure_detector` — a heartbeat-driven
  detector that auto-disables dead backends at a checkpoint and
  auto-resyncs them when they come back,
- :mod:`repro.cluster.recovery.replication` — controller HA:
  :class:`ReplicatedLogStore` is the HA node over a :class:`RecoveryLog`
  and replicates the log and its checkpoints to controller peers
  with a majority-ack rule, an epoch scheme that fences deposed
  primaries and the election that replaces them, as pure rules under a
  thin shell; :class:`PeerLink` and :func:`exchange` are how one
  controller reaches the others.

See docs/recovery.md and docs/ha.md for the full walkthroughs.
"""

from repro.cluster.recovery.logstore import (
    FileLogStore,
    LogEntry,
    LogStore,
    MemoryLogStore,
)
from repro.cluster.recovery.log import GroupCommit, LogCompactedError, RecoveryLog
from repro.cluster.recovery.replication import (
    PeerLink,
    ReplicatedLogStore,
    ReplicationError,
    exchange,
)
from repro.cluster.recovery.dumper import (
    ColumnDump,
    DatabaseDump,
    DatabaseDumper,
    TableDump,
)
from repro.cluster.recovery.failure_detector import FailureDetector

__all__ = [
    "LogEntry",
    "LogStore",
    "MemoryLogStore",
    "FileLogStore",
    "RecoveryLog",
    "GroupCommit",
    "LogCompactedError",
    "PeerLink",
    "exchange",
    "ReplicatedLogStore",
    "ReplicationError",
    "ColumnDump",
    "TableDump",
    "DatabaseDump",
    "DatabaseDumper",
    "FailureDetector",
]
