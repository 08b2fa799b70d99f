"""Cluster (controller) wire protocol.

Sequoia "uses its own wire protocol between drivers and controllers.
Compatibility checking is done at connection time to ensure that protocol
versions will work together. Drivers are backward compatible with older
controllers." (paper Section 5.3.1)

We encode that as: a driver speaking version ``v`` can talk to any
controller with version ``>= v`` (the controller accepts any client
version up to its own); a driver *newer* than the controller downgrades
itself to the controller's version during the handshake, which is what
"backward compatible" means operationally.

Version history:

- **v1/v2** — one physical channel per logical session; EXECUTE/RESULT
  alternate strictly, so messages need no correlation fields.
- **v3** — session multiplexing: one physical channel carries many
  logical sessions. EXECUTE/RESULT/ERROR gain ``session_id`` (which
  logical session) and ``request_id`` (which in-flight statement of that
  session), so statements can be pipelined — fire N executes, match the
  responses by ``(session_id, request_id)`` — and SESSION_OPEN /
  SESSION_OPEN_OK / SESSION_CLOSE manage logical sessions on an
  already-handshaked channel. Multiplexing is negotiated: the CONNECT
  carries ``multiplex=True``, and the controller grants it with
  ``multiplexing=True`` in the CONNECT_OK when the negotiated version
  is >= 3; a client that does not ask — or a v1/v2 peer on either
  side — gets no grant and the channel carries the one implicit
  session the CONNECT_OK named: a trunk with one session to the
  controller, a private link to the driver. See docs/wire.md.
- **v3 tracing extension** — per-statement tracing rides the same
  negotiation style: CONNECT may carry ``trace=True``, the controller
  grants with ``tracing=True`` in the CONNECT_OK only when
  ``ControllerConfig.tracing`` is on and the negotiated version is
  >= 3. On a granted channel EXECUTE may carry an optional
  ``trace_id``, and the matching RESULT/ERROR carries back ``trace``
  (the server-side span list, see ``repro.obs.trace``). See
  docs/observability.md.
- **v4** — EXECUTE may carry ``begin: true``: the controller runs BEGIN
  for the session, then the statement only if BEGIN succeeded, and
  replies once. A driver sends it only when both ends said v4 at
  CONNECT: it answers the application's lone BEGIN itself and carries
  it with the next statement (``repro.dbapi.runtime.WireConnection``).

One rule keeps every version's frames readable by every other: an
optional field is omitted when unset, so a frame that uses no newer
feature is the frame an older peer expects.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import DriverError

#: Protocol version spoken by the current controller/driver generation.
CLUSTER_PROTOCOL_VERSION = 4

#: Oldest driver protocol version a controller still accepts. The
#: floor is v1 because ``driver_factory.build_sequoia_driver`` packages
#: default to it: those are the drivers Drivolution delivers in Fig. 5,
#: Fig. 6 and the rolling-upgrade example.
MIN_CLIENT_PROTOCOL_VERSION = 1

#: First protocol version supporting session multiplexing / pipelining.
MULTIPLEX_MIN_VERSION = 3

#: First protocol version supporting the optional tracing fields
#: (CONNECT ``trace`` / CONNECT_OK ``tracing`` / EXECUTE ``trace_id`` /
#: RESULT-ERROR ``trace``).
TRACE_MIN_VERSION = 3

#: First protocol version whose EXECUTE may carry ``begin`` (both ends
#: must speak it; an older end keeps the eager BEGIN).
BEGIN_MIN_VERSION = 4

#: ERROR code for admission-control rejections: the controller's
#: statement workers are saturated past its configured bounds and the EXECUTE
#: was refused *before* reaching a backend, so the statement never ran
#: and the driver may safely retry it — with backoff — even inside a
#: transaction. Unknown to v2-era drivers, which surface it as a plain
#: OperationalError (still correct: the statement did not execute).
ERROR_SERVER_BUSY = "server_busy"

#: ERROR code an HA *follower* answers writes with: the statement never
#: ran here, the client should retry against the primary. The reply may
#: carry ``primary_host`` so a v3 driver can fail over straight to the
#: current primary instead of probing hosts in URL order (see
#: docs/ha.md). Older drivers surface it as a plain OperationalError
#: and fall back to ordinary host-by-host failover — still correct.
ERROR_NOT_PRIMARY = "not_primary"

#: ERROR code a peer answers a REPLICATE frame with when the frame's
#: epoch is older than the peer's: the sender was deposed (a sibling
#: was promoted with a higher epoch) and must stop acting as primary.
#: The reply carries ``epoch`` (the refusing peer's epoch) so the
#: deposed node adopts it instead of re-announcing its stale one.
ERROR_STALE_EPOCH = "stale_epoch"

#: ERROR code a controller answers a peer-only frame with (REPLICATE and
#: HA_STATUS from anywhere but its ``ha_peers``, GROUP from anywhere but
#: its group peers) — where a frame comes from is the channel's remote
#: address, never what the frame says. Nothing was applied; a sender
#: counts the peer as down.
ERROR_NOT_A_PEER = "not_a_peer"

#: Correlation field sanity bound: a request_id is a small positive
#: integer assigned per channel; anything outside this range is a
#: malformed frame, not a plausible 10k-pipelined client.
_MAX_REQUEST_ID = 2**63


class ClusterWireError(DriverError):
    """Malformed or unexpected cluster protocol message."""


class ClusterMessageType:
    CONNECT = "seq_connect"
    CONNECT_OK = "seq_connect_ok"
    EXECUTE = "seq_execute"
    RESULT = "seq_result"
    ERROR = "seq_error"
    CLOSE = "seq_close"
    PING = "seq_ping"
    PONG = "seq_pong"
    # Controller-to-controller group communication.
    GROUP = "seq_group"
    # v3 session multiplexing: logical sessions over one channel.
    SESSION_OPEN = "seq_session_open"
    SESSION_OPEN_OK = "seq_session_open_ok"
    SESSION_CLOSE = "seq_session_close"
    # Controller HA: recovery-log replication (primary -> follower) and
    # peer status probes used during election. See docs/ha.md.
    REPLICATE = "seq_replicate"
    REPLICATE_OK = "seq_replicate_ok"
    HA_STATUS = "seq_ha_status"
    HA_STATUS_OK = "seq_ha_status_ok"


def make_connect(
    virtual_database: str, protocol_version: int, multiplex: bool = False, trace: bool = False
) -> Dict[str, Any]:
    """The driver's CONNECT. It names no one: the controller authenticates
    nobody, and each replica checks the credentials the controller's own
    backend connections present (docs/wire.md "Who may send what")."""
    message = {
        "type": ClusterMessageType.CONNECT,
        "virtual_database": virtual_database,
        "protocol_version": protocol_version,
    }
    if multiplex:
        message["multiplex"] = True
    if trace:
        message["trace"] = True
    return message


def make_connect_ok(
    controller_id: str,
    protocol_version: int,
    session_id: str,
    multiplexing: bool = False,
    tracing: bool = False,
) -> Dict[str, Any]:
    message = {
        "type": ClusterMessageType.CONNECT_OK,
        "controller_id": controller_id,
        "protocol_version": protocol_version,
        "session_id": session_id,
    }
    if multiplexing:
        message["multiplexing"] = True
    if tracing:
        message["tracing"] = True
    return message


def make_execute(
    sql: str,
    params: Optional[Dict[str, Any]] = None,
    session_id: Optional[str] = None,
    request_id: Optional[int] = None,
    trace_id: Optional[str] = None,
    begin: bool = False,
) -> Dict[str, Any]:
    message = {"type": ClusterMessageType.EXECUTE, "sql": sql, "params": params or {}}
    if session_id is not None:
        message["session_id"] = session_id
    if request_id is not None:
        message["request_id"] = request_id
    if trace_id is not None:
        message["trace_id"] = trace_id
    if begin:
        message["begin"] = True
    return message


def make_result(columns: List[str], rows: List[Any], rowcount: int) -> Dict[str, Any]:
    if not (isinstance(rows, list) and all(type(row) is list for row in rows)):
        # Only reshape rows that need it (tuples, generators, odd row
        # types); scheduler results already arrive as a list of lists and
        # re-copying every row dominated result encoding on large
        # SELECTs (see benchmarks/test_bench_overhead.py).
        rows = [list(row) for row in rows]
    return {
        "type": ClusterMessageType.RESULT,
        "columns": columns,
        "rows": rows,
        "rowcount": rowcount,
    }


def make_error(code: str, message: str) -> Dict[str, Any]:
    return {"type": ClusterMessageType.ERROR, "code": code, "message": message}


def attach_trace(message: Dict[str, Any], spans: Any) -> Dict[str, Any]:
    """Attach server-side spans to a RESULT/ERROR frame: a span list, or
    the controller's pre-serialised JSON string (one flat value through
    the frame codec; ``Trace.spans_from_wire`` accepts both).

    Deliberately separate from ``make_result``/``make_error`` so the
    untraced reply path — the overwhelmingly common one — keeps the
    ``make_result`` no-copy fast path."""
    if spans and spans != "[]":
        message["trace"] = spans
    return message


def make_session_open(session_id: str, request_id: int) -> Dict[str, Any]:
    return {
        "type": ClusterMessageType.SESSION_OPEN,
        "session_id": session_id,
        "request_id": request_id,
    }


def make_session_open_ok(session_id: str, request_id: int) -> Dict[str, Any]:
    return {
        "type": ClusterMessageType.SESSION_OPEN_OK,
        "session_id": session_id,
        "request_id": request_id,
    }


def make_session_close(session_id: str) -> Dict[str, Any]:
    return {"type": ClusterMessageType.SESSION_CLOSE, "session_id": session_id}


def correlate(
    message: Dict[str, Any], require_request_id: bool = True
) -> Tuple[str, Optional[int]]:
    """Validate and return a v3 frame's ``(session_id, request_id)``.

    Raises :class:`ClusterWireError` on a missing/ill-typed field instead
    of letting garbage flow into the session registries, where a
    malformed id would either hang the sender (its reply can never be
    matched) or poison a worker. ``require_request_id=False`` accepts
    frames that correlate by session only (SESSION_CLOSE)."""
    session_id = message.get("session_id")
    if not isinstance(session_id, str) or not session_id:
        raise ClusterWireError(
            f"malformed session_id {session_id!r} in {message.get('type')!r} frame"
        )
    request_id = message.get("request_id")
    if request_id is None:
        if require_request_id:
            raise ClusterWireError(
                f"missing request_id in {message.get('type')!r} frame"
            )
        return session_id, None
    # bool is an int subclass; a True request_id is a bug, not id 1.
    if (
        not isinstance(request_id, int)
        or isinstance(request_id, bool)
        or not 0 < request_id < _MAX_REQUEST_ID
    ):
        raise ClusterWireError(
            f"malformed request_id {request_id!r} in {message.get('type')!r} frame"
        )
    return session_id, request_id


def make_group(operation: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Controller group-communication envelope. Peer frames name no
    sender: the receiver reads it off ``Channel.remote_address``."""
    return {"type": ClusterMessageType.GROUP, "operation": operation, "payload": payload}


def make_replicate(
    epoch: int,
    entries: List[Dict[str, Any]],
    truncated_through: int,
    checkpoints: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Primary -> follower recovery-log replication frame.

    ``entries`` is the wire form of every retained log entry the primary
    believes the follower is missing (its indices are embedded, so the
    follower applies idempotently and reports gaps). ``truncated_through``
    mirrors the primary's compaction floor; ``checkpoints`` is the full
    live checkpoint-registry snapshot — small by construction (one row
    per named checkpoint), so shipping it whole every round is cheaper
    than a delta protocol and makes the follower's registry a pure
    function of the latest frame."""
    message = {
        "type": ClusterMessageType.REPLICATE,
        "epoch": epoch,
        "entries": entries,
        "truncated_through": truncated_through,
    }
    if checkpoints is not None:
        message["checkpoints"] = checkpoints
    return message


def make_replicate_ok(
    node_id: str, epoch: int, last_index: int, gap: bool = False
) -> Dict[str, Any]:
    """Follower ack: ``last_index`` is its log head after applying, which
    doubles as the backfill cursor when ``gap`` reports that the frame's
    first entry left a hole (primary resends from ``last_index``)."""
    message = {
        "type": ClusterMessageType.REPLICATE_OK,
        "node_id": node_id,
        "epoch": epoch,
        "last_index": last_index,
    }
    if gap:
        message["gap"] = True
    return message


def make_ha_status() -> Dict[str, Any]:
    """Election probe: ask a peer for its role/epoch/log head."""
    return {"type": ClusterMessageType.HA_STATUS}


def make_ha_status_ok(
    node_id: str, address: str, epoch: int, role: str, last_index: int
) -> Dict[str, Any]:
    return {
        "type": ClusterMessageType.HA_STATUS_OK,
        "node_id": node_id,
        "address": address,
        "epoch": epoch,
        "role": role,
        "last_index": last_index,
    }
