"""Per-statement tracing: where did this statement's time go?

The controller is the one vantage point that sees a statement end to
end — queue wait on the multiplexed FIFO, classification, cache lookup,
lock wait, per-replica backend execution, batch-rider wait, log append,
group-commit fsync wait. A :class:`Trace` collects those stages as
:class:`Span` records against one monotonic clock so they can be summed,
compared against the driver-observed latency, exported over the wire
(``Trace.to_wire``) and fed to the slow-query log.

Design constraints, in order:

1. **Zero cost when off.** With ``ControllerConfig.tracing`` unset every
   producer is handed :data:`NULL_TRACE`, whose methods do and allocate
   nothing — so producers call ``trace.span()/begin()/end()/record()``
   unconditionally instead of forking on "is tracing on". The statement
   path constructs no :class:`Trace` at all (asserted by tests).
2. **Thread-safe appends.** Spans are recorded from the mux reader
   thread, the controller's run-queue workers and the write-batch
   leader; ``Trace`` serialises appends under one lock.
3. **Flat storage, tree views.** Spans carry a ``parent`` *name* rather
   than object references, so a trace serialises to a flat list of
   compact records and :meth:`Trace.tree` rebuilds the hierarchy for
   display.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from typing import Any, Dict, List, Optional

__all__ = ["NULL_TRACE", "Span", "Trace"]


def _wire_str(value: str) -> str:
    """JSON-quote a string, skipping the escape machinery for the
    identifier-ish names/keys the span producers emit (the common case);
    anything needing escapes falls back to :func:`json.dumps`."""
    if '"' in value or "\\" in value or not value.isprintable():
        return json.dumps(value)
    return f'"{value}"'


#: Quoted-form memo for span names, parents and attr keys — a small
#: fixed vocabulary (stage names, ``replica:<backend>``) hit on every
#: traced statement. Attr *values* are not memoised: some (trace ids)
#: are unbounded. The size cap makes a pathological producer degrade to
#: uncached quoting rather than grow the memo forever.
_QUOTED_CACHE: Dict[str, str] = {}


def _quoted_name(value: str) -> str:
    cached = _QUOTED_CACHE.get(value)
    if cached is None:
        cached = _wire_str(value)
        if len(_QUOTED_CACHE) < 4096:
            _QUOTED_CACHE[value] = cached
    return cached


def _attrs_json(attrs: Dict[str, Any]) -> str:
    """Hand-serialised attrs dict (bools/numbers/strings dominate;
    anything else goes through ``json.dumps`` with ``str`` fallback)."""
    items = []
    for key, value in attrs.items():
        if value is True:
            encoded = "true"
        elif value is False:
            encoded = "false"
        elif isinstance(value, str):
            encoded = _wire_str(value)
        elif isinstance(value, (int, float)):
            encoded = repr(value)
        elif value is None:
            encoded = "null"
        else:
            encoded = json.dumps(value, separators=(",", ":"), default=str)
        items.append(f"{_quoted_name(key)}:{encoded}")
    return "{" + ",".join(items) + "}"


class Span:
    """One timed stage of a traced statement.

    ``start``/``end`` are offsets in seconds from the owning trace's
    epoch (so wire serialisation is origin-independent); ``attrs`` carry
    stage detail such as the lock scope kind or the executing backend.
    """

    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_wire(self) -> List[Any]:
        """Compact record ``[name, start_ms, duration_ms, parent?, attrs?]``
        with trailing defaults omitted. Spans ride every traced RESULT
        frame, so the wire shape avoids repeating dict keys per span —
        serialisation cost is part of the tracing-overhead budget gated
        by ``benchmarks/test_bench_overhead.py``."""
        record: List[Any] = [
            self.name,
            round(self.start * 1000.0, 3),
            round(self.duration * 1000.0, 3),
        ]
        if self.parent is not None or self.attrs:
            record.append(self.parent)
        if self.attrs:
            record.append(self.attrs)
        return record

    @classmethod
    def from_wire(cls, message: Any) -> "Span":
        name = str(message[0]) if message else "?"
        start = float(message[1]) / 1000.0 if len(message) > 1 else 0.0
        duration = float(message[2]) / 1000.0 if len(message) > 2 else 0.0
        parent = message[3] if len(message) > 3 else None
        attrs = dict(message[4]) if len(message) > 4 else {}
        return cls(name, start, start + duration, parent=parent, attrs=attrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration * 1000:.3f}ms, parent={self.parent!r})"


class _OpenSpan:
    __slots__ = ("name", "parent", "started", "attrs")

    def __init__(self, name: str, parent: Optional[str], started: float, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.parent = parent
        self.started = started
        self.attrs = attrs


class Trace:
    """The span collection of one statement.

    The trace's epoch is its construction time (monotonic). The root
    span ``server`` covers construction to :meth:`finish`; every other
    span defaults to being its child. Producers either use the
    :meth:`span` context manager (same-thread stages) or the explicit
    :meth:`begin`/:meth:`end` pair (stages that start on one thread and
    finish on another, like the mux queue wait), or :meth:`record` with
    raw monotonic timestamps (stages timed by someone else, like the
    broadcaster's per-replica workers).
    """

    ROOT = "server"

    def __init__(
        self,
        trace_id: Optional[str] = None,
        clock=time.monotonic,
        wire_requested: bool = False,
    ) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex
        #: Whether the client asked for the spans back on its reply frame
        #: (it sent a ``trace_id``); server-only traces keep the reply
        #: byte-identical to the untraced one.
        self.wire_requested = wire_requested
        self._clock = clock
        self._epoch = clock()
        self._finished: Optional[float] = None
        self._lock = threading.Lock()
        #: Closed spans as raw ``(name, start, end, parent, attrs|None)``
        #: tuples — producers run once per stage per statement, so they
        #: append a tuple instead of constructing a :class:`Span`; the
        #: view methods materialise Span objects on demand.
        self._spans: List[tuple] = []
        self._open: Dict[str, _OpenSpan] = {}
        self.attrs: Dict[str, Any] = {}

    # -- clock -------------------------------------------------------------------

    def _now(self) -> float:
        return self._clock() - self._epoch

    @property
    def total(self) -> float:
        """Root duration: construction to finish (or to now while open)."""
        if self._finished is not None:
            return self._finished
        return self._now()

    # -- span production ---------------------------------------------------------

    def begin(self, name: str, parent: Optional[str] = None, **attrs: Any) -> None:
        """Open a span; finish it later (possibly from another thread)
        with :meth:`end`. Re-opening an already-open name restarts it."""
        started = self._now()
        with self._lock:
            self._open[name] = _OpenSpan(name, parent, started, attrs)

    def end(self, name: str, **attrs: Any) -> None:
        """Close a span opened with :meth:`begin`; unknown names no-op so
        producers need no bookkeeping about whether tracing was on when
        the stage started."""
        ended = self._now()
        with self._lock:
            open_span = self._open.pop(name, None)
            if open_span is None:
                return
            if open_span.attrs:
                # The open record is discarded here, so its attrs dict can
                # be reused as the merge target instead of copied.
                open_span.attrs.update(attrs)
                attrs = open_span.attrs
            self._spans.append(
                (name, open_span.started, ended, open_span.parent, attrs or None)
            )

    def span(self, name: str, parent: Optional[str] = None, **attrs: Any):
        """Context manager for a same-thread stage."""
        return _SpanContext(self, name, parent, attrs)

    def record(
        self,
        name: str,
        started: float,
        ended: float,
        parent: Optional[str] = None,
        **attrs: Any,
    ) -> None:
        """Record a span from raw ``time.monotonic()`` readings taken by
        the producer (e.g. a broadcaster worker thread)."""
        with self._lock:
            self._spans.append(
                (name, started - self._epoch, ended - self._epoch, parent, attrs or None)
            )

    def annotate(self, **attrs: Any) -> None:
        """Attach trace-level attributes (statement command, session...)."""
        with self._lock:
            self.attrs.update(attrs)

    def finish(self) -> float:
        """Seal the trace; returns its total duration. Idempotent."""
        with self._lock:
            if self._finished is None:
                self._finished = self._now()
                # Abandoned open spans (a producer that raised mid-stage)
                # close at finish time so the trace still accounts them.
                for open_span in self._open.values():
                    self._spans.append(
                        (
                            open_span.name,
                            open_span.started,
                            self._finished,
                            open_span.parent,
                            dict(open_span.attrs, unfinished=True),
                        )
                    )
                self._open.clear()
            return self._finished

    # -- views -------------------------------------------------------------------

    def spans(self) -> List[Span]:
        with self._lock:
            records = list(self._spans)
        return [
            Span(name, start, end, parent=parent, attrs=attrs)
            for name, start, end, parent, attrs in records
        ]

    def find(self, name: str) -> Optional[Span]:
        for span in self.spans():
            if span.name == name:
                return span
        return None

    def stage_seconds(self) -> Dict[str, float]:
        """Total seconds per top-level stage (spans with no parent),
        summing repeats (e.g. a retried lock acquisition)."""
        stages: Dict[str, float] = {}
        with self._lock:
            records = list(self._spans)
        for name, start, end, parent, _attrs in records:
            if parent is None:
                stages[name] = stages.get(name, 0.0) + max(0.0, end - start)
        return stages

    def tree(self) -> List[Dict[str, Any]]:
        """The span forest: top-level stages with nested ``children``."""
        spans = self.spans()
        nodes = []
        by_name: Dict[str, Dict[str, Any]] = {}
        for span in spans:
            node = {
                "name": span.name,
                "start": span.start,
                "duration": span.duration,
                "attrs": dict(span.attrs),
                "children": [],
            }
            by_name.setdefault(span.name, node)
            nodes.append((span, node))
        roots: List[Dict[str, Any]] = []
        for span, node in nodes:
            parent = by_name.get(span.parent) if span.parent else None
            if parent is not None and parent is not node:
                parent["children"].append(node)
            else:
                roots.append(node)
        return roots

    # -- wire --------------------------------------------------------------------

    def to_wire(self) -> List[List[Any]]:
        return [span.to_wire() for span in self.spans()]

    def to_wire_json(self) -> str:
        """The span list pre-serialised to one JSON string.

        Riding the RESULT frame as a single string keeps the frame
        codec's per-value recursion off the traced hot path: the codec
        escapes one flat string instead of walking every span's nested
        attrs, and the driver defers parsing to
        :meth:`spans_from_wire` — i.e. until someone actually looks at
        the trace, which is never inside the statement latency loop.

        Built by hand rather than via ``json.dumps(self.to_wire())``:
        span names and parents are identifier-ish strings and the
        timings are plain floats, so direct formatting skips the
        generic encoder's per-element dispatch (~3x faster on a
        typical 8-span trace — this runs once per traced statement
        and is part of the gated overhead budget)."""
        with self._lock:
            records = list(self._spans)
        parts: List[str] = []
        for name, start, end, parent, attrs in records:
            duration = end - start
            if duration < 0.0:
                duration = 0.0
            head = (
                f"[{_quoted_name(name)},"
                f"{start * 1000.0:.3f},{duration * 1000.0:.3f}"
            )
            if attrs:
                parts.append(
                    f"{head},"
                    f"{'null' if parent is None else _quoted_name(parent)},"
                    f"{_attrs_json(attrs)}]"
                )
            elif parent is not None:
                parts.append(f"{head},{_quoted_name(parent)}]")
            else:
                parts.append(head + "]")
        return f"[{','.join(parts)}]"

    @staticmethod
    def spans_from_wire(messages: Any) -> List[Span]:
        """Spans from a reply frame's ``trace`` value: a pre-serialised
        JSON string (the controller's shape), or an already-parsed list
        of compact records."""
        if isinstance(messages, str):
            messages = json.loads(messages) if messages else []
        return [Span.from_wire(message) for message in messages or []]


class _SpanContext:
    __slots__ = ("_trace", "_name", "_parent", "_attrs", "_started")

    def __init__(self, trace: Trace, name: str, parent: Optional[str], attrs: Dict[str, Any]) -> None:
        self._trace = trace
        self._name = name
        self._parent = parent
        self._attrs = attrs

    def __enter__(self) -> "_SpanContext":
        self._started = self._trace._now()
        return self

    def set(self, **attrs: Any) -> None:
        self._attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> None:
        ended = self._trace._now()
        if exc_type is not None:
            self._attrs.setdefault("error", exc_type.__name__)
        with self._trace._lock:
            self._trace._spans.append(
                (self._name, self._started, ended, self._parent, self._attrs or None)
            )


class _NullTrace:
    """The producer surface of :class:`Trace` with every method a no-op;
    ``span()`` hands back the object itself as a context manager that
    enters, ``set()``s and exits to no effect (never swallowing the
    exception).

    One shared instance, :data:`NULL_TRACE`, stands in for "tracing is
    off" everywhere a trace is threaded through the statement path, so
    the off case costs a method call per stage and no allocation or
    lock. It has no view/wire surface on purpose: nothing may finish or
    export it — ``Controller._finish_trace`` is the one place that
    checks for it."""

    __slots__ = ()

    trace_id: Optional[str] = None

    def begin(self, *args: Any, **attrs: Any) -> None:
        pass

    end = record = annotate = set = begin

    def span(self, *args: Any, **attrs: Any) -> "_NullTrace":
        return self

    def __enter__(self) -> "_NullTrace":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: Built once at import — never a ``Trace()`` call.
NULL_TRACE = _NullTrace()
