"""The harness's own spans: one record per call into a layer's public
function, timed from outside, kept in memory and written out when the run
ends (README.md, "Reading the span dump")."""

from __future__ import annotations

import json
import os
from typing import Any, List, Optional, Tuple

#: (name, start, end, parent, op_id); times are time.perf_counter() seconds.
SpanRecord = Tuple[str, float, float, Optional[str], Optional[int]]


class SpanRecorder:
    """In-memory span sink. ``current_op`` names the operation being replayed
    so that calls made on other threads (a broadcast's per-replica tasks)
    land under the same ``op_id`` as the span that caused them."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self.current_op: Optional[int] = None

    def add(self, name: str, start: float, end: float, parent: Optional[str] = None) -> None:
        # list.append is atomic under the GIL: pool threads record child
        # spans without a lock.
        self.spans.append((name, start, end, parent, self.current_op))

    def dump(self, path: str, **header: Any) -> None:
        """One JSON object per line: a header line, then one line per span."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header, "spans": len(self.spans)}) + "\n")
            for name, start, end, parent, op_id in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op_id": op_id}
                    )
                    + "\n"
                )
