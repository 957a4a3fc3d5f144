"""Per-submission tracing for ``incprofd``.

Every snapshot submission gets a *trace id* — minted by the publisher
(:func:`repro.service.client.publish_samples`) or, for untraced
publishers, by the server on admission — that follows the interval
through the pipeline.  Each stage of :data:`~repro.service.metrics.STAGES`
adds a *span* (its wall time in seconds); the classify thread closes a
trace with all of them at once (see ``docs/OBSERVABILITY.md``).

The store is a bounded ring — a long-lived daemon answering ``trace``
requests must not grow without bound — and its rows are JSON-ready so
they ride along in checkpoints: after a crash-restart the daemon can
still answer "what happened to trace X" for recently completed work.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.service.metrics import STAGES
from repro.util.errors import ValidationError


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (collision-safe at fleet scale).

    Straight from ``os.urandom`` — same 64 bits of entropy as the
    ``uuid4`` slice this replaces at a fraction of the cost, which
    matters because the server mints one per untraced admission.
    """
    return os.urandom(8).hex()


class TraceRecord:
    """Span timings of one submission as it moved through the pipeline."""

    __slots__ = ("trace_id", "stream_id", "seq", "spans", "completed")

    def __init__(self, trace_id: str, stream_id: str, seq: int) -> None:
        self.trace_id = trace_id
        self.stream_id = stream_id
        self.seq = seq
        self.spans: Dict[str, float] = {}
        self.completed = False

    @property
    def total_seconds(self) -> float:
        return sum(self.spans.values())

    def row(self) -> Dict[str, Any]:
        """JSON-ready view (wire replies and checkpoints)."""
        return {
            "trace_id": self.trace_id,
            "stream_id": self.stream_id,
            "seq": self.seq,
            "spans": dict(self.spans),
            "total_seconds": self.total_seconds,
            "completed": self.completed,
        }


class TraceStore:
    """Thread-safe bounded ring of trace records, keyed by trace id.

    Reader threads begin traces; the classify thread adds every span and
    marks completion.  When the ring
    is full the oldest trace is evicted — recency is what an operator
    debugging a live daemon needs.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValidationError("trace store capacity must be positive")
        self.capacity = capacity
        self._records: "OrderedDict[str, TraceRecord]" = OrderedDict()
        self._lock = threading.Lock()
        self.started = 0
        self.finished = 0
        self.evicted = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def begin(self, trace_id: str, stream_id: str, seq: int) -> TraceRecord:
        """Register one submission; evicts the oldest trace when full."""
        record = TraceRecord(trace_id, stream_id, seq)
        with self._lock:
            self._records[trace_id] = record
            self._records.move_to_end(trace_id)
            self.started += 1
            while len(self._records) > self.capacity:
                self._records.popitem(last=False)
                self.evicted += 1
        return record

    def add_span(self, trace_id: str, stage: str, seconds: float) -> None:
        """Record one stage's wall time (unknown traces are ignored —
        the ring may have evicted them under sustained load)."""
        if stage not in STAGES:
            raise ValidationError(
                f"unknown trace stage {stage!r} (expected one of {STAGES})")
        with self._lock:
            record = self._records.get(trace_id)
            if record is not None:
                record.spans[stage] = record.spans.get(stage, 0.0) + seconds

    def finish_batch(
        self, items: List[Tuple[str, List[Tuple[str, float]]]],
    ) -> List[Optional[TraceRecord]]:
        """Add final spans and complete many traces under one lock.

        A coalesced classify tick closes out every interval it
        classified in a single call, so the trace store's lock is taken
        once per tick.  Span stages are validated exactly as
        :meth:`add_span`; an evicted trace yields ``None`` in its result
        slot (callers slow-op check the others).
        """
        for _trace_id, spans in items:
            for stage, _seconds in spans:
                if stage not in STAGES:
                    raise ValidationError(
                        f"unknown trace stage {stage!r} "
                        f"(expected one of {STAGES})")
        out: List[Optional[TraceRecord]] = []
        with self._lock:
            for trace_id, spans in items:
                record = self._records.get(trace_id)
                if record is not None:
                    for stage, seconds in spans:
                        record.spans[stage] = (
                            record.spans.get(stage, 0.0) + seconds)
                    if not record.completed:
                        record.completed = True
                        self.finished += 1
                out.append(record)
        return out

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, trace_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            record = self._records.get(trace_id)
            return record.row() if record is not None else None

    def rows(
        self,
        stream_id: Optional[str] = None,
        limit: Optional[int] = None,
        completed_only: bool = False,
    ) -> List[Dict[str, Any]]:
        """Most-recent-first trace rows, optionally filtered to a stream."""
        with self._lock:
            records = list(self._records.values())
        records.reverse()
        out: List[Dict[str, Any]] = []
        for record in records:
            if stream_id is not None and record.stream_id != stream_id:
                continue
            if completed_only and not record.completed:
                continue
            out.append(record.row())
            if limit is not None and len(out) >= limit:
                break
        return out

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "stored": len(self._records),
                "started": self.started,
                "finished": self.finished,
                "evicted": self.evicted,
            }

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def export_rows(self) -> List[Dict[str, Any]]:
        """Oldest-first JSON rows for a checkpoint payload."""
        with self._lock:
            return [r.row() for r in self._records.values()]

    def restore_rows(self, rows: List[Dict[str, Any]]) -> int:
        """Reinstall checkpointed traces (ignores malformed rows)."""
        restored = 0
        for obj in rows:
            if not isinstance(obj, dict):
                continue
            try:
                trace_id = str(obj["trace_id"])
                record = TraceRecord(trace_id, str(obj.get("stream_id", "")),
                                     int(obj.get("seq", -1)))
                spans = obj.get("spans") or {}
                record.spans = {str(k): float(v) for k, v in spans.items()
                                if str(k) in STAGES}
                record.completed = bool(obj.get("completed", False))
            except (KeyError, TypeError, ValueError):
                continue
            with self._lock:
                self._records[trace_id] = record
                self._records.move_to_end(trace_id)
                while len(self._records) > self.capacity:
                    self._records.popitem(last=False)
            restored += 1
        return restored
