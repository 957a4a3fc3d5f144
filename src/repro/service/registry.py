"""Stream lifecycle for ``incprofd``.

One *stream* is one publisher — a rank, node, or synthetic load thread.
The registry owns per-stream state (its online tracker, ingest counters,
sequence tracking) and the lifecycle: streams register with a ``hello``,
stay alive as long as traffic (or explicit touches) arrive, and are
expired when idle longer than the configured timeout — exactly the LDMS
aggregator behaviour of dropping metric sets whose node went silent.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.core.online import OnlinePhaseTracker
from repro.util.errors import (
    ServiceError,
    StreamConflictError,
    UnknownStreamError,
    ValidationError,
)


class StreamState:
    """Everything the service knows about one publisher stream.

    The ``queue`` attribute is attached by the server (the registry is
    transport-agnostic); counter updates take the per-stream lock so the
    reader thread and the classify thread can update concurrently.
    """

    def __init__(
        self,
        stream_id: str,
        app: str,
        rank: int,
        now: float,
        tracker: Optional[OnlinePhaseTracker] = None,
    ) -> None:
        self.stream_id = stream_id
        self.app = app
        self.rank = rank
        self.tracker = tracker
        self.connected_at = now
        self.last_seen = now
        self.lock = threading.Lock()
        #: Held by the classify thread for one whole batch and by the
        #: checkpointer while snapshotting — a checkpoint never observes
        #: a stream with its differencer advanced but history not yet
        #: appended.
        self.work_lock = threading.Lock()
        self.queue: Any = None  # BoundedStreamQueue, attached by the server
        self.scheduled = False  # ready-queue scheduling flag (server-owned)
        self.closed = False
        self.last_seq = -1
        #: Highest sequence number actually consumed by the classify thread
        #: (differenced/classified) — the resume anchor a checkpoint
        #: records, as opposed to ``last_seq`` which is merely admitted.
        self.processed_seq = -1
        self.seq_gaps = 0
        self.enqueued = 0
        self.processed = 0
        self.novel = 0
        self.dropped_oldest = 0
        self.rejected = 0
        self.heartbeats = 0
        #: Live model refits this stream's tracker has performed.
        self.refits = 0

    # ------------------------------------------------------------------
    def touch(self, now: float) -> None:
        with self.lock:
            self.last_seen = now

    def note_sequence(self, seq: int) -> None:
        """Track the publisher's interval index; count gaps (lost dumps)."""
        with self.lock:
            if self.last_seq >= 0 and seq > self.last_seq + 1:
                self.seq_gaps += seq - self.last_seq - 1
            self.last_seq = max(self.last_seq, seq)

    def admit_sequence(self, seq: int, now: float) -> bool:
        """Touch, duplicate-check, and sequence-track in one lock trip.

        The admission fast path runs this once per snapshot instead of
        three separate lock acquisitions.  Returns ``False`` when
        ``seq`` is already admitted (``seq <= last_seq``) — the caller
        acks the duplicate without enqueuing; the stream still counts
        as seen either way.
        """
        with self.lock:
            self.last_seen = now
            if seq <= self.last_seq:
                return False
            if self.last_seq >= 0 and seq > self.last_seq + 1:
                self.seq_gaps += seq - self.last_seq - 1
            self.last_seq = seq
            return True

    @property
    def lag(self) -> int:
        """Intervals accepted but not yet classified."""
        with self.lock:
            return max(0, self.enqueued - self.processed - self.dropped_oldest)

    def phase_sequence(self) -> List[int]:
        return self.tracker.phase_sequence() if self.tracker else []

    def info(self, now: float) -> Dict[str, Any]:
        """JSON-ready per-stream status row."""
        with self.lock:
            row = {
                "stream_id": self.stream_id,
                "app": self.app,
                "rank": self.rank,
                "connected_at": self.connected_at,
                "idle_seconds": max(0.0, now - self.last_seen),
                "last_seq": self.last_seq,
                "processed_seq": self.processed_seq,
                "seq_gaps": self.seq_gaps,
                "enqueued": self.enqueued,
                "processed": self.processed,
                "novel": self.novel,
                "dropped_oldest": self.dropped_oldest,
                "rejected": self.rejected,
                "heartbeats": self.heartbeats,
                "refits": self.refits,
                "closed": self.closed,
            }
        row["lag"] = max(0, row["enqueued"] - row["processed"] - row["dropped_oldest"])
        if self.tracker is not None:
            row["phase_counts"] = {str(k): v for k, v in self.tracker.phase_counts().items()}
            row["model_version"] = getattr(self.tracker, "model_version", 0)
        return row


class StreamRegistry:
    """Thread-safe registry of live (and recently finished) streams."""

    def __init__(
        self,
        idle_timeout: float = 30.0,
        clock=time.monotonic,
        finished_capacity: int = 64,
    ) -> None:
        if idle_timeout <= 0:
            raise ValidationError("idle timeout must be positive")
        if finished_capacity < 1:
            raise ValidationError("finished capacity must be positive")
        self.idle_timeout = idle_timeout
        self.finished_capacity = finished_capacity
        self._clock = clock
        self._lock = threading.Lock()
        self._streams: Dict[str, StreamState] = {}
        self._finished: Deque[Dict[str, Any]] = deque(maxlen=finished_capacity)
        self.registered = 0
        self.expired = 0
        #: Finished-stream rows evicted by the drop-oldest cap — the
        #: counter that makes the bounded ring's loss *visible* instead
        #: of silently shrinking fleet occupancy history.
        self.finished_evicted = 0
        #: Optional hook invoked (outside the registry lock) with each
        #: StreamState leaving the active set — both orderly ``close``
        #: and idle expiry.  The server uses it to retain a final phase
        #: signature for fleet analytics after the tracker is gone.
        self.on_close: Optional[Callable[[StreamState], None]] = None

    def _note_finished_locked(self, row: Dict[str, Any]) -> None:
        """Append to the finished ring, counting drop-oldest evictions."""
        if len(self._finished) >= self.finished_capacity:
            self.finished_evicted += 1
        self._finished.append(row)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def register(
        self,
        stream_id: str,
        app: str = "",
        rank: int = 0,
        tracker: Optional[OnlinePhaseTracker] = None,
    ) -> StreamState:
        if not stream_id:
            raise ServiceError("stream id must be non-empty")
        now = self._clock()
        with self._lock:
            if stream_id in self._streams:
                raise StreamConflictError(
                    f"stream {stream_id!r} is already registered")
            state = StreamState(stream_id, app, rank, now, tracker)
            self._streams[stream_id] = state
            self.registered += 1
            return state

    def adopt(self, state: StreamState) -> StreamState:
        """Install a restored stream (checkpoint recovery), replacing any."""
        state.touch(self._clock())
        with self._lock:
            if state.stream_id not in self._streams:
                self.registered += 1
            self._streams[state.stream_id] = state
        return state

    def get(self, stream_id: str) -> StreamState:
        state = self.get_or_none(stream_id)
        if state is None:
            raise UnknownStreamError(
                f"unknown stream {stream_id!r} (hello first?)")
        return state

    def get_or_none(self, stream_id: str) -> Optional[StreamState]:
        with self._lock:
            return self._streams.get(stream_id)

    def touch(self, stream_id: str) -> None:
        self.get(stream_id).touch(self._clock())

    def now(self) -> float:
        """The registry's clock reading (injectable in tests)."""
        return self._clock()

    def close(self, stream_id: str) -> Optional[StreamState]:
        """Remove a stream on orderly shutdown; keep its final stats."""
        with self._lock:
            state = self._streams.pop(stream_id, None)
        if state is not None:
            state.closed = True
            row = state.info(self._clock())
            with self._lock:
                self._note_finished_locked(row)
            if self.on_close is not None:
                self.on_close(state)
        return state

    def expire_idle(self, now: Optional[float] = None) -> List[str]:
        """Expire every stream idle longer than the timeout; return ids."""
        now = self._clock() if now is None else now
        with self._lock:
            stale = [sid for sid, s in self._streams.items()
                     if now - s.last_seen > self.idle_timeout]
            expired = [self._streams.pop(sid) for sid in stale]
        for state in expired:
            state.closed = True
            row = state.info(now)
            with self._lock:
                self._note_finished_locked(row)
            if self.on_close is not None:
                self.on_close(state)
        self.expired += len(expired)
        return [s.stream_id for s in expired]

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def finished_rows(self) -> List[Dict[str, Any]]:
        """The finished-stream ring as JSON-ready rows (for checkpoints)."""
        with self._lock:
            return list(self._finished)

    def restore_finished(self, rows: List[Dict[str, Any]],
                         registered: int = 0, expired: int = 0,
                         finished_evicted: int = 0) -> None:
        """Reinstall the finished ring and lifetime counters on recovery.

        A checkpoint written under a larger cap may carry more rows than
        this registry keeps; the overflow is dropped oldest-first and
        counted as evictions, never silently truncated.
        """
        with self._lock:
            self._finished.clear()
            overflow = max(0, len(rows) - self.finished_capacity)
            self._finished.extend(rows[overflow:])
            self.finished_evicted = finished_evicted + overflow
        self.registered = registered
        self.expired = expired

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def active(self) -> List[StreamState]:
        with self._lock:
            return list(self._streams.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._streams)

    def fleet_status(self) -> Dict[str, Any]:
        """Aggregated fleet view: per-stream rows + cross-stream occupancy.

        Occupancy spans live streams *and* the finished ring, so a
        dashboard polled right after a fleet drains still sees where the
        intervals went.
        """
        now = self._clock()
        streams = [state.info(now) for state in self.active()]
        with self._lock:
            finished = list(self._finished)
        occupancy: Dict[str, int] = {}
        for row in streams + finished:
            for phase, count in row.get("phase_counts", {}).items():
                occupancy[phase] = occupancy.get(phase, 0) + count
        total = sum(occupancy.values())
        return {
            "streams": sorted(streams, key=lambda r: r["stream_id"]),
            "n_streams": len(streams),
            "registered_total": self.registered,
            "expired_total": self.expired,
            "phase_occupancy": {
                phase: {"intervals": count,
                        "share": count / total if total else 0.0}
                for phase, count in sorted(occupancy.items())
            },
            "total_lag": sum(row["lag"] for row in streams),
            "novel_total": sum(row["novel"] for row in streams + finished),
            "finished": finished,
        }
