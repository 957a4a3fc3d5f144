"""Service self-metrics for ``incprofd``.

The daemon measures itself the way it measures applications: counters
plus per-interval style summaries.  Everything here is thread-safe —
reader threads, the classify thread, and the stats endpoint all touch
the same object concurrently.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.util.errors import ValidationError

#: The daemon's pipeline stages: the one vocabulary of the stage ledger
#: (``stats()["stages"]``), the trace spans and the self-heartbeat sites
#: (id = index + 1).  New stages go at the end so existing ids keep their
#: meaning, which is why ``dequeue`` follows ``archive``.
STAGES = ("enqueue", "difference", "classify", "aggregate", "archive",
          "dequeue")


class StageClock:
    """The lap clock of one classify tick.

    Each :meth:`lap` charges the wall time since the previous lap (or
    since the tick began) to one stage, so a tick's stages cover it with
    no gap and no overlap.  :meth:`charge` adds time measured from
    stamps: the ``enqueue`` and ``dequeue`` waits the classify thread
    derives from each queue entry.  The totals then feed every sink once.
    """

    __slots__ = ("start", "seconds", "items", "_mark")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.items: Dict[str, int] = {}
        self.start = self._mark = time.perf_counter()

    def charge(self, stage: str, seconds: float, items: int) -> None:
        self.seconds[stage] = self.seconds.get(stage, 0.0) + seconds
        self.items[stage] = self.items.get(stage, 0) + items

    def lap(self, stage: str, items: int) -> None:
        now = time.perf_counter()
        self.charge(stage, now - self._mark, items)
        self._mark = now


class LatencyWindow:
    """A bounded sliding window of latency observations (seconds).

    Percentiles are computed over the most recent ``capacity``
    observations — a long-lived daemon must not accumulate an unbounded
    sample list just to answer a stats query.
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValidationError("latency window capacity must be positive")
        self._window: Deque[float] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.observed = 0

    def record_many(self, seconds: float, count: int) -> None:
        """Record ``count`` identical observations under one lock."""
        if count <= 0:
            return
        with self._lock:
            self._window.extend([seconds] * count)
            self.observed += count

    def values(self) -> list:
        """The raw window as a list (for exact cross-worker merging).

        A fleet router cannot compute an exact merged p99 from
        per-worker percentiles — quantiles do not compose.  Shipping the
        bounded raw window (a few thousand floats) lets the router take
        percentiles over the *union* instead of approximating.
        """
        with self._lock:
            return list(self._window)

    @staticmethod
    def percentile_key(q: float) -> str:
        """``0.5 -> "p50"``, ``0.999 -> "p99.9"``, ``1.0 -> "p100"``.

        Fractional quantiles keep their fraction: rounding 0.999 to an
        integer percent would render ``p100`` and collide with (and
        shadow) q = 1.0, the true maximum.
        """
        return f"p{round(q * 100, 6):g}"

    def percentiles(
        self, qs: Sequence[float] = (0.5, 0.9, 0.99, 0.999)
    ) -> Dict[str, float]:
        """``{"p50": ..., "p99.9": ...}`` over the current window (empty: zeros)."""
        with self._lock:
            sample = list(self._window)
        out: Dict[str, float] = {}
        for q in qs:
            out[self.percentile_key(q)] = (
                float(np.quantile(sample, q)) if sample else 0.0)
        return out


class ServiceMetrics:
    """Counters + derived rates for the whole service.

    ``ingested`` counts messages accepted into a queue; ``processed``
    counts intervals actually classified; the difference across all
    streams is the fleet's total lag.  Drop counters are split by
    backpressure policy outcome so a stats reader can tell "the queue
    shed load" (``dropped_oldest``) from "the client was pushed back"
    (``rejected``).
    """

    def __init__(self, clock=time.monotonic, latency_capacity: int = 2048) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self.ingested = 0
        self.processed = 0
        self.novel = 0
        self.dropped_oldest = 0
        self.rejected = 0
        self.protocol_errors = 0
        self.ingest_errors = 0
        #: Classify ticks that raised (their intervals count in
        #: ``ingest_errors``).
        self.classify_failures = 0
        self.heartbeats = 0
        self.connections = 0
        self.faults_injected = 0
        self.checkpoints_written = 0
        self.refits = 0
        self.wrong_worker = 0
        self.classify_latency = LatencyWindow(latency_capacity)
        self.stages: Dict[str, Dict[str, float]] = {}
        self._first_ingest: Optional[float] = None
        self._last_process: Optional[float] = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def note_connection(self) -> None:
        with self._lock:
            self.connections += 1

    def note_ingested(self, n: int = 1) -> None:
        with self._lock:
            self.ingested += n
            if self._first_ingest is None:
                self._first_ingest = self._clock()

    def note_processed_batch(self, count: int, novel: int,
                             latency: float) -> None:
        """``count`` classified intervals, ``novel`` of them novel.

        ``latency`` is the per-item share of the tick, recorded once per
        item in the latency window.
        """
        if count <= 0:
            return
        with self._lock:
            self.processed += count
            self.novel += novel
            self._last_process = self._clock()
        self.classify_latency.record_many(latency, count)

    def note_dropped_oldest(self, n: int = 1) -> None:
        with self._lock:
            self.dropped_oldest += n

    def note_rejected(self, n: int = 1) -> None:
        with self._lock:
            self.rejected += n

    def note_protocol_error(self) -> None:
        with self._lock:
            self.protocol_errors += 1

    def note_ingest_error(self, n: int = 1) -> None:
        with self._lock:
            self.ingest_errors += n

    def note_classify_failure(self) -> None:
        """One classify tick raised; the classify thread carried on."""
        with self._lock:
            self.classify_failures += 1

    def note_heartbeats(self, n: int) -> None:
        with self._lock:
            self.heartbeats += n

    def note_fault_injected(self) -> None:
        with self._lock:
            self.faults_injected += 1

    def note_checkpoint(self) -> None:
        with self._lock:
            self.checkpoints_written += 1

    def note_refit(self) -> None:
        """One live model refit (any stream) hot-swapped a new version."""
        with self._lock:
            self.refits += 1

    def note_wrong_worker(self) -> None:
        """One request refused because the ring assigns the stream away."""
        with self._lock:
            self.wrong_worker += 1

    def note_stages(self, seconds: Dict[str, float],
                    items: Dict[str, int]) -> None:
        """One classify tick's stage totals (a :class:`StageClock`'s).

        Each stage's tick total is one measurement: ``calls`` counts
        them, ``min`` and ``max`` keep the shortest and longest, and
        ``items`` sums the intervals (or profiles, or appends) each
        stage handled.
        """
        with self._lock:
            for stage, secs in seconds.items():
                rec = self.stages.get(stage)
                if rec is None:
                    rec = self.stages[stage] = {
                        "calls": 0, "items": 0, "seconds": 0.0,
                        "min": secs, "max": secs}
                rec["calls"] += 1
                rec["items"] += items.get(stage, 0)
                rec["seconds"] += secs
                rec["min"] = min(rec["min"], secs)
                rec["max"] = max(rec["max"], secs)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def total_drops(self) -> int:
        return self.dropped_oldest + self.rejected

    def _elapsed_locked(self) -> float:
        """Seconds from first ingest to last classify; caller holds the lock."""
        if self._first_ingest is None or self._last_process is None:
            return 0.0
        return max(0.0, self._last_process - self._first_ingest)

    def _ingest_rate_locked(self) -> float:
        elapsed = self._elapsed_locked()
        if elapsed <= 0:
            return float(self.processed) if self._last_process is not None else 0.0
        return self.processed / elapsed

    def ingest_rate(self) -> float:
        """Processed intervals per second, first ingest to last classify."""
        with self._lock:
            return self._ingest_rate_locked()

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-ready view of every counter and derived rate.

        The whole snapshot — counters *and* the rate derived from them —
        is composed under a single lock acquisition, so ``ingest_rate``
        is always consistent with the ``processed``/``elapsed`` values in
        the same snapshot.  (Reading the rate after releasing the lock
        would let a concurrent ``note_processed_batch`` slip in between, making
        a stats reply disagree with itself under load.)
        """
        with self._lock:
            elapsed = self._elapsed_locked()
            snap: Dict[str, Any] = {
                "ingested": self.ingested,
                "processed": self.processed,
                "novel": self.novel,
                "dropped_oldest": self.dropped_oldest,
                "rejected": self.rejected,
                "drops": self.dropped_oldest + self.rejected,
                "protocol_errors": self.protocol_errors,
                "ingest_errors": self.ingest_errors,
                "classify_failures": self.classify_failures,
                "heartbeats": self.heartbeats,
                "connections": self.connections,
                "faults_injected": self.faults_injected,
                "checkpoints_written": self.checkpoints_written,
                "refits": self.refits,
                "wrong_worker": self.wrong_worker,
                "elapsed": elapsed,
                "ingest_rate": self._ingest_rate_locked(),
                "stages": {name: dict(rec)
                           for name, rec in self.stages.items()},
            }
        # The latency window has its own lock and no invariant tying it
        # to the counters; percentiles are taken right after.
        snap["classify_latency"] = self.classify_latency.percentiles()
        # One worker's percentiles are computed over its own window, so
        # they are exact; merged fleet views relabel this (see
        # :func:`aggregate_worker_stats`) because quantiles of quantiles
        # are not quantiles.
        snap["classify_latency_source"] = {
            "kind": "exact",
            "observed": self.classify_latency.observed,
        }
        return snap


# ----------------------------------------------------------------------
# fleet-level merging
# ----------------------------------------------------------------------

#: stats() keys that sum across workers in a merged fleet view.
_MERGE_SUM_KEYS = (
    "ingested", "processed", "novel", "dropped_oldest", "rejected",
    "drops", "protocol_errors", "ingest_errors", "classify_failures",
    "heartbeats", "connections", "faults_injected", "checkpoints_written",
    "refits", "wrong_worker", "streams", "queued_total", "ldms_delivered",
    "restored_streams", "finished_evicted", "ingest_rate",
)

_MERGE_QS = (0.5, 0.9, 0.99, 0.999)


def merged_latency_percentiles(
    windows: Sequence[Sequence[float]],
    qs: Sequence[float] = _MERGE_QS,
) -> Dict[str, float]:
    """Exact percentiles over the union of per-worker latency windows."""
    sample = [v for window in windows for v in window]
    return {
        LatencyWindow.percentile_key(q):
            (float(np.quantile(sample, q)) if sample else 0.0)
        for q in qs
    }


def aggregate_worker_stats(
    worker_stats: Dict[str, Dict[str, Any]],
) -> Dict[str, Any]:
    """Merge per-worker ``stats()`` snapshots into one fleet view.

    Counters and rates sum; queue depths union; each stage's totals
    sum while its ``min`` and ``max`` merge by min and max.
    ``classify_latency`` is the delicate part: when every worker shipped
    its raw ``latency_window`` the merged percentiles are *exact* over
    the union and labelled ``{"kind": "merged-window"}``; otherwise the
    merge falls back to the per-key maximum — a valid upper bound, but
    approximate — and says so with ``{"kind": "merged-upper-bound"}``.
    Dashboards must be able to tell those apart (a "p99" that is really
    max-of-p99s overstates tail latency on skewed fleets).
    """
    merged: Dict[str, Any] = {key: 0 for key in _MERGE_SUM_KEYS}
    merged["queue_depths"] = {}
    merged["stages"] = {}
    windows: List[Sequence[float]] = []
    have_all_windows = bool(worker_stats)
    upper_bound: Dict[str, float] = {}
    per_worker: Dict[str, Any] = {}
    for worker_id, stats in sorted(worker_stats.items()):
        for key in _MERGE_SUM_KEYS:
            value = stats.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                merged[key] += value
        for sid, depth in (stats.get("queue_depths") or {}).items():
            merged["queue_depths"][sid] = depth
        for stage, rec in (stats.get("stages") or {}).items():
            agg = merged["stages"].get(stage)
            if agg is None:
                merged["stages"][stage] = dict(rec)
                continue
            for field in ("calls", "items", "seconds"):
                agg[field] += rec[field]
            agg["min"] = min(agg["min"], rec["min"])
            agg["max"] = max(agg["max"], rec["max"])
        window = stats.get("latency_window")
        if isinstance(window, list):
            windows.append([float(v) for v in window])
        else:
            have_all_windows = False
        for key, value in (stats.get("classify_latency") or {}).items():
            upper_bound[key] = max(upper_bound.get(key, 0.0), float(value))
        per_worker[worker_id] = {
            "processed": stats.get("processed", 0),
            "streams": stats.get("streams", 0),
            "queued_total": stats.get("queued_total", 0),
            "classify_latency": stats.get("classify_latency", {}),
        }
    merged["queued_total"] = sum(merged["queue_depths"].values())
    if have_all_windows:
        merged["classify_latency"] = merged_latency_percentiles(windows)
        merged["classify_latency_source"] = {
            "kind": "merged-window",
            "samples": sum(len(w) for w in windows),
            "workers": len(worker_stats),
        }
    else:
        merged["classify_latency"] = upper_bound
        merged["classify_latency_source"] = {
            "kind": "merged-upper-bound",
            "workers": len(worker_stats),
        }
    merged["per_worker"] = per_worker
    merged["n_workers"] = len(worker_stats)
    return merged
