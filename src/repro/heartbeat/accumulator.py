"""Per-interval heartbeat accumulation.

AppEKG's core efficiency property: heartbeats are *not* logged
individually.  Each completed heartbeat updates an in-memory
(count, duration-sum) cell for its ID; when time crosses a collection
interval boundary the cells are flushed as one record per active ID.

A heartbeat belongs to the interval its **end** falls in — the paper
relies on this ("these heartbeats do not show up in all the intervals,
only those that they finish in") to explain the gaps in Figure 2's
manual-site series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.util.errors import ValidationError


@dataclass(frozen=True)
class HeartbeatRecord:
    """One flushed row: heartbeat activity of one ID in one interval.

    ``min_duration``/``max_duration`` extend the paper's count+mean
    accumulation at no extra I/O (still one row per interval); they make
    per-interval variability visible to downstream analyses.

    ``min_duration`` is ``None`` when no minimum was observed (a record
    from a source that predates the field).  ``None`` — not ``0.0`` — is
    the sentinel: a downstream min-merge must treat a missing minimum as
    the merge identity (+inf), never as a genuinely observed 0-second
    beat.  :meth:`min_duration_or_inf` gives the merge-ready value.
    """

    rank: int
    hb_id: int
    interval_index: int
    time: float  # interval end time
    count: float  # float: batch spans distribute fractionally
    avg_duration: float
    min_duration: Optional[float] = None
    max_duration: float = 0.0

    @property
    def duration_sum(self) -> float:
        return self.count * self.avg_duration

    def min_duration_or_inf(self) -> float:
        """The observed minimum, or +inf when none was recorded."""
        return math.inf if self.min_duration is None else self.min_duration


Sink = Callable[[HeartbeatRecord], None]


class HeartbeatAccumulator:
    """Accumulates heartbeat completions into per-interval records.

    Events must arrive in non-decreasing end-time order (true for both the
    virtual engine and a single live thread).
    """

    def __init__(self, interval: float, rank: int = 0, sink: Optional[Sink] = None) -> None:
        if interval <= 0:
            raise ValidationError("collection interval must be positive")
        self.interval = interval
        self.rank = rank
        self.sink = sink
        self._current_index = 0
        self._counts: Dict[int, float] = {}
        self._durations: Dict[int, float] = {}
        self._min: Dict[int, float] = {}
        self._max: Dict[int, float] = {}
        self.records: List[HeartbeatRecord] = []
        self.total_events = 0

    # ------------------------------------------------------------------
    def _index_of(self, t: float) -> int:
        return int(math.floor(t / self.interval + 1e-9))

    def _flush_through(self, index: int) -> None:
        """Flush all intervals strictly before ``index``."""
        while self._current_index < index:
            self._emit_current()
            self._current_index += 1

    def _emit_current(self) -> None:
        if not self._counts:
            return
        end_time = (self._current_index + 1) * self.interval
        for hb_id in sorted(self._counts):
            count = self._counts[hb_id]
            if count <= 0:
                continue
            record = HeartbeatRecord(
                rank=self.rank,
                hb_id=hb_id,
                interval_index=self._current_index,
                time=end_time,
                count=count,
                avg_duration=self._durations[hb_id] / count,
                # None (not 0.0) when no minimum was tracked: a missing
                # minimum must stay "unknown" through any min-merge.
                min_duration=self._min.get(hb_id),
                max_duration=self._max.get(hb_id, 0.0),
            )
            self.records.append(record)
            if self.sink is not None:
                self.sink(record)
        self._counts.clear()
        self._durations.clear()
        self._min.clear()
        self._max.clear()

    # ------------------------------------------------------------------
    def record(self, hb_id: int, t_begin: float, t_end: float) -> None:
        """Record one completed heartbeat."""
        if t_end < t_begin:
            raise ValidationError("heartbeat ended before it began")
        self._flush_through(self._index_of(t_end))
        self._counts[hb_id] = self._counts.get(hb_id, 0.0) + 1.0
        duration = t_end - t_begin
        self._durations[hb_id] = self._durations.get(hb_id, 0.0) + duration
        self._min[hb_id] = min(self._min.get(hb_id, duration), duration)
        self._max[hb_id] = max(self._max.get(hb_id, duration), duration)
        self.total_events += 1

    def record_span(self, hb_id: int, n: float, t0: float, t1: float) -> None:
        """Record ``n`` rapid heartbeats spread uniformly over ``[t0, t1)``.

        Used for batch-modeled calls: counts are apportioned to each
        overlapped interval by time fraction, each with mean duration
        ``(t1 - t0) / n``.
        """
        if n <= 0:
            raise ValidationError("span requires positive count")
        if t1 < t0:
            raise ValidationError("span end precedes start")
        if t1 == t0:
            self.record(hb_id, t0, t1)
            # record() counts a single event; add the remaining n - 1.
            self._counts[hb_id] += n - 1
            self.total_events += int(n) - 1
            return
        per_duration = (t1 - t0) / n
        first = self._index_of(t0)
        last = self._index_of(t1 - 1e-12)
        for idx in range(first, last + 1):
            seg_start = max(t0, idx * self.interval)
            seg_end = min(t1, (idx + 1) * self.interval)
            share = n * (seg_end - seg_start) / (t1 - t0)
            if share <= 0:
                continue
            self._flush_through(idx)
            self._counts[hb_id] = self._counts.get(hb_id, 0.0) + share
            self._durations[hb_id] = self._durations.get(hb_id, 0.0) + share * per_duration
            self._min[hb_id] = min(self._min.get(hb_id, per_duration), per_duration)
            self._max[hb_id] = max(self._max.get(hb_id, per_duration), per_duration)
        self.total_events += int(n)

    def flush_upto(self, now: float) -> None:
        """Flush every interval that ended at or before ``now``.

        Long-lived users (the ``incprofd`` self-instrumentation) call
        this on a housekeeping cadence so completed intervals reach the
        sink even when no new heartbeat arrives to trigger the flush.
        """
        self._flush_through(self._index_of(now))

    def finalize(self, now: Optional[float] = None) -> List[HeartbeatRecord]:
        """Flush the trailing partial interval and return all records."""
        if now is not None:
            self._flush_through(self._index_of(now))
        self._emit_current()
        return self.records
