"""The daemon dogfooding its own heartbeat API.

The paper's premise is cheap always-on visibility; ``incprofd`` was the
one process in the fleet without it.  This module instruments the
daemon's own pipeline with the repo's AppEKG runtime — one heartbeat
site per pipeline stage, accumulated per collection interval and emitted
through the same LDMS-style sink application heartbeats use — so
IncProf's phase analysis can be run *on incprofd* itself (export the
records with :class:`~repro.heartbeat.output.CSVSink`, feed them to
:func:`~repro.heartbeat.analysis.phase_assignment`).

Self-heartbeat records carry ``rank == SELF_RANK`` (-1) so fleet tooling
can separate the daemon's own telemetry from application streams sharing
the transport.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.heartbeat.accumulator import HeartbeatRecord, Sink, merge_records
from repro.heartbeat.api import AppEKG

#: The daemon's pipeline stages, each one heartbeat site (id = index+1).
#: New stages go at the end so existing ids keep their meaning.
SELF_STAGES = ("ingest", "difference", "classify", "aggregate", "archive")
SELF_STAGE_IDS: Dict[str, int] = {name: i + 1
                                  for i, name in enumerate(SELF_STAGES)}
SELF_STAGE_LABELS: Dict[int, str] = {i: name
                                     for name, i in SELF_STAGE_IDS.items()}

#: Rank stamped on self-heartbeat records (no application rank is ever
#: negative, so the daemon's own telemetry is unambiguous on the wire).
SELF_RANK = -1


class SelfInstrument:
    """Heartbeat instrumentation of the daemon's own pipeline.

    Wraps one :class:`AppEKG` runtime behind a lock so reader threads,
    the classify thread, and housekeeping can all report stage work.
    Stage completions arrive with a measured *duration* rather than live
    begin/end calls — many reader threads run the same stage at once and
    AppEKG keeps one begin-slot per ID — so each completion is replayed
    as a ``begin/end`` pair at a monotonically non-decreasing end time
    (the accumulator's ordering contract).
    """

    def __init__(
        self,
        sink: Optional[Sink] = None,
        interval: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        keep_records: bool = True,
    ) -> None:
        self._clock = clock
        self._origin = clock()
        self._lock = threading.Lock()
        self._last_end = 0.0
        self._kept: List[HeartbeatRecord] = []

        def tee(record: HeartbeatRecord) -> None:
            if keep_records:
                self._kept.append(record)
            if sink is not None:
                sink(record)

        self._ekg = AppEKG(num_heartbeats=len(SELF_STAGES), rank=SELF_RANK,
                           interval=interval, sink=tee,
                           time_source=self._now)
        self.events = 0

    def _now(self) -> float:
        return self._clock() - self._origin

    # ------------------------------------------------------------------
    # recording (any thread)
    # ------------------------------------------------------------------
    def record(self, stage: str, duration: float) -> None:
        """One completed unit of ``stage`` work taking ``duration`` seconds."""
        hb_id = SELF_STAGE_IDS[stage]
        duration = max(0.0, duration)
        with self._lock:
            # End times must be non-decreasing for the accumulator; the
            # lock serializes completions, the clamp orders them.
            end = max(self._now(), self._last_end)
            self._last_end = end
            self._ekg.begin_heartbeat(hb_id, at=end - duration)
            self._ekg.end_heartbeat(hb_id, at=end)
            self.events += 1

    def tick(self) -> None:
        """Housekeeping flush: deliver intervals completed by now."""
        with self._lock:
            now = max(self._now(), self._last_end)
            self._last_end = now
            self._ekg.flush(now)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def records(self) -> List[HeartbeatRecord]:
        """Flushed per-interval records kept for export/analysis."""
        with self._lock:
            return list(self._kept)

    def stage_summary(self) -> Dict[str, Any]:
        """Lifetime per-stage totals from the flushed records.

        Uses the None-aware min-merge: an interval that never observed a
        minimum cannot drag a stage's lifetime minimum to zero.
        """
        with self._lock:
            rows = list(self._kept)
        per_stage = merge_records(
            [HeartbeatRecord(rank=r.rank, hb_id=r.hb_id, interval_index=0,
                             time=r.time, count=r.count,
                             avg_duration=r.avg_duration,
                             min_duration=r.min_duration,
                             max_duration=r.max_duration)
             for r in rows])
        stages: Dict[str, Dict[str, float]] = {}
        for row in per_stage:
            stage = SELF_STAGE_LABELS.get(row.hb_id, f"hb{row.hb_id}")
            stages[stage] = {
                "count": row.count,
                "seconds": row.duration_sum,
                "avg": row.avg_duration,
                # None (JSON null) when no interval observed a minimum —
                # never 0.0, which would read as an observed instant beat.
                "min": row.min_duration,
                "max": row.max_duration,
            }
        return {"events": self.events,
                "intervals": len({r.interval_index for r in rows}),
                "stages": stages}
