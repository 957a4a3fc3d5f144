"""The daemon dogfooding its own heartbeat API.

The paper's premise is cheap always-on visibility; ``incprofd`` was the
one process in the fleet without it.  This module instruments the
daemon's own pipeline with the repo's AppEKG accumulator — one heartbeat
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
from collections import deque
from typing import Callable, Dict, List, Mapping, Optional

from repro.heartbeat.accumulator import HeartbeatAccumulator, HeartbeatRecord, Sink
from repro.service.metrics import STAGES

#: One heartbeat site per pipeline stage (id = index+1 in ``STAGES``).
SELF_STAGE_IDS: Dict[str, int] = {name: i + 1
                                  for i, name in enumerate(STAGES)}
SELF_STAGE_LABELS: Dict[int, str] = {i: name
                                     for name, i in SELF_STAGE_IDS.items()}

#: Rank stamped on self-heartbeat records (no application rank is ever
#: negative, so the daemon's own telemetry is unambiguous on the wire).
SELF_RANK = -1

#: Flushed records kept for export and analysis: the newest ones only,
#: so a long-lived daemon's memory stays flat.  At the default 1 s
#: interval with all six stages beating, that is over 11 busy minutes.
SELF_RECORD_RING = 4096


class SelfInstrument:
    """Heartbeat instrumentation of the daemon's own pipeline.

    Wraps one :class:`HeartbeatAccumulator` behind a lock.  The classify
    thread reports each tick's stage totals once; each total is
    replayed as one beat ending at a monotonically non-decreasing time
    (the accumulator's ordering contract).
    """

    def __init__(
        self,
        sink: Optional[Sink] = None,
        interval: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._clock = clock
        self._origin = clock()
        self._lock = threading.Lock()
        self._last_end = 0.0
        self._acc = HeartbeatAccumulator(interval=interval, rank=SELF_RANK,
                                         sink=sink)
        # The accumulator keeps every record it flushes; a ring in its
        # place bounds the history a daemon carries for its lifetime.
        self._acc.records = deque(maxlen=SELF_RECORD_RING)

    def _now(self) -> float:
        return self._clock() - self._origin

    @property
    def events(self) -> int:
        """Beats recorded since start."""
        return self._acc.total_events

    def record(self, laps: Mapping[str, float]) -> None:
        """One beat per stage: ``laps`` maps stage names to seconds."""
        with self._lock:
            end = max(self._now(), self._last_end)
            self._last_end = end
            for stage, seconds in laps.items():
                self._acc.record(SELF_STAGE_IDS[stage], end - seconds, end)

    def tick(self) -> None:
        """Housekeeping flush: deliver intervals completed by now."""
        with self._lock:
            now = max(self._now(), self._last_end)
            self._last_end = now
            self._acc.flush_upto(now)

    @property
    def records(self) -> List[HeartbeatRecord]:
        """The newest flushed per-interval records, oldest first."""
        with self._lock:
            return list(self._acc.records)
