"""The unified storage interface: one way to persist and read intervals.

:class:`IntervalStore` is the one abstract surface for interval data
that both backends implement:

- :class:`~repro.store.loose.LooseStore` — the legacy one-file-per-
  interval gmon layout (readable by every old tool, O(files) metadata);
- :class:`~repro.store.segments.SegmentStore` — append-only columnar
  segments with retention tiers and compaction (the fleet-scale layout).

Everything is keyed by *stream id* (a string; the loose layout uses the
decimal rank).  ``scan`` is the one read primitive, and
:meth:`IntervalStore.replay` is the time-travel API: re-drive any
recorded window through a fresh
:class:`~repro.core.incremental.IncrementalAnalyzer` at memory speed,
for refit-policy backtesting against recorded traffic (see
``docs/STORAGE.md``).  The analyzer runs the daemon's live-model engine
but bootstraps a model of its own, so its labels need not match what
the daemon reported live.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.incremental import (
    DriftConfig,
    IncrementalAnalyzer,
    IncrementalUpdate,
    RefitEvent,
)
from repro.core.pipeline import AnalysisConfig
from repro.gprof.gmon import GmonData
from repro.util.errors import CollectorError


@dataclass
class ReplayResult:
    """One historical window re-driven through the streaming engine.

    ``updates`` are exactly what an :class:`IncrementalAnalyzer` fed
    the same snapshots produces — same phase ids, same refit events.
    They are not the daemon's live labels: the daemon classifies with
    the model it serves, which replay does not use.  The engine itself
    rides along for callers that want to :meth:`finalize` or keep
    streaming past the window.
    """

    stream_id: str
    t0: Optional[float]
    t1: Optional[float]
    engine: IncrementalAnalyzer
    updates: List[IncrementalUpdate] = field(default_factory=list)
    #: Interval indices of the replayed snapshots, aligned with updates.
    indices: List[int] = field(default_factory=list)
    #: Wall seconds the replay took (the memory-speed claim, measured).
    elapsed: float = 0.0

    @property
    def n_intervals(self) -> int:
        return len(self.updates)

    @property
    def refits(self) -> List[RefitEvent]:
        return self.engine.refits

    def phase_timeline(self) -> List[Optional[int]]:
        """Live phase id per replayed interval (None during warmup)."""
        return [u.phase_id for u in self.updates]

    @property
    def intervals_per_second(self) -> float:
        return self.n_intervals / self.elapsed if self.elapsed > 0 else 0.0


class IntervalStore(ABC):
    """Abstract interval persistence: append / scan / window / replay.

    Implementations must keep ``scan`` ordered by interval index and
    cheap to resume (``since`` is the ``--follow`` watermark).  They may
    buffer appends; ``flush`` makes everything buffered durable.
    ``compact`` and ``gc`` are no-ops for backends without tiers.
    """

    # -- writing -------------------------------------------------------
    @abstractmethod
    def append(self, stream_id: str, index: int, snapshot: GmonData) -> None:
        """Persist one cumulative snapshot under ``(stream, index)``."""

    def flush(self) -> None:
        """Make buffered appends durable (no-op for unbuffered backends)."""

    def close(self) -> None:
        self.flush()

    # -- reading -------------------------------------------------------
    @abstractmethod
    def streams(self) -> List[str]:
        """Stream ids with at least one recorded interval, sorted."""

    @abstractmethod
    def scan(self, stream_id: str,
             since: int = -1) -> Iterator[Tuple[int, GmonData]]:
        """Yield ``(index, snapshot)`` with index > ``since``, in order.

        The single read primitive: full loads are ``scan(s)``, watermark
        tails are ``scan(s, watermark)``.  Lazy — implementations yield
        one interval at a time, so peak memory is O(1 segment), not
        O(stream).
        """

    def window(self, stream_id: str, t0: Optional[float] = None,
               t1: Optional[float] = None) -> Iterator[Tuple[int, GmonData]]:
        """``scan`` restricted to snapshot timestamps in ``[t0, t1)``.

        Timestamps are monotone per stream, so implementations may seek;
        this default filters the full scan.
        """
        for index, snapshot in self.scan(stream_id):
            if t0 is not None and snapshot.timestamp < t0:
                continue
            if t1 is not None and snapshot.timestamp >= t1:
                break
            yield index, snapshot

    # -- maintenance ---------------------------------------------------
    def compact(self, stream_id: Optional[str] = None) -> Dict[str, int]:
        """Run retention compaction; returns a report (no-op default)."""
        return {"segments_compacted": 0, "bytes_before": 0, "bytes_after": 0}

    def gc(self, keep_versions: int = 2) -> List[str]:
        """Prune versioned artifacts; returns deleted names (default none)."""
        return []

    # -- time travel ---------------------------------------------------
    def replay(
        self,
        stream_id: str,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        *,
        config: Optional[AnalysisConfig] = None,
        warmup: int = 12,
        drift: Optional[DriftConfig] = None,
        refit_cooldown: int = 16,
        track: bool = True,
        engine: Optional[IncrementalAnalyzer] = None,
    ) -> ReplayResult:
        """Re-drive a recorded window through the streaming engine.

        Feeds every snapshot of ``stream_id`` with timestamp in
        ``[t0, t1)`` (the whole stream by default) through a fresh
        :class:`IncrementalAnalyzer` and returns the per-interval
        updates plus the engine for finalization.  The analyzer runs the
        daemon's live-model engine
        (:class:`~repro.core.incremental.LiveModel`), but it bootstraps
        its own model from the window's first ``warmup`` intervals
        instead of starting from the model the daemon served.  Pass ``drift``/``warmup``/
        ``refit_cooldown`` to backtest refit policies against the
        recorded traffic; pass a pre-built ``engine`` to sweep
        configurations the keyword surface does not cover.

        Raises :class:`~repro.util.errors.CollectorError` when the
        window holds no intervals (wrong stream id, or the window fell
        entirely inside a sketch-tier region that no longer has
        replayable vectors).
        """
        if engine is None:
            engine = IncrementalAnalyzer(
                config or AnalysisConfig(), track=track, warmup=warmup,
                drift=drift, refit_cooldown=refit_cooldown)
        result = ReplayResult(stream_id=stream_id, t0=t0, t1=t1, engine=engine)
        start = time.perf_counter()
        for index, snapshot in self.window(stream_id, t0, t1):
            result.updates.append(engine.observe(snapshot))
            result.indices.append(index)
        result.elapsed = time.perf_counter() - start
        if not result.updates:
            raise CollectorError(
                f"no replayable intervals for stream {stream_id!r}"
                + (f" in window [{t0}, {t1})" if t0 is not None
                   or t1 is not None else ""))
        return result

    # -- context management --------------------------------------------
    def __enter__(self) -> "IntervalStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
