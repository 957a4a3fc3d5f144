"""A gcov-style coverage-counter data source (proof of concept).

The paper's footnote 1: "we have created proof-of-concept
implementations for both the gcov and JaCoCo tools" — i.e. the
methodology is not tied to gprof; any incrementally-dumpable profile
source works.  This module provides the gcov-flavoured variant:
per-function *execution counters* (no sampled time), snapshotted
cumulatively like IncProf's gmon dumps, with a text format and an
adapter into the standard :class:`~repro.core.intervals.IntervalData`
so the identical clustering pipeline runs on counter data.

Because counters carry no self-time, the adapter exposes them through
the ``calls`` matrix and mirrors them into ``self_time`` as normalized
activity weights — phase detection then runs on relative execution
intensity, which is what a coverage tool can actually observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Union

import numpy as np

from typing import TYPE_CHECKING

from repro.simulate.engine import EngineObserver
from repro.util.errors import FormatError, ProfileDataError

if TYPE_CHECKING:  # imported lazily at runtime: core.intervals imports gprof
    from repro.core.intervals import IntervalData

HEADER = "# igcov 1"


@dataclass
class CoverageData:
    """Cumulative per-function execution counters (one snapshot)."""

    counters: Dict[str, int] = field(default_factory=dict)
    timestamp: float = 0.0

    def bump(self, func: str, count: int = 1) -> None:
        if count > 0:
            self.counters[func] = self.counters.get(func, 0) + count

    def copy(self) -> "CoverageData":
        return CoverageData(counters=dict(self.counters), timestamp=self.timestamp)

    # ------------------------------------------------------------------
    # .gcov-flavoured text format
    # ------------------------------------------------------------------
    def render(self) -> str:
        lines = [HEADER, f"timestamp: {self.timestamp:.6f}"]
        for func in sorted(self.counters):
            lines.append(f"{self.counters[func]:>12}: {func}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "CoverageData":
        lines = text.splitlines()
        if not lines or lines[0].strip() != HEADER:
            raise FormatError("not an igcov coverage dump")
        data = cls()
        for line in lines[1:]:
            line = line.strip()
            if not line:
                continue
            if line.startswith("timestamp:"):
                data.timestamp = float(line.split(":", 1)[1])
                continue
            count_part, _, func = line.partition(":")
            try:
                count = int(count_part.strip())
            except ValueError as exc:
                raise FormatError(f"bad counter line {line!r}") from exc
            data.counters[func.strip()] = count
        return data

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.render())

    @classmethod
    def read(cls, path: Union[str, Path]) -> "CoverageData":
        return cls.parse(Path(path).read_text())


class CoverageProfiler(EngineObserver):
    """Engine observer counting function executions (the gcov runtime)."""

    def __init__(self) -> None:
        self._data = CoverageData()

    def on_call(self, caller: str, callee: str, t: float, count: int = 1) -> None:
        self._data.bump(callee, count)

    def snapshot(self, timestamp: float) -> CoverageData:
        snap = self._data.copy()
        snap.timestamp = timestamp
        return snap


def intervals_from_coverage(
    snapshots: Sequence[CoverageData],
    interval: float = 1.0,
) -> "IntervalData":
    """Difference cumulative coverage snapshots into IntervalData.

    ``calls`` holds the per-interval execution counts; ``self_time``
    holds each function's share of the interval's total activity (a
    unitless intensity in [0, interval]) so the standard self-time
    feature pipeline applies unchanged.
    """
    from repro.core.intervals import IntervalData, clamped_diff

    if len(snapshots) < 2:
        raise ProfileDataError("need at least two coverage snapshots")

    names = sorted({f for s in snapshots for f in s.counters})
    index = {name: i for i, name in enumerate(names)}
    n = len(snapshots)

    cum = np.zeros((n, len(names)), dtype=np.int64)
    for i, snap in enumerate(snapshots):
        for func, count in snap.counters.items():
            cum[i, index[func]] = count
    calls = clamped_diff(cum)

    totals = calls.sum(axis=1, keepdims=True).astype(float)
    totals[totals == 0] = 1.0
    intensity = calls / totals * interval

    timestamps = np.array(
        [s.timestamp if s.timestamp else (i + 1) * interval
         for i, s in enumerate(snapshots)]
    )
    return IntervalData(
        functions=names,
        self_time=intensity,
        calls=calls,
        timestamps=timestamps,
        interval=interval,
        interval_gmons=None,
    )
