"""Shared helpers for the perfbench workloads.

Timing statistics, the host-speed reference that end-to-end times are
scaled by, an in-memory span ledger for traced runs, process probes
(``/proc`` CPU and peak RSS), and the run outcome every workload returns
to ``run.py``.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

#: Where a run keeps its scratch files (model artifacts, the daemon's
#: archive, logs).  Relative to the checkout root and removed at exit.
WORK_DIRNAME = ".perfbench_work"
#: Where traced runs write their span dumps.  Kept after the run.
OUT_DIRNAME = ".perfbench_out"
#: How many times each run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: A window runs past ``--seconds`` until it holds this many timed ops,
#: so p90 always has ten or more ops beyond it on a slowed host.
MIN_OPS = 100
#: Iterations of the host-speed reference loop (:func:`reference_loop`).
REF_ITERATIONS = 20_000
#: The reference loop's median duration on the 2-vCPU VM the bounds in
#: BENCHMARK.json were set on.  End-to-end times are reported at this
#: host speed (see :class:`HostSpeed`).
REF_NOMINAL_S = 1.9e-3


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def geomean(values: Sequence[float]) -> float:
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of a live process from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fh:
        raw = fh.read()
    # The command name may hold spaces; fields resume after its ')'.
    fields = raw[raw.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def reference_loop() -> int:
    """A fixed pure-Python loop: the same work on every run and commit."""
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    return total


class HostSpeed:
    """Scales wall times to a fixed host speed.

    On a shared host the same code runs up to 1.7x slower for tens of
    seconds to minutes at a time, on both vCPUs at once, with little
    steal; a 30 s window cannot average that out, so the wall-clock
    latency of ten runs of identical code spread by up to 0.39 of its
    median.  A fixed reference loop timed between ops slows down with
    the host: an op's wall time divided
    by the host's slowdown around it — the median of the
    :data:`NEAREST` reference samples nearest the op, over
    :data:`REF_NOMINAL_S` — is what the op takes at the nominal speed.
    The program never runs while a reference sample is timed, so a
    change to the program cannot move the scale.
    """

    #: Reference samples that set the slowdown at one point in time.
    NEAREST = 10
    #: Minimum gap between samples taken by :meth:`maybe_sample`.
    EVERY_S = 0.1

    def __init__(self) -> None:
        self.times: List[float] = []
        self.durations: List[float] = []
        self._next = 0.0

    def sample(self, n: int = 1) -> None:
        """Time the reference loop ``n`` times, now."""
        clock = time.perf_counter
        for _ in range(n):
            t0 = clock()
            reference_loop()
            self.times.append(t0)
            self.durations.append(clock() - t0)
        self._next = clock() + self.EVERY_S

    def maybe_sample(self) -> None:
        """One sample, unless the last one is under :data:`EVERY_S` old."""
        if time.perf_counter() >= self._next:
            self.sample()

    def slowdown(self, t: float) -> float:
        """Host slowdown at time ``t`` relative to the nominal speed."""
        if len(self.times) < self.NEAREST:
            raise RuntimeError("too few host-speed reference samples")
        j = bisect.bisect_left(self.times, t)
        lo = min(max(0, j - self.NEAREST // 2), len(self.times) - self.NEAREST)
        return median(self.durations[lo:lo + self.NEAREST]) / REF_NOMINAL_S

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` of wall time from ``start``, at the nominal speed."""
        return seconds / self.slowdown(start + seconds / 2.0)

    def median_slowdown(self) -> float:
        return median(self.durations) / REF_NOMINAL_S


class Ledger:
    """Spans recorded around calls into the program's layers.

    A span is ``(op, layer, parent, start, end)``: ``op`` groups the
    spans of one benchmark op, ``parent`` names the span that caused it
    (``""`` for the op itself).  Spans stay in memory; :meth:`dump`
    writes them out once the run is over.  Per-layer totals and span
    counts are kept alongside so means need no second pass.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, str, float, float]] = []
        self.total: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)

    def add(self, op: int, layer: str, start: float, end: float,
            parent: str = "op") -> None:
        self.spans.append((op, layer, parent, start, end))
        self.total[layer] += end - start
        self.calls[layer] += 1

    def mean(self, layer: str) -> float:
        """Mean seconds per recorded span of ``layer`` (0 when never seen)."""
        n = self.calls.get(layer, 0)
        return self.total[layer] / n if n else 0.0

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for op, layer, parent, start, end in self.spans:
                fh.write(json.dumps({"op": op, "span": layer,
                                     "parent": parent, "start": start,
                                     "end": end}) + "\n")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: Oracle findings: one line per check that did not hold.
    problems: List[str] = field(default_factory=list)
    #: Metric name -> value (units come from BENCHMARK.json).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Extra facts for the metadata line (loop type, counts, ...).
    info: Dict[str, object] = field(default_factory=dict)

    def problem(self, text: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(text)


def timed_setup(build, speed: HostSpeed):
    """Run ``build(i)`` :data:`SETUP_REPEATS` times.

    Returns the last result, the median set-up time at the nominal host
    speed (reference samples bracket each set-up) and the median wall
    time.  A previous result with a ``close`` method (a running daemon)
    is closed, untimed, before the next build starts.
    """
    spans: List[Tuple[float, float]] = []
    result = None
    half = HostSpeed.NEAREST // 2
    for i in range(SETUP_REPEATS):
        if result is not None and hasattr(result, "close"):
            result.close()
        speed.sample(half)
        t0 = time.perf_counter()
        result = build(i)
        spans.append((t0, time.perf_counter() - t0))
        speed.sample(half)
    return (result, median(speed.scaled(t0, d) for t0, d in spans),
            median(d for _t0, d in spans))


def latency_metrics(out: Outcome, seconds: Sequence[float]) -> None:
    """p50/p90 in ms from per-op times (seconds)."""
    if len(seconds) < MIN_OPS:
        out.problem(f"only {len(seconds)} timed ops; p90 needs >= {MIN_OPS}")
    ms = [s * 1e3 for s in seconds]
    out.metrics["latency_p50_ms"] = percentile(ms, 50)
    out.metrics["latency_p90_ms"] = percentile(ms, 90)
