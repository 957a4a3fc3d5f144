"""Feature matrices for interval clustering.

The paper clusters intervals on the tuple of per-function gprof 'self'
times, and reports that adding other profile data (call counts, children
time) did not improve — and sometimes worsened — the results.  All the
variants are implemented here so that finding can be reproduced as an
ablation (``benchmarks/bench_ablation_features.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.intervals import IntervalData
from repro.gprof.callgraph import CallGraphProfile
from repro.util.errors import ValidationError

SOURCES = ("self_time", "self_plus_calls", "calls", "self_plus_children")


@dataclass(frozen=True)
class FeatureConfig:
    """Which profile attributes feed the clustering.

    ``source``:
      - ``self_time`` — the paper's choice: per-function self seconds;
      - ``self_plus_calls`` — self time with call-count columns appended
        (calls scaled to comparable magnitude);
      - ``calls`` — call counts only;
      - ``self_plus_children`` — self time plus per-interval propagated
        children time (requires interval gmon deltas).
    """

    source: str = "self_time"

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise ValidationError(f"unknown feature source {self.source!r}")


def _children_matrix(data: IntervalData) -> np.ndarray:
    if data.interval_gmons is None:
        raise ValidationError("self_plus_children requires interval gmon deltas")
    out = np.zeros_like(data.self_time)
    index = {name: j for j, name in enumerate(data.functions)}
    for i, gmon in enumerate(data.interval_gmons):
        profile = CallGraphProfile.from_gmon(gmon)
        for name, entry in profile.entries.items():
            j = index.get(name)
            if j is not None:
                out[i, j] = entry.children_seconds
    return out


def build_features(data: IntervalData, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Assemble the ``(n_intervals, n_attributes)`` clustering matrix."""
    if config.source == "self_time":
        matrix = data.self_time.copy()
    elif config.source == "calls":
        matrix = data.calls.astype(float)
    elif config.source == "self_plus_calls":
        # Scale call counts so their magnitude is comparable to seconds;
        # otherwise huge call counts (batched leaf calls) dominate distance.
        calls = data.calls.astype(float)
        peak = calls.max()
        scale = (data.self_time.max() / peak) if peak > 0 else 1.0
        matrix = np.hstack([data.self_time, calls * scale])
    elif config.source == "self_plus_children":
        matrix = np.hstack([data.self_time, _children_matrix(data)])
    else:  # pragma: no cover - guarded by FeatureConfig
        raise ValidationError(config.source)
    return matrix


def feature_names(data: IntervalData, config: FeatureConfig = FeatureConfig()) -> List[str]:
    """Column labels matching :func:`build_features` output."""
    if config.source in ("self_time", "calls"):
        suffix = "" if config.source == "self_time" else ":calls"
        return [f + suffix for f in data.functions]
    extra = ":calls" if config.source == "self_plus_calls" else ":children"
    return list(data.functions) + [f + extra for f in data.functions]
