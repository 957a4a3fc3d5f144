"""Call-graph-aware site lifting.

The paper's MiniFE discussion: discovery selected the low-level
``sum_in_symm_elem_matrix`` while the authors' manual choice was its
caller ``perform_element_loop`` — "extending the discovery analysis to
use the call-graph structure might be a way to improve it and select our
site, which is higher up in the call graph."  Likewise Graph500's init
phase surfaced ``make_one_edge`` under ``generate_kronecker_range``.

This module implements that extension as a *suggestion* pass: for each
selected site, walk the per-interval call arcs upward and propose a
caller when

1. the caller is the **dominant parent** — it accounts for at least
   ``dominance`` of all calls into the site within the phase's covered
   intervals;
2. the caller is **coextensive** — it calls the site in at least
   ``coverage`` of the site's covered intervals (so instrumenting the
   caller still covers the phase);
3. the caller is **coarser** — its own call count per interval is lower
   than the site's (fewer, longer activations: a better heartbeat);
4. the caller is **confined** to the phase — its calling activity across
   the whole run lies (almost) entirely inside the phase's intervals.
   This is the guard that rejects ``main`` and Gadget2's
   ``compute_accelerations``: a caller active in *every* phase cannot
   distinguish any of them, which is precisely why the paper's discovery
   beats those manual sites.

Suggestions never modify the original selection; they are reported next
to it (the CLI/benches show both).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.model import SelectedSite
from repro.core.intervals import IntervalData
from repro.core.pipeline import AnalysisResult
from repro.gprof.gmon import SPONTANEOUS
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class LiftSuggestion:
    """A proposed replacement of a discovered site by its caller."""

    original: SelectedSite
    caller: str
    dominance: float  # fraction of the site's calls coming from the caller
    coverage: float  # fraction of covered intervals where the caller calls it
    call_ratio: float  # caller calls per site call (< 1: coarser)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.original.function} -> {self.caller} "
                f"(dominance {self.dominance:.0%}, coverage {self.coverage:.0%})")


def _arc_stats(
    data: IntervalData, intervals: Tuple[int, ...], callee: str
) -> Tuple[Dict[str, int], Dict[str, int], int]:
    """Per-caller call counts, per-caller active-interval counts, total calls."""
    caller_calls: Dict[str, int] = {}
    caller_intervals: Dict[str, int] = {}
    total = 0
    for interval in intervals:
        gmon = data.interval_gmons[interval]
        for (caller, target), count in gmon.arcs.items():
            if target != callee or caller == SPONTANEOUS:
                continue
            caller_calls[caller] = caller_calls.get(caller, 0) + count
            caller_intervals[caller] = caller_intervals.get(caller, 0) + 1
            total += count
    return caller_calls, caller_intervals, total


def _caller_activity_intervals(data: IntervalData, caller: str) -> List[int]:
    """Intervals in which ``caller`` makes any call at all."""
    active: List[int] = []
    for interval, gmon in enumerate(data.interval_gmons):
        if any(src == caller for (src, _dst) in gmon.arcs):
            active.append(interval)
    return active


def suggest_lifts(
    result: AnalysisResult,
    dominance: float = 0.95,
    coverage: float = 0.9,
    confinement: float = 0.8,
) -> List[LiftSuggestion]:
    """Propose call-graph lifts for every selected site (see module doc)."""
    data = result.interval_data
    if data.interval_gmons is None:
        raise ValidationError(
            "call-graph lifting needs interval gmon deltas "
            "(run the analysis with keep_gmons enabled)"
        )
    if not 0 < dominance <= 1 or not 0 < coverage <= 1 or not 0 < confinement <= 1:
        raise ValidationError("dominance, coverage, confinement must be in (0, 1]")

    suggestions: List[LiftSuggestion] = []
    for selected in result.selection.all_sites():
        covered = selected.covered_intervals
        if not covered:
            continue
        caller_calls, caller_intervals, total_calls = _arc_stats(
            data, covered, selected.function
        )
        if total_calls == 0 or not caller_calls:
            continue  # loop-type site with no calls in its intervals
        best = max(caller_calls, key=caller_calls.get)
        dom = caller_calls[best] / total_calls
        cov = caller_intervals[best] / len(covered)
        if dom < dominance or cov < coverage:
            continue
        # The caller must itself be called less often than the site
        # (otherwise the lift gains nothing).
        # Never lift to the program root: a function nobody calls (except
        # <spontaneous>) is live for the entire run and cannot mark phases.
        root_only = all(
            src == SPONTANEOUS
            for gmon in data.interval_gmons
            for (src, dst) in gmon.arcs
            if dst == best
        )
        if root_only:
            continue
        # The caller's calling activity must be confined to this phase.
        activity = _caller_activity_intervals(data, best)
        covered_set = set(covered)
        confined = (sum(1 for i in activity if i in covered_set) / len(activity)
                    if activity else 0.0)
        if confined < confinement:
            continue
        # caller_total == 0 means the caller was invoked before the phase
        # began and is still live — the ideal coarse site.
        _, _, caller_total = _arc_stats(data, covered, best)
        ratio = caller_total / total_calls if total_calls else 1.0
        if ratio < 1.0:
            suggestions.append(
                LiftSuggestion(
                    original=selected,
                    caller=best,
                    dominance=dom,
                    coverage=cov,
                    call_ratio=ratio,
                )
            )
    return suggestions


def lifted_site_names(result: AnalysisResult, **kwargs) -> Dict[str, str]:
    """Convenience map: original function -> suggested caller."""
    return {s.original.function: s.caller for s in suggest_lifts(result, **kwargs)}
