"""offline-corpus: decode one recorded run and analyse it, closed loop.

One thread, one op at a time.  An op is ``loads_gmon`` over every
snapshot of one recorded run followed by ``analyze_snapshots`` — the
paper's offline path.  The corpus is built at set-up from the seed:
generated scenarios (easy/medium/hard, each run normalised to the same
length so the work per op does not depend on the seed) plus the five
paper models at the scales of the golden fixture.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from common import (MIN_OPS, HostSpeed, Ledger, Outcome, latency_metrics,
                    percentile, self_peak_rss_mb, timed_setup)
import oracles

from repro.apps import get_app
from repro.apps.generator import TIER_NAMES, generate_scenario
from repro.apps.spec import ScenarioApp, ScenarioSpec
from repro.core import incremental, pipeline
from repro.core.intervals import IntervalData
from repro.core.pipeline import analyze_snapshots
from repro.core.report import render_full_report
from repro.eval.scenarios import label_agreement_matched
from repro.gprof.gmon import dumps_gmon, loads_gmon
from repro.incprof.session import Session, SessionConfig

GOLDEN = Path("tests") / "fixtures" / "golden_paper_apps.json"
#: Generated scenarios per tier.  With the five paper models the corpus
#: holds 35 items, each an equal share of the ops; the p50 and p90 ops
#: then fall mid-way through one item's share (positions 17.5 and 31.5
#: of 35), not on the boundary between two items of different cost.
PER_TIER = 10
#: Every generated run is scaled to this many 1-second intervals.
SCENARIO_INTERVALS = 120
#: Session seed of generated runs (the scenario sweep's default).
SESSION_SEED = 111
#: Per-tier median agreement floors the scenario accuracy gate uses
#: (benchmarks/bench_methodology_ground_truth.py).
TIER_FLOORS = {"easy": 0.9, "medium": 0.75, "hard": 0.6}
#: Where ``analyze_snapshots`` calls into each offline layer, as
#: (owner, attribute, layer): the incremental engine's per-snapshot
#: differencing and interval assembly, then the pipeline's stages.
LAYER_CALLS = (
    (incremental.IncrementalAnalyzer, "observe", "core.intervals.diff"),
    (incremental, "assemble_interval_data", "core.intervals.diff"),
    (IntervalData, "drop_inactive_functions", "core.intervals.diff"),
    (pipeline, "build_features", "core.features.build"),
    (pipeline, "detect_phases", "core.phases.ksweep"),
    (pipeline, "select_sites", "core.instrumentation.select"),
)
LAYERS = ("gprof.decode", "core.intervals.diff", "core.features.build",
          "core.phases.ksweep", "core.instrumentation.select")


@dataclass
class Item:
    name: str
    tier: str  # "paper" or a generator tier
    blobs: List[bytes]
    spec: Optional[ScenarioSpec] = None
    scale: float = 1.0
    golden: Optional[str] = None
    digest: str = ""
    labels: Optional[np.ndarray] = None
    midpoints: Optional[np.ndarray] = None
    n_intervals: int = 0
    recorded_s: float = 0.0


def _record(snapshots) -> List[bytes]:
    return [dumps_gmon(s) for s in snapshots]


def build_corpus(seed: int, root: Path) -> List[Item]:
    golden = json.loads((root / GOLDEN).read_text())
    meta = golden["_meta"]
    items: List[Item] = []
    for name, scale in sorted(meta["scales"].items()):
        result = Session(get_app(name), SessionConfig(
            ranks=1, seed=meta["seed"], scale=scale)).run()
        items.append(Item(name=name, tier="paper",
                          blobs=_record(result.samples(0)),
                          golden=golden[name]))
    for j in range(PER_TIER):
        for tier in TIER_NAMES:
            spec = generate_scenario(seed * 1000 + j, tier)
            total = sum(spec.phases[i].duration for i in spec.timeline)
            scale = SCENARIO_INTERVALS / total
            result = Session(ScenarioApp(spec), SessionConfig(
                ranks=1, seed=SESSION_SEED, interval=1.0, scale=scale)).run()
            items.append(Item(name=spec.name, tier=tier,
                              blobs=_record(result.samples(0)),
                              spec=spec, scale=scale))
    # Interleave paper models among the generated runs so a window cut
    # short still samples every kind of item.
    paper = [it for it in items if it.tier == "paper"]
    generated = [it for it in items if it.tier != "paper"]
    step = max(1, len(generated) // len(paper))
    ordered: List[Item] = []
    for i, item in enumerate(generated):
        if i % step == 0 and paper:
            ordered.append(paper.pop(0))
        ordered.append(item)
    return ordered + paper


def _digest(result) -> str:
    return oracles.analysis_digest(result.phase_model.labels,
                                   result.n_phases, result.sites())


def _agreement(item: Item, labels, midpoints) -> float:
    truth = item.spec.truth_labels(midpoints, scale=item.scale)
    return label_agreement_matched(truth, labels)


def _run_op(item: Item):
    snapshots = [loads_gmon(b) for b in item.blobs]
    return analyze_snapshots(snapshots)


@contextmanager
def layer_spans(ledger: Ledger, op: int):
    """Record a span for ``op`` around every :data:`LAYER_CALLS` call."""
    clock = time.perf_counter

    def spanned(fn, layer):
        def wrapped(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            ledger.add(op, layer, t0, clock(), parent="analyze_snapshots")
            return result
        return wrapped

    originals = [(owner, name, getattr(owner, name))
                 for owner, name, _layer in LAYER_CALLS]
    try:
        for (owner, name, fn), (_o, _n, layer) in zip(originals, LAYER_CALLS):
            setattr(owner, name, spanned(fn, layer))
        yield
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)


def _run_op_traced(item: Item, op: int, ledger: Ledger):
    """:func:`_run_op` with spans around decode and each analysis layer."""
    t0 = time.perf_counter()
    snapshots = [loads_gmon(b) for b in item.blobs]
    t1 = time.perf_counter()
    with layer_spans(ledger, op):
        result = analyze_snapshots(snapshots)
    t2 = time.perf_counter()
    ledger.add(op, "gprof.decode", t0, t1)
    ledger.add(op, "analyze_snapshots", t1, t2)
    return result


def run(seed: int, seconds: float, trace: bool, root: Path, work: Path,
        out_dir: Path) -> Outcome:
    out = Outcome()
    out.info.update(loop="closed", threads=1, connections=0)

    speed = HostSpeed()
    corpus, setup_s, setup_wall = timed_setup(
        lambda i: build_corpus(seed, root), speed)
    out.metrics["setup_s"] = setup_s

    # Warm-up pass (untimed): every item once.  It fixes each item's
    # digest and runs the output oracles that need the full result.
    agreements: Dict[str, List[float]] = {t: [] for t in TIER_FLOORS}
    bad_items = set()
    sample = None
    for item in corpus:
        result = _run_op(item)
        item.digest = _digest(result)
        data = result.interval_data
        item.n_intervals = int(data.n_intervals)
        item.recorded_s = float(data.timestamps[-1])
        if item.golden is not None:
            report = render_full_report(result, app_name=item.name)
            if not oracles.report_matches(report, item.golden):
                bad_items.add(item.name)
                out.problem(f"{item.name}: report differs from golden fixture")
            sample = sample or (report, item.golden, result, item.digest)
        else:
            item.labels = np.asarray(result.phase_model.labels)
            item.midpoints = data.timestamps - data.interval / 2.0
            agreements[item.tier].append(
                _agreement(item, item.labels, item.midpoints))
    floor_problems = oracles.tier_floor_problems(agreements, TIER_FLOORS)
    for text in floor_problems:
        out.problem(text)
    bad_tiers = {t for t in TIER_FLOORS if any(p.startswith(f"tier {t}:")
                                               for p in floor_problems)}
    out.info["median_agreement"] = {
        t: round(float(np.median(v)), 4) for t, v in agreements.items() if v}

    def op_ok(item: Item, result) -> bool:
        return (oracles.repeat_ok(result, item.digest)
                and item.name not in bad_items and item.tier not in bad_tiers)

    if not trace:
        #: Per op: wall start, wall seconds, CPU seconds.
        ops: List[tuple] = []
        intervals = 0
        recorded_s = 0.0
        i = 0
        speed.sample(HostSpeed.NEAREST)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(ops) < MIN_OPS:
            item = corpus[i % len(corpus)]
            i += 1
            c0 = time.process_time()
            t0 = time.perf_counter()
            result = _run_op(item)
            ops.append((t0, time.perf_counter() - t0, time.process_time() - c0))
            out.attempted += 1
            if not op_ok(item, result):
                out.failed += 1
                out.problem(f"{item.name}: repeat digest differs")
            intervals += item.n_intervals
            recorded_s += item.recorded_s
            speed.maybe_sample()
        speed.sample(HostSpeed.NEAREST)
        slow = [speed.slowdown(t0 + wall / 2.0) for t0, wall, _cpu in ops]
        lat = [wall / s for (_t0, wall, _cpu), s in zip(ops, slow)]
        latency_metrics(out, lat)
        out.metrics["throughput_per_s"] = intervals / sum(lat)
        # Analysis CPU seconds spent per second of recorded program run.
        out.metrics["overhead_x"] = (
            sum(cpu / s for (_t0, _wall, cpu), s in zip(ops, slow)) / recorded_s)
        out.metrics["peak_rss_mb"] = self_peak_rss_mb()
        walls = [wall * 1e3 for _t0, wall, _cpu in ops]
        out.info["wall"] = {
            "setup_s": setup_wall, "latency_p50_ms": percentile(walls, 50),
            "latency_p90_ms": percentile(walls, 90),
            "throughput_per_s": intervals / sum(walls) * 1e3}
    else:
        # Traced and untraced ops alternate over the same items; the
        # ratio of their medians is the tracing overhead.
        ledger = Ledger()
        plain: List[float] = []
        traced: List[float] = []
        i = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            item = corpus[(i // 2) % len(corpus)]
            t0 = time.perf_counter()
            if i % 2 == 0:
                result = _run_op(item)
                plain.append(time.perf_counter() - t0)
            else:
                result = _run_op_traced(item, i, ledger)
                t1 = time.perf_counter()
                ledger.add(i, "op", t0, t1, parent="")
                traced.append(t1 - t0)
            i += 1
            out.attempted += 1
            if not op_ok(item, result):
                out.failed += 1
                out.problem(f"{item.name}: repeat digest differs")
        m = out.metrics
        for layer in LAYERS:  # milliseconds per traced op
            m[f"{layer}_ms"] = ledger.total[layer] / len(traced) * 1e3
        m["offline.accounted_fraction"] = (
            sum(ledger.total[layer] for layer in LAYERS) / ledger.total["op"])
        if m["offline.accounted_fraction"] < 0.9:
            out.problem("per-layer spans cover < 0.9 of op wall time")
        m["bench.tracing_overhead"] = (
            float(np.median(traced)) / float(np.median(plain)))
        ledger.dump(out_dir / f"spans-offline-corpus-seed{seed}.jsonl")

    # Oracle self-test on this run's own outputs.
    report, golden, result, digest = sample
    rng = np.random.default_rng(seed)
    shuffled = {tier: [_agreement(it, rng.permutation(it.labels), it.midpoints)
                       for it in corpus if it.tier == tier]
                for tier in TIER_FLOORS}
    oracles.selftest_offline(report, golden, result, digest, shuffled,
                             TIER_FLOORS)
    out.info["corpus_items"] = len(corpus)
    out.info["host_slowdown"] = speed.median_slowdown()
    return out
