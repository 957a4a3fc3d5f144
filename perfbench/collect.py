"""collect-live: the paper apps' live kernels, plain and under the profiler.

One thread, closed loop.  An op runs one paper app's live kernel
(``AppModel.live_run().main``) plain, then again under
``TracingProfiler``, and at the kernel's end takes a ``snapshot()`` and
encodes it with ``dumps_gmon`` — collection at a fixed kernel boundary,
not on ``LiveCollector``'s wall-clock thread.  Ops rotate over the five
apps at scales that keep each kernel to tens of milliseconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from common import (MIN_OPS, HostSpeed, Ledger, Outcome, geomean,
                    latency_metrics, median, percentile, self_peak_rss_mb,
                    timed_setup)
import oracles

from repro.apps import get_app
from repro.apps.base import LiveRun
from repro.gprof.gmon import dumps_gmon
from repro.profiler.tracing import TracingProfiler, names_filter

#: (app, live scale): each kernel runs 10-50 ms plain on one core.
#: Profiled, their medians sit apart (about 20, 26, 37, 60 and 89 ms on
#: a 2-vCPU VM), so p50 and p90 fall mid-way through one app's share of
#: the ops (lammps', gadget2's).  At lammps 1.0 two apps shared the
#: middle at about 59 ms and p50 landed in the low tail of their mix.
APPS = (("graph500", 0.1), ("minife", 1.0), ("miniamr", 0.5),
        ("lammps", 0.7), ("gadget2", 0.1))
#: The sample period ``incprof live`` profiles with.
SAMPLE_PERIOD = 0.005


@dataclass
class Kernel:
    name: str
    scale: float
    live: LiveRun
    digest: str = ""
    arcs: int = 0


@dataclass
class Profiled:
    result: object
    snapshot: object
    blob: bytes
    kernel_s: float
    snapshot_s: float
    encode_s: float
    total_s: float


def _profiled(k: Kernel) -> Profiled:
    clock = time.perf_counter
    profiler = TracingProfiler(sample_period=SAMPLE_PERIOD,
                               name_filter=names_filter(k.live.function_names))
    t0 = clock()
    profiler.start()
    result = k.live.main(k.scale)
    t1 = clock()
    snapshot = profiler.snapshot()
    t2 = clock()
    profiler.stop()
    t3 = clock()
    blob = dumps_gmon(snapshot)
    t4 = clock()
    return Profiled(result, snapshot, blob, t1 - t0, t2 - t1, t4 - t3, t4 - t0)


def _plain(k: Kernel):
    t0 = time.perf_counter()
    result = k.live.main(k.scale)
    return result, time.perf_counter() - t0


def prepare_kernels() -> List[Kernel]:
    """Each app's kernel with its reference result digest and arc count."""
    kernels = []
    for name, scale in APPS:
        k = Kernel(name, scale, get_app(name).live_run())
        result, _ = _plain(k)
        k.digest = oracles.result_digest(result)
        k.arcs = sum(_profiled(k).snapshot.arcs.values())
        kernels.append(k)
    return kernels


def run(seed: int, seconds: float, trace: bool, root: Path, work: Path,
        out_dir: Path) -> Outcome:
    # The kernels carry their own fixed seeds; ``seed`` only rotates
    # which app the window starts with.
    out = Outcome()
    out.info.update(loop="closed", threads=1, connections=0,
                    apps={name: scale for name, scale in APPS})
    speed = HostSpeed()
    kernels, setup_s, setup_wall = timed_setup(lambda i: prepare_kernels(),
                                               speed)
    out.metrics["setup_s"] = setup_s

    ratios: Dict[str, List[float]] = {k.name: [] for k in kernels}
    #: Per op: wall start, whole op (both twins), profiled twin's start
    #: and its seconds.
    ops: List[tuple] = []
    untraced_ops: List[float] = []
    traced_ops: List[float] = []
    ledger: Optional[Ledger] = Ledger() if trace else None
    sample: Optional[tuple] = None
    op = 0
    i = seed % len(kernels)
    clock = time.perf_counter
    speed.sample(HostSpeed.NEAREST)
    deadline = clock() + seconds
    rotation = 0
    while clock() < deadline or len(ops) < MIN_OPS:
        # Traced runs alternate whole rotations with and without spans.
        spans = ledger if (trace and rotation % 2 == 1) else None
        for _ in range(len(kernels)):
            k = kernels[i % len(kernels)]
            i += 1
            t0 = clock()
            plain_result, plain_s = _plain(k)
            prof = _profiled(k)
            t1 = clock()
            if spans is not None:
                spans.add(op, "apps.kernel_plain", t0, t0 + plain_s)
                p0 = t0 + plain_s
                spans.add(op, "profiler.tracing.traced", p0, p0 + prof.kernel_s)
                spans.add(op, "profiler.tracing.snapshot", p0 + prof.kernel_s,
                          p0 + prof.kernel_s + prof.snapshot_s)
                spans.add(op, "gprof.encode", t1 - prof.encode_s, t1)
                spans.add(op, "op", t0, t1, parent="")
                traced_ops.append(t1 - t0)
            elif trace:
                untraced_ops.append(t1 - t0)
            op += 1
            out.attempted += 1
            ops.append((t0, t1 - t0, t0 + plain_s, prof.total_s))
            ratios[k.name].append(prof.total_s / plain_s)
            if not oracles.collect_op_ok(plain_result, prof.result,
                                         prof.snapshot, prof.blob,
                                         k.digest, k.arcs):
                out.failed += 1
                out.problem(f"{k.name}: a twin's result, the arc count or "
                            "the dump's round trip is wrong")
            if sample is None:
                sample = (k, prof)
            speed.maybe_sample()
        rotation += 1
    speed.sample(HostSpeed.NEAREST)

    if not trace:
        latency_metrics(out, [speed.scaled(p0, p) for _t0, _op, p0, p in ops])
        out.metrics["throughput_per_s"] = out.attempted / sum(
            speed.scaled(t0, whole) for t0, whole, _p0, _p in ops)
        # Each ratio pairs two twins run back to back, so the host's
        # speed cancels out of it without scaling.
        out.metrics["overhead_x"] = geomean([median(r) for r in ratios.values()])
        out.metrics["peak_rss_mb"] = self_peak_rss_mb()
        walls = [p * 1e3 for _t0, _op, _p0, p in ops]
        out.info["wall"] = {
            "setup_s": setup_wall, "latency_p50_ms": percentile(walls, 50),
            "latency_p90_ms": percentile(walls, 90),
            "throughput_per_s": out.attempted / sum(w for _t0, w, _p0, _p in ops)}
    else:
        m = out.metrics
        m["apps.kernel_plain_ms"] = ledger.mean("apps.kernel_plain") * 1e3
        m["profiler.tracing.traced_ms"] = ledger.mean("profiler.tracing.traced") * 1e3
        m["profiler.tracing.snapshot_us"] = (
            ledger.mean("profiler.tracing.snapshot") * 1e6)
        m["gprof.encode_us"] = ledger.mean("gprof.encode") * 1e6
        # Call arcs per op over one rotation of the five apps: exact.
        m["profiler.tracing.calls_per_op"] = (
            sum(k.arcs for k in kernels) / len(kernels))
        layers = ("apps.kernel_plain", "profiler.tracing.traced",
                  "profiler.tracing.snapshot", "gprof.encode")
        m["collect.accounted_fraction"] = (
            sum(ledger.total[x] for x in layers) / ledger.total["op"])
        if m["collect.accounted_fraction"] < 0.9:
            out.problem("per-layer spans cover < 0.9 of op wall time")
        m["bench.tracing_overhead"] = median(traced_ops) / median(untraced_ops)
        ledger.dump(out_dir / f"spans-collect-live-seed{seed}.jsonl")

    # Oracle self-test on this run's own outputs.
    k, prof = sample
    oracles.selftest_collect(prof.result, prof.snapshot, prof.blob,
                             k.digest, k.arcs)
    out.info["rotations"] = rotation
    out.info["host_slowdown"] = speed.median_slowdown()
    return out
