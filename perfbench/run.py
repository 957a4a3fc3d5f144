#!/usr/bin/env python3
"""perfbench: one workload, one seed, one measured window.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload offline-corpus --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The workloads, metrics and units are defined in
``BENCHMARK.json`` at the checkout root; see ``perfbench/README.md``
for what each one measures.  Standard output ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``,
preceded by a ``{"meta": ...}`` line stamping host, seed and loop type.
"""

import os

# Pin BLAS/OpenMP pools to one thread before NumPy loads, here and (by
# inheritance) in the daemon process the ingest workloads start.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

#: Per-layer metrics each workload measures.  A traced run reports every
#: per-layer metric of BENCHMARK.json; layers its workload never calls
#: read 0 (no work done there).
LAYERS = {
    "offline-corpus": (
        "gprof.decode_ms", "core.intervals.diff_ms", "core.features.build_ms",
        "core.phases.ksweep_ms", "core.instrumentation.select_ms",
        "offline.accounted_fraction", "bench.tracing_overhead"),
    "ingest-drift-archive": (
        "service.client.encode_us", "service.client.ack_us",
        "service.client.drain_ms", "service.protocol.frame_bytes",
        "daemon.cpu_us_per_interval", "loadgen.cpu_us_per_interval",
        "service.protocol.decode_us", "core.online.delta_us",
        "core.online.classify_us", "core.online.classify_adaptive_us",
        "core.incremental.refit_ms",
        "core.incremental.refits", "store.segments.append_us",
        "store.segments.bytes_per_interval", "service.refit_skew_intervals",
        "bench.tracing_overhead"),
    "collect-live": (
        "apps.kernel_plain_ms", "profiler.tracing.traced_ms",
        "profiler.tracing.snapshot_us", "gprof.encode_us",
        "profiler.tracing.calls_per_op", "collect.accounted_fraction",
        "bench.tracing_overhead"),
}


def _workload_module(name: str):
    if name == "offline-corpus":
        import offline
        return offline.run
    if name == "ingest-drift-archive":
        import ingest
        return ingest.run
    if name == "collect-live":
        import collect
        return collect.run
    raise SystemExit(f"unknown workload {name!r}")


def _cpu_ticks() -> list:
    """The aggregate ``cpu`` line of ``/proc/stat`` (user .. steal, guest)."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def _host_meta(spec: dict, args) -> dict:
    import numpy

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    wanted = [m["name"] for m in
              (spec["per_layer"] if args.trace else spec["end_to_end"])]

    from common import OUT_DIRNAME, WORK_DIRNAME

    # SIGTERM unwinds like an exception, so a stopped run still shuts
    # its daemon down and removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    run = _workload_module(args.workload)
    work = ROOT / WORK_DIRNAME / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ticks0 = _cpu_ticks()
    try:
        outcome = run(args.seed, args.seconds, bool(args.trace), ROOT, work,
                      ROOT / OUT_DIRNAME)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / WORK_DIRNAME).rmdir()
        except OSError:
            pass  # another run still holds its own scratch directory

    metrics = dict(outcome.metrics)
    if args.trace:
        metrics.pop("setup_s", None)
        own = set(LAYERS[args.workload])
        missing = own - set(metrics)
        if missing:
            raise RuntimeError(f"workload did not measure {sorted(missing)}")
        for name in wanted:
            metrics.setdefault(name, 0.0)
    unknown = set(metrics) - set(wanted)
    missing = set(wanted) - set(metrics)
    if unknown or missing:
        raise RuntimeError(f"metric mismatch: unknown {sorted(unknown)}, "
                           f"missing {sorted(missing)}")
    units = {m["name"]: m["unit"] for m in
             (spec["per_layer"] if args.trace else spec["end_to_end"])}

    meta = _host_meta(spec, args)
    # Share of all CPU time the hypervisor gave to other guests during
    # the run: on a shared host this, not the program, moves the timings.
    delta = [b - a for a, b in zip(ticks0, _cpu_ticks())]
    meta["host_steal_share"] = delta[7] / max(1, sum(delta))
    meta.update(outcome.info)
    for text in outcome.problems:
        print(f"problem: {text}", file=sys.stderr)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
