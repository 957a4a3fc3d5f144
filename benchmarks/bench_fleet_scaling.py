"""Fleet scaling: classify throughput and submit latency vs worker count.

Spawns a real fleet (worker subprocesses behind the proxy router) at
1/2/4/8 workers, drives the same synthetic load through each size, and
records classify throughput plus client-observed p50/p99 submit latency
into ``BENCH_perf.json`` under ``"fleet_scaling"``.

Honesty note: consistent hashing makes throughput scale only when the
box has cores to back the workers — on a single-core runner the workers
time-slice one CPU and the curve is flat (the record says so via
``cpu_count``).  The ≥3x acceptance at 4 workers is therefore gated on
``os.cpu_count() >= 4``; every run still asserts the routing invariants
(all streams drained, no errors, work spread across workers).

Marked ``slow``: tier-1 (``pytest -q`` over ``tests/``) never runs this.
Quick mode (``BENCH_PERF_QUICK=1``) runs 1/2 workers with a short load
as a CI smoke and does not rewrite the recorded numbers.
"""

import json
import os
import time

import numpy as np
import pytest

from benchmarks.bench_perf_regression import QUICK, _merge_into_bench_json
from repro.core.model_io import save_model
from repro.core.pipeline import AnalysisConfig, analyze_snapshots
from repro.fleet import FleetConfig, FleetRouter, RouterConfig, WorkerSupervisor
from repro.service import (
    Endpoint,
    PhaseClient,
    RetryPolicy,
    SyntheticLoadGenerator,
)

FLEET_SIZES = (1, 2) if QUICK else (1, 2, 4, 8)
N_STREAMS = 4 if QUICK else 8
N_INTERVALS = 20 if QUICK else 40
LATENCY_PROBES = 50 if QUICK else 200

RETRY = RetryPolicy(max_attempts=4, base_delay=0.05, max_delay=0.5,
                    request_timeout=30.0)


def _measure_fleet(n_workers: int, root: str, model_path: str,
                   gen: SyntheticLoadGenerator) -> dict:
    config = FleetConfig(root=root, n_workers=n_workers,
                         model_path=model_path,
                         checkpoint_interval=10.0, ping_interval=2.0,
                         log_level="error")
    with WorkerSupervisor(config) as supervisor:
        with FleetRouter(supervisor,
                         RouterConfig(endpoint=Endpoint.tcp("127.0.0.1", 0),
                                      log_level="error")) as router:
            load = gen.run(router.endpoint, N_STREAMS, N_INTERVALS,
                           stream_prefix=f"bench{n_workers}", retry=RETRY)
            assert load.processed == N_STREAMS * N_INTERVALS, (
                f"{n_workers} workers: processed {load.processed}")
            assert all(r.drained and not r.error
                       for r in load.streams.values())

            # client-observed submit latency on a dedicated stream
            latencies = []
            samples = gen.stream(99, LATENCY_PROBES)
            with PhaseClient(router.endpoint, retry=RETRY) as client:
                client.hello("latency-probe")
                for seq, sample in enumerate(samples):
                    t0 = time.perf_counter()
                    client.snapshot("latency-probe", seq, sample)
                    latencies.append(time.perf_counter() - t0)
                client.bye("latency-probe")

            stats = router.merged_stats()
            spread = {wid: rec["processed"]
                      for wid, rec in stats["per_worker"].items()}
    lat = np.asarray(latencies)
    return {
        "throughput_per_s": round(load.processed / load.elapsed, 1),
        "elapsed_s": round(load.elapsed, 3),
        "submit_p50_ms": round(float(np.quantile(lat, 0.5)) * 1e3, 3),
        "submit_p99_ms": round(float(np.quantile(lat, 0.99)) * 1e3, 3),
        "processed_per_worker": spread,
        "latency_merge": stats["classify_latency_source"]["kind"],
    }


@pytest.mark.slow
def test_fleet_scaling_throughput(tmp_path):
    gen = SyntheticLoadGenerator()
    analysis = analyze_snapshots(
        gen.stream(0, 24), AnalysisConfig(kmax=4, drop_short_final=False))
    model_path = str(tmp_path / "model.ipm")
    save_model(analysis, model_path)

    results = {}
    for n_workers in FLEET_SIZES:
        results[str(n_workers)] = _measure_fleet(
            n_workers, str(tmp_path / f"fleet-{n_workers}"), model_path, gen)

    record = {
        "fleet_scaling": {
            "cpu_count": os.cpu_count(),
            "n_streams": N_STREAMS,
            "n_intervals": N_INTERVALS,
            "mode": "proxy",
            "unit": {"throughput": "intervals/s", "latency": "ms"},
            "workers": results,
        },
    }
    if not QUICK:
        _merge_into_bench_json(record)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))

    # Routing invariants hold at every size: multi-worker fleets spread
    # the streams (consistent hashing never piles everything on one
    # worker at these sizes) and merge latency exactly.
    for n_workers, rec in results.items():
        if int(n_workers) > 1:
            busy = [w for w, n in rec["processed_per_worker"].items() if n > 0]
            assert len(busy) > 1, (n_workers, rec["processed_per_worker"])
        assert rec["latency_merge"] in ("merged-window", "exact")

    # The scaling acceptance needs actual cores behind the workers.
    if not QUICK and "4" in results and (os.cpu_count() or 1) >= 4:
        speedup = (results["4"]["throughput_per_s"]
                   / results["1"]["throughput_per_s"])
        assert speedup >= 3.0, f"4-worker speedup only {speedup:.2f}x"
