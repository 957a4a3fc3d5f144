"""Performance-regression runner: stage timings with a trajectory file.

Times the four analysis stages (interval differencing, k-means at the
paper's typical k, the full k sweep, and end-to-end analysis) at paper
scale — MiniFE, ~600 intervals — and writes ``BENCH_perf.json`` at the
repo root so future PRs can compare against a recorded trajectory.

For an honest speedup figure on a shared/noisy box, the seed revision's
kernels are benchmarked *interleaved* with the current tree: the seed's
``src/`` is extracted read-only via ``git archive`` and both variants run
alternately as subprocesses, taking the per-stage minimum over rounds.
Cross-process clock drift then hits both variants equally.

Marked ``slow``: tier-1 (``pytest -q`` over ``tests/``) never runs this.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
#: The growth seed: the revision whose kernels are the baseline.
SEED_REV = "34b105b"
ROUNDS = 3

#: CI smoke mode: single-round, current-tree-only timings compared
#: against the committed ``BENCH_perf.json`` (>2x regression fails).
QUICK = os.environ.get("BENCH_PERF_QUICK") == "1"

#: Timing harness run in a subprocess with PYTHONPATH pointing at either
#: the seed's ``src`` or the current one.  Only touches APIs that exist
#: in both revisions.
_TIMER_SCRIPT = r"""
import json, sys, time

from repro.apps import get_app
from repro.incprof.session import Session, SessionConfig
from repro.core.intervals import intervals_from_snapshots
from repro.core.kmeans import kmeans
from repro.core.kselect import silhouette_score, wcss_curve
from repro.core.pipeline import analyze_snapshots

samples = Session(get_app("minife"), SessionConfig(ranks=1)).run().samples(0)
data = intervals_from_snapshots(samples).drop_inactive_functions()
features = data.self_time
k5 = kmeans(features, 5, 0)


def best_ms(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times) * 1e3


out = {
    "n_intervals": data.n_intervals,
    "differencing": best_ms(lambda: intervals_from_snapshots(samples), 5),
    "kmeans": best_ms(lambda: kmeans(features, 5, 0), 5),
    "silhouette": best_ms(lambda: silhouette_score(features, k5.labels), 5),
    "ksweep": best_ms(lambda: wcss_curve(features, kmax=8, seed=0), 3),
    "end_to_end": best_ms(lambda: analyze_snapshots(samples), 3),
}
print(json.dumps(out))
"""

STAGES = ("differencing", "kmeans", "silhouette", "ksweep", "end_to_end")


#: BLAS/OpenMP pools pinned to one thread in the timing subprocess, as
#: perfbench does: on a small shared box a multi-threaded BLAS makes the
#: silhouette and end-to-end stages read several times their pinned cost.
BLAS_THREADS = {var: "1" for var in
                ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _run_timer(src_dir: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src_dir), **BLAS_THREADS)
    proc = subprocess.run(
        [sys.executable, "-c", _TIMER_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
        cwd=str(REPO_ROOT),
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _extract_seed_src(dest: Path) -> Path:
    """Seed revision's ``src/`` via ``git archive`` (read-only on .git)."""
    archive = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "archive", SEED_REV, "src"],
        capture_output=True, check=True,
    )
    tar = dest / "seed.tar"
    tar.write_bytes(archive.stdout)
    subprocess.run(["tar", "-xf", str(tar), "-C", str(dest)], check=True)
    return dest / "src"


def _merge_min(rounds: list) -> dict:
    return {stage: min(r[stage] for r in rounds) for stage in STAGES}


def _merge_into_bench_json(updates: dict) -> dict:
    """Fold one benchmark's record into ``BENCH_perf.json``.

    Each benchmark owns its top-level keys; merging (rather than
    overwriting the file) lets the stage trajectory and the streaming
    benchmark update independently.
    """
    path = REPO_ROOT / "BENCH_perf.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    record.update(updates)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


@pytest.mark.slow
def test_perf_regression_trajectory():
    with tempfile.TemporaryDirectory(prefix="incprof-seed-") as tmp:
        try:
            seed_src = _extract_seed_src(Path(tmp))
        except (subprocess.CalledProcessError, OSError):
            seed_src = None  # shallow clone or missing rev: new-only record

        new_rounds, seed_rounds = [], []
        for _ in range(ROUNDS):
            if seed_src is not None:
                seed_rounds.append(_run_timer(seed_src))
            new_rounds.append(_run_timer(REPO_ROOT / "src"))

    new_ms = _merge_min(new_rounds)
    record = {
        "app": "minife",
        "scale": 1.0,
        "n_intervals": new_rounds[0]["n_intervals"],
        "unit": "ms",
        "method": (f"min over {ROUNDS} interleaved subprocess rounds; "
                   f"seed baseline from git archive {SEED_REV}"),
        "generated_unix": int(time.time()),
        "stages": new_ms,
    }
    if seed_rounds:
        seed_ms = _merge_min(seed_rounds)
        record["seed_stages"] = seed_ms
        record["speedup"] = {stage: round(seed_ms[stage] / new_ms[stage], 2)
                             for stage in STAGES}

    record = _merge_into_bench_json(record)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))

    assert record["n_intervals"] > 500  # paper scale
    if seed_rounds:
        # Acceptance: the vectorized kernels buy >=3x on the hot stages.
        for stage in ("kmeans", "silhouette", "end_to_end"):
            assert record["speedup"][stage] >= 3.0, (stage, record["speedup"])


@pytest.mark.slow
def test_streaming_incremental_speedup():
    """The streaming engine's O(1)-per-snapshot claim, measured.

    Before the incremental engine, "live" analysis meant re-running
    ``analyze_snapshots`` on the whole prefix after every dump —
    O(n) differencing plus a full re-cluster each time, O(n^2) overall.
    The engine ingests each snapshot once (delta against the previous
    dump only, amortized-O(1) matrix append, constant-size classify).
    This benchmark times both workflows over the same 100+ interval
    stream and records the speedup; 10x is the acceptance floor, and
    the per-snapshot cost of the second half of the stream must stay
    flat relative to the first (the actual O(1) evidence).
    """
    from repro.apps import get_app
    from repro.core.incremental import IncrementalAnalyzer
    from repro.core.pipeline import analyze_snapshots
    from repro.incprof.session import Session, SessionConfig

    samples = Session(get_app("synthetic"),
                      SessionConfig(ranks=1)).run().samples(0)
    n = len(samples)
    assert n >= 100  # the claim is about sustained streams

    def time_streaming() -> tuple:
        engine = IncrementalAnalyzer(track=True)
        t0 = time.perf_counter()
        for snapshot in samples[:n // 2]:
            engine.observe(snapshot)
        t_half = time.perf_counter()
        for snapshot in samples[n // 2:]:
            engine.observe(snapshot)
        t1 = time.perf_counter()
        return (t1 - t0) * 1e3, (t_half - t0) * 1e3, (t1 - t_half) * 1e3

    def time_batch_per_snapshot() -> float:
        t0 = time.perf_counter()
        for i in range(2, n + 1):
            analyze_snapshots(samples[:i])
        return (time.perf_counter() - t0) * 1e3

    rounds = 1 if QUICK else 3
    stream_runs = [time_streaming() for _ in range(rounds)]
    stream_ms, first_half_ms, second_half_ms = min(stream_runs)
    batch_ms = min(time_batch_per_snapshot() for _ in range(rounds))

    speedup = batch_ms / stream_ms
    record = {
        "streaming": {
            "app": "synthetic",
            "n_intervals": n,
            "unit": "ms",
            "streaming_total": round(stream_ms, 3),
            "per_snapshot_us": round(stream_ms * 1e3 / n, 1),
            "batch_per_snapshot_total": round(batch_ms, 3),
            "speedup": round(speedup, 1),
            "half_split": [round(first_half_ms, 3),
                           round(second_half_ms, 3)],
        },
    }
    if not QUICK:
        _merge_into_bench_json(record)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))

    # acceptance: 10x+ over re-analyzing the prefix per dump...
    assert speedup >= 10.0, f"streaming speedup only {speedup:.1f}x"
    # ...and flat per-snapshot cost (second half classifies against the
    # same fixed-size model; allow slack for refits landing there)
    assert second_half_ms <= 3.0 * max(first_half_ms, 1.0), \
        (first_half_ms, second_half_ms)


@pytest.mark.slow
def test_wire_throughput():
    """The wire path's two submission shapes, measured.

    The same pre-serialized snapshot stream is replayed against live
    ``incprofd`` daemons twice per round: once with one
    ``PhaseClient.snapshot`` round trip per interval, once through
    ``publish_samples``' burst-pipelined window.  Both lanes put the
    same binary frames on the wire; they differ only in how many round
    trips they wait for.  Each lane gets its own daemon subprocess
    (sharing one interpreter would let the server's GIL slices distort
    the client's clock), spawned once and reused; rounds are
    interleaved after one warmup replay per lane so machine noise hits
    adjacent lane runs about equally, and the headline speedup is the
    *median of per-round ratios* — pairing each single-shot run with
    the burst run beside it cancels drift that best-of-lane comparisons
    do not.  The floor is that pipelining is not slower than one
    request per interval, at equal correctness: every replay must drain
    cleanly, have every interval accepted, and produce the identical
    classification timeline.
    """
    import gc
    import socket

    from repro.api import save_model
    from repro.core.online import OnlinePhaseTracker
    from repro.core.pipeline import AnalysisConfig, analyze_snapshots
    from repro.gprof.gmon import GmonBlob, dumps_gmon
    from repro.service.client import (PIPELINE_WINDOW, PhaseClient,
                                      SyntheticLoadGenerator,
                                      publish_samples)
    from repro.service.protocol import (Endpoint, SnapshotMsg,
                                        encode_message)
    from repro.util.errors import ReproError

    # A wider function set than the chaos tests use: frame cost, which
    # is what this stage measures, scales with the function table.
    gen = SyntheticLoadGenerator(
        functions=tuple(f"func_{i:02d}" for i in range(96)))
    template = OnlinePhaseTracker.from_analysis(
        analyze_snapshots(gen.stream(0, 24), AnalysisConfig(kmax=4)))
    n = 60 if QUICK else 400
    # Publishers hand the client pre-serialized dumps (GmonBlob), whose
    # bytes both lanes forward zero-copy.
    raw = [dumps_gmon(s) for s in gen.stream(1, n)]
    rounds = 1 if QUICK else 5

    def spawn_daemon(model_path: str):
        sk = socket.socket()
        sk.bind(("127.0.0.1", 0))
        port = sk.getsockname()[1]
        sk.close()
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model", model_path,
             "--port", str(port), "--log-level", "error"],
            env=env, cwd=str(REPO_ROOT),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        endpoint = Endpoint.tcp("127.0.0.1", port)
        deadline = time.time() + 30
        while time.time() < deadline:
            try:
                with PhaseClient(endpoint) as probe:
                    probe.ping()
                return proc, endpoint
            except (ReproError, OSError):
                time.sleep(0.1)
        proc.kill()
        proc.wait()
        raise RuntimeError("wire bench daemon did not come up in 30s")

    def replay_single(endpoint, stream_id: str) -> tuple:
        samples = [GmonBlob(b) for b in raw]
        gc.disable()
        try:
            t0 = time.perf_counter()
            with PhaseClient(endpoint) as client:
                client.hello(stream_id)
                acks = [client.snapshot(stream_id, seq, snap)
                        for seq, snap in enumerate(samples)]
                bye = client.bye(stream_id)
            elapsed = time.perf_counter() - t0
        finally:
            gc.enable()
        assert bye.data["drained"], bye.data
        accepted = sum(ack.data["outcome"] == "accepted" for ack in acks)
        assert accepted == n
        return n / elapsed, bye.data["phase_sequence"]

    def replay_burst(endpoint, stream_id: str) -> tuple:
        samples = [GmonBlob(b) for b in raw]
        gc.disable()
        try:
            t0 = time.perf_counter()
            report = publish_samples(endpoint, stream_id, samples,
                                     trace=False)
            elapsed = time.perf_counter() - t0
        finally:
            gc.enable()
        assert report.error == "" and report.drained, report.error
        assert report.accepted == n and report.rejected == 0
        return n / elapsed, report.phase_sequence

    def lane_p99_ms(endpoint) -> float:
        with PhaseClient(endpoint) as probe:
            return probe.stats().data["classify_latency"]["p99"] * 1e3

    with tempfile.TemporaryDirectory(prefix="incprof-wire-") as tmp:
        model_path = os.path.join(tmp, "wire-model.json")
        save_model(template, model_path)
        daemons = [spawn_daemon(model_path) for _ in range(2)]
        (_single_proc, single_ep), (_burst_proc, burst_ep) = daemons
        try:
            replay_single(single_ep, "wire-warm-single")
            replay_burst(burst_ep, "wire-warm-burst")
            single_rates, burst_rates = [], []
            timelines = set()
            for r in range(rounds):
                rate, timeline = replay_single(single_ep, f"wire-single-{r}")
                single_rates.append(rate)
                timelines.add(tuple(timeline))
                rate, timeline = replay_burst(burst_ep, f"wire-burst-{r}")
                burst_rates.append(rate)
                timelines.add(tuple(timeline))
            single_p99 = lane_p99_ms(single_ep)
            burst_p99 = lane_p99_ms(burst_ep)
        finally:
            for proc, _ep in daemons:
                proc.kill()
                proc.wait()
    # Equal correctness: every replay, either lane, classified the
    # stream identically.
    assert len(timelines) == 1

    ratios = sorted(b / s for s, b in zip(single_rates, burst_rates))
    speedup = ratios[len(ratios) // 2]
    probe_msg = SnapshotMsg(stream_id="wire-size", seq=n - 1,
                            gmon=GmonBlob(raw[-1]))
    record = {
        "wire": {
            "app": "synthetic",
            "n_intervals": n,
            "functions": len(gen.functions),
            "pipeline_window": PIPELINE_WINDOW,
            "frame_bytes": len(encode_message(probe_msg)),
            "single_submissions_per_sec": round(max(single_rates), 1),
            "burst_submissions_per_sec": round(max(burst_rates), 1),
            "per_round_speedups": [round(r, 2) for r in ratios],
            "speedup": round(speedup, 2),
            "p99_classify_ms": {"single": round(single_p99, 3),
                                "burst": round(burst_p99, 3)},
        },
    }
    if not QUICK:
        _merge_into_bench_json(record)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))

    # Acceptance: pipelining is not slower than one request per
    # interval.  On a 2-vCPU VM three full runs (400 intervals of 96
    # functions, 5 rounds each) read burst/single ratios of 1.05-2.91
    # per round, medians 1.67, 2.28 and 2.02, and four QUICK rounds of
    # 60 intervals read 1.40-2.24; 1.0 sits below every measured round.
    assert speedup >= 1.0, f"pipelined submission only {speedup:.2f}x"


@pytest.mark.slow
def test_storage_throughput():
    """The tiered segment store's hot paths: append, replay, compact.

    Appends a cumulative synthetic stream into a fresh ``SegmentStore``,
    replays it through the streaming engine via the time-travel API, and
    compacts the raw tier down to interval vectors, recording
    appends/sec, replay intervals/sec, and the on-disk compaction ratio
    in ``BENCH_perf.json``.  The floors are deliberately loose (4x+
    headroom on a dev box) — they exist to catch an accidental
    O(n)-flush-per-append or a replay path that re-opens segments per
    interval, not to benchmark the machine.
    """
    import random
    import shutil

    from repro.gprof.gmon import GmonData
    from repro.store.segments import SegmentStore

    n = 400 if QUICK else 4000
    funcs = 48
    rng = random.Random(5)
    names = [f"bench.mod_{j // 8}.func_{j:03d}" for j in range(funcs)]
    rates = [[rng.randint(8, 60) if j % 3 == p else 0
              for j in range(funcs)] for p in range(3)]
    cum = [0] * funcs
    series = []
    for i in range(n):
        phase = (i // 25) % 3
        for j in range(funcs):
            if rates[phase][j]:
                cum[j] += max(0, rates[phase][j] + rng.randint(-2, 2))
        snap = GmonData(rank=0, timestamp=float(i + 1))
        for j, name in enumerate(names):
            if cum[j]:
                snap.add_ticks(name, cum[j])
        series.append(snap)

    with tempfile.TemporaryDirectory(prefix="incprof-store-") as tmp:
        root = Path(tmp) / "store"
        store = SegmentStore(root, segment_intervals=256)
        t0 = time.perf_counter()
        for i, snap in enumerate(series):
            store.append("bench", i, snap)
        store.flush()
        append_s = time.perf_counter() - t0
        appends_per_sec = n / append_s

        result = store.replay("bench", warmup=8)
        assert result.n_intervals == n

        du = lambda: sum(p.stat().st_size for p in root.rglob("*")
                         if p.is_file())
        bytes_before = du()
        t0 = time.perf_counter()
        store.compact("bench", raw_keep=0)
        compact_s = time.perf_counter() - t0
        bytes_after = du()

        # Replay must survive (and not slow down through) the vector tier.
        vec_result = store.replay("bench", warmup=8)
        assert vec_result.n_intervals == n
        shutil.rmtree(root, ignore_errors=True)

    record = {
        "storage": {
            "n_intervals": n,
            "functions": funcs,
            "appends_per_sec": round(appends_per_sec, 1),
            "replay_intervals_per_sec": round(
                result.intervals_per_second, 1),
            "replay_intervals_per_sec_vector": round(
                vec_result.intervals_per_second, 1),
            "compact_seconds": round(compact_s, 3),
            "bytes_raw": bytes_before,
            "bytes_compacted": bytes_after,
            "compaction_ratio": round(bytes_before / max(bytes_after, 1), 2),
        },
    }
    if not QUICK:
        _merge_into_bench_json(record)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))

    # CI floors: far under healthy numbers, far over pathological ones.
    assert appends_per_sec >= 500, f"append only {appends_per_sec:.0f}/s"
    assert result.intervals_per_second >= 300, \
        f"replay only {result.intervals_per_second:.0f} intervals/s"
    assert bytes_after < bytes_before  # compaction must shrink the store


@pytest.mark.slow
def test_analytics_throughput():
    """Fleet analytics hot paths: signature extraction and clustering.

    Builds a synthetic fleet of phase sequences across a few behaviour
    families, takes ``PhaseSignature``s, and runs the full
    ``analyze_signatures`` cohort/anomaly/drift pass, recording
    signatures/sec and cluster-pass seconds in ``BENCH_perf.json``.
    Floors are loose sanity bounds — signature extraction is O(n) in
    intervals and the cluster pass is a small k-means sweep; the guard
    catches an accidental O(n²) transition build or a per-pass
    re-vectorization blowup, not machine speed.
    """
    import random

    from repro.fleet.analytics import PhaseSignature, analyze_signatures

    n_streams = 24 if QUICK else 96
    n_intervals = 400 if QUICK else 2000
    rng = random.Random(7)
    families = [
        lambda i: 0,                      # steady
        lambda i: i % 2,                  # alternating
        lambda i: (i // 50) % 3,          # slow rotation
        lambda i: rng.randrange(4),       # noisy
    ]
    sequences = [
        [families[s % len(families)](i) for i in range(n_intervals)]
        for s in range(n_streams)
    ]

    t0 = time.perf_counter()
    signatures = [
        PhaseSignature.from_phase_sequence(f"bench-{s}", seq)
        for s, seq in enumerate(sequences)
    ]
    signature_s = time.perf_counter() - t0
    signatures_per_sec = n_streams / signature_s

    t0 = time.perf_counter()
    report = analyze_signatures(signatures, include_signatures=False)
    cluster_s = time.perf_counter() - t0
    assert report["n_streams"] == n_streams
    assert report["n_cohorts"] >= 2  # the families must not collapse

    record = {
        "analytics": {
            "n_streams": n_streams,
            "n_intervals": n_intervals,
            "signatures_per_sec": round(signatures_per_sec, 1),
            "signature_seconds": round(signature_s, 4),
            "cluster_pass_seconds": round(cluster_s, 4),
            "n_cohorts": report["n_cohorts"],
        },
    }
    if not QUICK:
        _merge_into_bench_json(record)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))

    assert signatures_per_sec >= 20, \
        f"signature extraction only {signatures_per_sec:.0f}/s"
    assert cluster_s < 30.0, f"cluster pass took {cluster_s:.1f}s"


@pytest.mark.slow
def test_scenario_throughput():
    """Scenario engine hot paths: generation and the end-to-end sweep.

    Generation is pure spec construction (SeedSequence draws, no
    engine) and must stay effectively free — thousands per second — so
    populations can be materialized inline anywhere.  The sweep runs
    each scenario through simulation + full analysis; its throughput
    bounds how large an accuracy distribution CI can afford.  Accuracy
    itself is gated here too: the quick sweep doubles as the
    scenario-sweep smoke floor (easy-tier median agreement).
    """
    from repro.eval.scenarios import sweep_scenarios

    n = 9 if QUICK else 30
    report = sweep_scenarios(n=n, seed=0)

    record = {
        "scenario_throughput": {
            "n_scenarios": n,
            "generation_per_sec": report["generation_per_sec"],
            "scenarios_per_sec": report["scenarios_per_sec"],
            "generation_seconds": report["generation_seconds"],
            "sweep_seconds": report["sweep_seconds"],
            "easy_median_agreement":
                report["tiers"]["easy"]["median_agreement"],
        },
    }
    if not QUICK:
        _merge_into_bench_json(record)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))

    # Floors are loose sanity bounds, not machine-speed assertions.
    assert report["generation_per_sec"] >= 50, \
        f"generation only {report['generation_per_sec']:.0f}/s"
    assert report["scenarios_per_sec"] >= 2, \
        f"sweep only {report['scenarios_per_sec']:.1f} scenarios/s"
    assert report["tiers"]["easy"]["median_agreement"] >= 0.9


@pytest.mark.slow
@pytest.mark.skipif(not QUICK,
                    reason="CI smoke only: set BENCH_PERF_QUICK=1")
def test_quick_bench_guard():
    """CI quick-bench: current-tree stage timings vs the recorded file.

    One subprocess round, no seed interleave — catches gross (>2x)
    regressions in seconds.  The 2x tolerance absorbs runner-speed
    variance between the box that recorded ``BENCH_perf.json`` and the
    CI machine; the full interleaved trajectory stays a local tool.
    """
    baseline = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())
    stages = baseline["stages"]
    now = _run_timer(REPO_ROOT / "src")
    regressions = {
        stage: {"now_ms": round(now[stage], 2),
                "recorded_ms": round(stages[stage], 2)}
        for stage in STAGES if now[stage] > 2.0 * stages[stage]
    }
    assert not regressions, \
        f"stage(s) regressed >2x vs BENCH_perf.json: {regressions}"
