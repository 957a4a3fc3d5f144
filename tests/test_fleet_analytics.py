"""Fleet analytics: signatures, cohorts, anomalies, drift, dashboard.

Unit tests run everywhere; the end-to-end tests bind loopback sockets
and carry the ``socket`` marker (deselect with ``-m "not socket"``).
"""

import json
import random
import urllib.request

import numpy as np
import pytest

from repro.core.cohorts import CohortMatcher, signature_distance
from repro.core.online import NOVEL, OnlinePhaseTracker
from repro.core.pipeline import AnalysisConfig, analyze_snapshots
from repro.fleet.analytics import (
    SIG_DIM,
    PhaseSignature,
    analyze_fleet_dir,
    analyze_signatures,
    cluster_signatures,
    detect_drift,
    flag_anomalies,
)
from repro.gprof.gmon import GmonData
from repro.service import DashboardServer, render_dashboard_html
from repro.store.segments import SegmentStore
from repro.util.errors import ValidationError


def steady_signature(stream_id, n=60, phase=0, **kwargs):
    return PhaseSignature.from_phase_sequence(
        stream_id, [phase] * n, **kwargs)


def alternating_signature(stream_id, n=60, **kwargs):
    return PhaseSignature.from_phase_sequence(
        stream_id, [i % 2 for i in range(n)], **kwargs)


def jittered_signature(stream_id, seed, n=60):
    """Mostly phase 0 with a sprinkle of phase 1 — same family, but
    enough member-to-member spread for a non-degenerate cohort."""
    rng = random.Random(seed)
    seq = [1 if rng.random() < 0.08 else 0 for _ in range(n)]
    return PhaseSignature.from_phase_sequence(stream_id, seq)


# ----------------------------------------------------------------------
# signature construction
# ----------------------------------------------------------------------
def test_signature_from_phase_sequence_counts_everything():
    seq = [0, 0, 1, 1, 0, NOVEL]
    sig = PhaseSignature.from_phase_sequence("s", seq, refit_indices=[3])
    assert sig.n_intervals == 6
    assert sig.n_phases == 2  # NOVEL is not a phase
    assert sig.occupancy[0] == pytest.approx(3 / 6)
    assert sig.occupancy[1] == pytest.approx(2 / 6)
    assert sig.novel_share == pytest.approx(1 / 6)
    # 3 changes over 5 adjacent pairs, each a distinct edge.
    assert sig.transition_rate == pytest.approx(3 / 5)
    assert sig.transitions[(0, 1)] == pytest.approx(1 / 3)
    assert sig.transitions[(1, 0)] == pytest.approx(1 / 3)
    assert sig.transitions[(0, NOVEL)] == pytest.approx(1 / 3)
    assert sig.refit_count == 1 and sig.refit_indices == [3]
    assert sig.timeline == seq


def test_signature_from_tracker_matches_tracker_accessors():
    base = [40.0, 10.0, 5.0]
    snapshots = []
    cum = [0.0, 0.0, 0.0]
    for i in range(30):
        dominant = 0 if i < 15 else 1
        snap = GmonData(rank=0, timestamp=float(i + 1))
        for j in range(3):
            cum[j] += base[j] * (4.0 if j == dominant else 1.0)
            snap.add_ticks(f"f{j}", int(cum[j]))
        snapshots.append(snap)
    analysis = analyze_snapshots(
        snapshots, AnalysisConfig(kmax=3, drop_short_final=False))
    tracker = OnlinePhaseTracker.from_analysis(analysis)
    for snap in snapshots:
        tracker.observe_snapshot(snap)
    sig = PhaseSignature.from_tracker("s", tracker, worker_id="w0")
    assert sig.n_intervals == len(tracker.phase_sequence())
    assert sig.model_version == tracker.model_version
    assert sig.worker_id == "w0"
    counts = tracker.phase_counts()
    for phase, count in counts.items():
        assert sig.occupancy[phase] == pytest.approx(
            count / sig.n_intervals)
    assert len(sig.centroid_norms) == len(tracker.centroids)


def test_signature_from_replay_reads_the_engine_model(tmp_path):
    snapshots = []
    cum = [0, 0, 0]
    for i in range(30):
        snap = GmonData(rank=0, timestamp=float(i + 1))
        for j in range(3):
            cum[j] += 40 if j == (i // 10) else 5
            snap.add_ticks(f"f{j}", cum[j])
        snapshots.append(snap)
    store = SegmentStore(tmp_path)
    for i, snap in enumerate(snapshots):
        store.append("s", i, snap)
    result = store.replay("s", warmup=8)
    sig = PhaseSignature.from_replay("s", result)
    assert sig.model_version == result.engine.model_version >= 1
    assert sig.refit_indices == [e.interval_index for e in result.refits]
    assert len(sig.centroid_norms) == result.engine.current_k


def test_signature_vector_is_fixed_length_and_bounded():
    for sig in (steady_signature("a"), alternating_signature("b"),
                PhaseSignature("empty")):
        vec = sig.vector()
        assert vec.shape == (SIG_DIM,)
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0 + 1e-9)


def test_signature_obj_round_trips_through_json():
    sig = PhaseSignature.from_phase_sequence(
        "job/0", [0, 1, 1, NOVEL, 0], refit_indices=[2, 4],
        model_version=3, centroids=np.ones((2, 4)), worker_id="w1")
    clone = PhaseSignature.from_obj(json.loads(json.dumps(sig.to_obj())))
    assert clone == sig
    assert np.allclose(clone.vector(), sig.vector())


def test_signature_from_obj_rejects_garbage():
    with pytest.raises(ValidationError):
        PhaseSignature.from_obj({})  # no stream_id
    with pytest.raises(ValidationError):
        PhaseSignature.from_obj(
            {"stream_id": "s", "transitions": {"nonsense": 0.5}})
    with pytest.raises(ValidationError):
        PhaseSignature.from_obj({"stream_id": "s", "occupancy": {"0": "x"}})


def test_signature_distance_rejects_shape_mismatch():
    with pytest.raises(ValidationError):
        signature_distance(np.zeros(3), np.zeros(4))


# ----------------------------------------------------------------------
# cohorts
# ----------------------------------------------------------------------
def test_cluster_separates_workload_shapes():
    signatures = ([steady_signature(f"steady-{i}") for i in range(3)]
                  + [alternating_signature(f"alt-{i}") for i in range(3)])
    labels, centroids = cluster_signatures(signatures)
    steady = {labels[i] for i in range(3)}
    alt = {labels[i] for i in range(3, 6)}
    assert not (steady & alt)
    assert centroids.shape[1] == SIG_DIM


def test_cluster_single_stream_is_one_cohort():
    labels, _ = cluster_signatures([steady_signature("only")])
    assert labels == [0]
    labels, centroids = cluster_signatures([])
    assert labels == [] and centroids.shape == (0, SIG_DIM)


def test_cohort_ids_stable_across_passes():
    matcher = CohortMatcher()
    signatures = ([steady_signature(f"steady-{i}") for i in range(3)]
                  + [alternating_signature(f"alt-{i}") for i in range(3)])
    first, _ = cluster_signatures(signatures, matcher=matcher)
    # Second pass: same population, streams listed in a different order.
    second, _ = cluster_signatures(list(reversed(signatures)),
                                   matcher=matcher)
    by_stream_first = {s.stream_id: l for s, l in zip(signatures, first)}
    by_stream_second = {s.stream_id: l
                        for s, l in zip(reversed(signatures), second)}
    assert by_stream_first == by_stream_second


# ----------------------------------------------------------------------
# anomalies
# ----------------------------------------------------------------------
def test_flag_anomalies_flags_the_outlier():
    signatures = [jittered_signature(f"s{i}", seed=i) for i in range(8)]
    signatures.append(alternating_signature("weird"))
    labels = [0] * len(signatures)  # force one cohort
    flagged = flag_anomalies(signatures, labels, threshold=1.5)
    assert flagged and flagged[0]["stream_id"] == "weird"
    assert flagged[0]["cohort"] == 0
    assert flagged[0]["distance"] > flagged[0]["cohort_mean"]


def test_flag_anomalies_needs_a_distribution():
    # Two-member cohorts carry no spread to diverge from.
    signatures = [steady_signature("a"), alternating_signature("b")]
    assert flag_anomalies(signatures, [0, 0]) == []
    with pytest.raises(ValidationError):
        flag_anomalies(signatures, [0, 0], threshold=0.0)


# ----------------------------------------------------------------------
# drift events
# ----------------------------------------------------------------------
def test_detect_drift_refit_wave():
    recent = [steady_signature(f"r{i}", n=100, refit_indices=[95])
              for i in range(3)]
    quiet = steady_signature("old", n=100, refit_indices=[10])
    events = detect_drift(recent + [quiet], [0, 0, 0, 0], window=20)
    assert len(events) == 1
    event = events[0]
    assert event["kind"] == "refit-wave" and event["cohort"] == 0
    assert event["streams"] == ["r0", "r1", "r2"]
    assert event["share"] == pytest.approx(3 / 4)


def test_detect_drift_novel_burst():
    burst = [PhaseSignature.from_phase_sequence(
        f"b{i}", [0] * 40 + [NOVEL if j % 2 else 0 for j in range(20)])
        for i in range(2)]
    events = detect_drift(burst, [0, 0], window=20, novel_threshold=0.4)
    assert [e["kind"] for e in events] == ["novel-burst"]
    assert events[0]["streams"] == ["b0", "b1"]


def test_detect_drift_one_stream_is_not_a_fleet_event():
    lone = steady_signature("solo", n=100, refit_indices=[99])
    calm = [steady_signature(f"c{i}", n=100) for i in range(3)]
    assert detect_drift([lone] + calm, [0, 0, 0, 0], window=10) == []
    with pytest.raises(ValidationError):
        detect_drift([lone], [0], window=0)


# ----------------------------------------------------------------------
# the full report
# ----------------------------------------------------------------------
def test_analyze_signatures_report_shape():
    signatures = ([steady_signature(f"steady-{i}") for i in range(3)]
                  + [alternating_signature(f"alt-{i}") for i in range(3)])
    report = analyze_signatures(signatures)
    assert report["n_streams"] == 6
    assert report["n_cohorts"] >= 2
    assert set(report["assignments"]) == {s.stream_id for s in signatures}
    sizes = sum(c["size"] for c in report["cohorts"])
    assert sizes == 6
    for cohort in report["cohorts"]:
        assert set(cohort["streams"]) <= set(report["assignments"])
    assert len(report["signatures"]) == 6
    json.dumps(report)  # wire-ready

    slim = analyze_signatures(signatures, include_signatures=False)
    assert "signatures" not in slim


def test_analyze_signatures_empty_population():
    report = analyze_signatures([])
    assert report["n_streams"] == 0 and report["n_cohorts"] == 0
    assert report["cohorts"] == [] and report["anomalies"] == []


# ----------------------------------------------------------------------
# offline: signatures from interval stores
# ----------------------------------------------------------------------
def make_store_series(n, pattern, funcs=12, seed=5):
    rng = random.Random(seed)
    cum = [0] * funcs
    out = []
    for i in range(n):
        dominant = pattern(i) % 4
        for j in range(funcs):
            if j % 4 == dominant:
                cum[j] += 40 + rng.randint(-2, 2)
            else:
                cum[j] += 5
        snap = GmonData(rank=0, timestamp=float(i + 1))
        for j in range(funcs):
            snap.add_ticks(f"work.f{j:02d}", cum[j])
        out.append(snap)
    return out


def test_analyze_fleet_dir_replays_worker_archives(tmp_path):
    patterns = {"steady": lambda i: 0, "alternating": lambda i: 1 + i % 2}
    for worker, kind in (("w0", "steady"), ("w1", "alternating")):
        store_dir = tmp_path / f"worker-{worker}" / "store"
        with SegmentStore(store_dir) as store:
            for s in range(2):
                series = make_store_series(60, patterns[kind], seed=s)
                for i, snap in enumerate(series):
                    store.append(f"{kind}-{s}", i, snap)
    report = analyze_fleet_dir(tmp_path, warmup=6)
    assert report["n_streams"] == 4
    assert len(report["stores"]) == 2
    assert report["skipped"] == []
    assigned = report["assignments"]
    steady = {assigned["steady-0"], assigned["steady-1"]}
    alt = {assigned["alternating-0"], assigned["alternating-1"]}
    assert not (steady & alt)
    # Worker identity rides along from the directory layout.
    by_id = {s["stream_id"]: s for s in report["signatures"]}
    assert by_id["steady-0"]["worker_id"] == "w0"
    assert by_id["alternating-0"]["worker_id"] == "w1"


def test_analyze_fleet_dir_without_archives_is_a_typed_error(tmp_path):
    with pytest.raises(ValidationError, match="archive-intervals"):
        analyze_fleet_dir(tmp_path)


# ----------------------------------------------------------------------
# dashboard
# ----------------------------------------------------------------------
def test_render_dashboard_lists_cohorts_and_events():
    signatures = ([jittered_signature(f"s{i}", seed=i) for i in range(4)]
                  + [alternating_signature("weird")])
    report = analyze_signatures(signatures, anomaly_threshold=1.0)
    html = render_dashboard_html(report)
    for sig in signatures:
        assert sig.stream_id in html
    assert "cohort" in html.lower()
    assert "analytics.json" in html


def test_render_dashboard_empty_report():
    html = render_dashboard_html(analyze_signatures([]))
    assert "no streams" in html.lower()


@pytest.mark.socket
def test_dashboard_server_serves_report():
    report = analyze_signatures([steady_signature("a"),
                                 alternating_signature("b")])
    with DashboardServer(lambda: report, port=0) as srv:
        with urllib.request.urlopen(srv.url, timeout=10) as resp:
            assert resp.status == 200
            assert b"incprofd" in resp.read()
        with urllib.request.urlopen(srv.url + "analytics.json",
                                    timeout=10) as resp:
            assert resp.status == 200
            fetched = json.loads(resp.read().decode())
        assert fetched["n_streams"] == 2
        with urllib.request.urlopen(srv.url + "healthz", timeout=10) as resp:
            assert resp.status == 200
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(srv.url + "nope", timeout=10)
        err.value.close()  # an HTTPError holds the response's socket
        assert err.value.code == 404


# ----------------------------------------------------------------------
# live daemon end to end (the fleet_analytics verb)
# ----------------------------------------------------------------------
@pytest.mark.socket
def test_daemon_fleet_analytics_verb_clusters_live_streams():
    from repro.service import (
        Endpoint, PhaseClient, PhaseMonitorServer, ServerConfig,
        SyntheticLoadGenerator, publish_samples,
    )

    generator = SyntheticLoadGenerator()
    analysis = analyze_snapshots(
        generator.stream(0, 24), AnalysisConfig(kmax=4,
                                                drop_short_final=False))
    template = OnlinePhaseTracker.from_analysis(analysis)
    config = ServerConfig(endpoint=Endpoint.tcp("127.0.0.1", 0))
    patterns = {"steady": lambda i: 0, "alternating": lambda i: 1 + i % 2}
    with PhaseMonitorServer(template, config) as server:
        for kind, pattern in patterns.items():
            for i in range(3):
                report = publish_samples(
                    server.endpoint, f"{kind}-{i}",
                    generator.stream(i, 40, pattern=pattern))
                assert report.error == ""
        with PhaseClient(server.endpoint) as client:
            reply = client.fleet_analytics()
        stats = server.stats()
    assert reply.ok
    data = reply.data
    # Publishers already said bye — the retained final signatures must
    # keep the finished streams visible to analytics.
    assert data["n_streams"] == 6
    assigned = data["assignments"]
    steady = {assigned[f"steady-{i}"] for i in range(3)}
    alt = {assigned[f"alternating-{i}"] for i in range(3)}
    assert not (steady & alt)
    # The pass summary rides in stats() for exposition.
    assert stats["analytics"]["streams"] == 6
    assert stats["analytics"]["cohorts"] == data["n_cohorts"]
