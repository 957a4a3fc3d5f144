"""The incremental streaming engine: batch equivalence and live refits."""

import numpy as np
import pytest

from repro.apps import get_app
from repro.core.incremental import (
    NOVEL,
    AdaptiveConfig,
    DriftConfig,
    DriftDetector,
    IncrementalAnalyzer,
    RefitEvent,
    bounded_resweep,
    calibrate_gates,
    match_phase_labels,
)
from repro.core.online import OnlinePhaseTracker
from repro.core.pipeline import AnalysisConfig, analyze_snapshots
from repro.gprof.gmon import GmonData
from repro.incprof.session import Session, SessionConfig
from repro.util.errors import ProfileDataError, ValidationError


@pytest.fixture(scope="module")
def synthetic_samples():
    session = Session(get_app("synthetic"), SessionConfig(ranks=1, seed=111))
    return session.run().samples(0)


# ----------------------------------------------------------------------
# the regression test the refactor is pinned by: one-at-a-time == batch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("app_name,seed", [
    ("synthetic", 111),
    ("graph500", 42),
    ("minife", 7),
])
def test_streaming_finalize_equals_batch(app_name, seed):
    """Feeding cumulative snapshots one at a time and finalizing must
    reproduce the batch pipeline exactly — same interval matrices, same
    features, same clustering, same selected sites."""
    session = Session(get_app(app_name), SessionConfig(ranks=1, seed=seed))
    samples = session.run().samples(0)
    config = AnalysisConfig()
    batch = analyze_snapshots(samples, config)

    engine = IncrementalAnalyzer(config, track=False)
    for snapshot in samples:
        engine.observe(snapshot)
    streamed = engine.finalize()

    assert streamed.interval_data.functions == batch.interval_data.functions
    np.testing.assert_array_equal(streamed.interval_data.self_time,
                                  batch.interval_data.self_time)
    np.testing.assert_array_equal(streamed.features, batch.features)
    assert streamed.n_phases == batch.n_phases
    np.testing.assert_array_equal(streamed.phase_model.labels,
                                  batch.phase_model.labels)
    assert (streamed.phase_model.kselection.chosen_k
            == batch.phase_model.kselection.chosen_k)
    assert ([(s.function, s.inst_type) for s in streamed.sites()]
            == [(s.function, s.inst_type) for s in batch.sites()])


def test_tracking_engine_finalize_still_matches_batch(synthetic_samples):
    """Live tracking (warmup fits, refits, mini-batch nudges) must not
    leak into the finalized result — finalize re-runs the full pipeline
    on the accumulated deltas."""
    config = AnalysisConfig()
    batch = analyze_snapshots(synthetic_samples, config)
    engine = IncrementalAnalyzer(config, track=True, warmup=8)
    for snapshot in synthetic_samples:
        engine.observe(snapshot)
    assert engine.model_version >= 1  # the live model actually refit
    streamed = engine.finalize()
    np.testing.assert_array_equal(streamed.phase_model.labels,
                                  batch.phase_model.labels)
    assert streamed.n_phases == batch.n_phases


def test_observe_many_matches_observe(synthetic_samples):
    config = AnalysisConfig()
    one = IncrementalAnalyzer(config)
    many = IncrementalAnalyzer(config)
    singles = [one.observe(s) for s in synthetic_samples]
    batched = many.observe_many(synthetic_samples)
    assert [u.phase_id for u in batched] == [u.phase_id for u in singles]
    assert [u.model_version for u in batched] == \
        [u.model_version for u in singles]


def test_live_updates_cover_every_interval(synthetic_samples):
    engine = IncrementalAnalyzer(AnalysisConfig(), warmup=8)
    for snapshot in synthetic_samples:
        update = engine.observe(snapshot)
        assert update.index == engine.n_intervals - 1
    assert len(engine.updates) == len(synthetic_samples)
    seq = engine.phase_sequence()
    warm = [p for p in seq if p is not None]
    assert len(warm) >= len(seq) - 8  # only warmup intervals unassigned
    assert set(warm) - {NOVEL}, "live model never assigned a phase"
    # versions never go backwards and every refit bumped exactly once
    versions = [u.model_version for u in engine.updates]
    assert versions == sorted(versions)
    assert versions[-1] == len(engine.refits)


# ----------------------------------------------------------------------
# model-maintenance helpers
# ----------------------------------------------------------------------
def test_match_phase_labels_inherits_and_mints():
    old = np.array([[0.0, 0.0], [10.0, 0.0]])
    new = np.array([[10.1, 0.0], [0.2, 0.0], [5.0, 5.0]])
    labels, nxt = match_phase_labels(old, [0, 1], new, next_label=2)
    assert list(labels) == [1, 0, 2]  # matched pairs inherit, extra mints
    assert nxt == 3


def test_match_phase_labels_respects_per_phase_radius():
    """A far-off new cluster must NOT steal the least-bad old id: beyond
    its radius the old phase retires and the cluster gets a fresh id."""
    old = np.array([[0.0, 0.0], [10.0, 0.0]])
    new = np.array([[0.1, 0.0], [30.0, 0.0]])
    capped, nxt = match_phase_labels(old, [0, 1], new, next_label=2,
                                     max_distance=np.array([1.0, 1.0]))
    assert list(capped) == [0, 2] and nxt == 3  # id 1 retired, never reused
    uncapped, _ = match_phase_labels(old, [0, 1], new, next_label=2)
    assert list(uncapped) == [0, 1]  # without the cap it would be stolen


def test_match_phase_labels_scalar_cap_and_k_shrink():
    old = np.array([[0.0], [5.0], [9.0]])
    new = np.array([[5.2]])
    labels, nxt = match_phase_labels(old, [0, 1, 2], new, next_label=3,
                                     max_distance=0.5)
    assert list(labels) == [1] and nxt == 3


def test_calibrate_gates_floor_and_spread():
    features = np.array([[0.0], [0.1], [5.0], [6.0]])
    labels = np.array([0, 0, 1, 1])
    centroids = np.array([[0.05], [5.5]])
    gates = calibrate_gates(features, labels, centroids,
                            quantile=1.0, slack=2.0)
    assert gates[0] >= 0.05  # floored
    assert gates[1] == pytest.approx(1.0)  # 2 x max member distance


def test_drift_detector_novel_rate_and_inertia():
    config = DriftConfig(window=10, min_samples=5, novel_rate=0.4,
                         inertia_factor=2.0)
    det = DriftDetector(config)
    for _ in range(4):
        det.observe(True, 1.0)
    assert det.check() is None  # below min_samples
    det.observe(True, 1.0)
    assert "novel-rate" in det.check()
    det.reset(baseline=1.0)
    for _ in range(6):
        det.observe(False, 3.0)
    assert "inertia" in det.check()
    state = det.state()
    fresh = DriftDetector(config)
    fresh.restore(state)
    assert fresh.check() == det.check()


def test_bounded_resweep_stays_near_current_k():
    rng = np.random.default_rng(0)
    blobs = np.concatenate([rng.normal(c, 0.05, size=(30, 2))
                            for c in ((0, 0), (4, 0), (0, 4))])
    fit = bounded_resweep(blobs, current_k=2, kmax=8, seed=3)
    assert fit.k == 3  # k+1 candidate wins on clean blobs
    # candidates never leave the k-1..k+1 band, whatever the data wants
    fit = bounded_resweep(blobs, current_k=6, kmax=8, seed=3)
    assert fit.k in (5, 6, 7)
    fit = bounded_resweep(blobs[:3], current_k=1, kmax=8, seed=3)
    assert fit.k in (1, 2)  # capped by n as well


def test_refit_event_round_trip():
    event = RefitEvent(interval_index=7, version=2, old_k=3, new_k=4,
                       reason="novel-rate", label_map=(0, 1, 2, 5))
    assert RefitEvent.from_obj(event.to_obj()) == event


def test_adaptive_config_validation():
    with pytest.raises(ValidationError):
        AdaptiveConfig(window=4, min_refit_window=8)
    with pytest.raises(ValidationError):
        AdaptiveConfig(cooldown_s=-1.0)
    with pytest.raises(ValidationError):
        IncrementalAnalyzer(warmup=1)


def test_engine_rejects_decreasing_timestamps(synthetic_samples):
    engine = IncrementalAnalyzer(AnalysisConfig())
    engine.observe(synthetic_samples[1])
    with pytest.raises(ProfileDataError):
        engine.observe(synthetic_samples[0])


# ----------------------------------------------------------------------
# one live-model engine behind both streaming wrappers
# ----------------------------------------------------------------------
def rotating_series(n, funcs=24, seed=5):
    """Cumulative snapshots moving to a new phase every 30 intervals
    (six phases); every function ticks once in the first snapshot, so
    the vocabulary is complete from the start."""
    rng = np.random.default_rng(seed)
    names = [f"work.func_{j:02d}" for j in range(funcs)]
    rates = [[int(rng.integers(8, 60)) if j % 6 == p else 0
              for j in range(funcs)] for p in range(6)]
    cum = np.ones(funcs, dtype=int)
    out = []
    for i in range(n):
        phase = (i // 30) % 6
        cum += [max(0, r + int(rng.integers(-2, 3))) if r else 0
                for r in rates[phase]]
        snap = GmonData(rank=0, timestamp=float(i + 1))
        for name, ticks in zip(names, cum):
            snap.add_ticks(name, int(ticks))
        out.append(snap)
    return names, out


def test_tracker_and_analyzer_share_one_live_model():
    """An analyzer past its bootstrap and a tracker holding the same live
    model label the same rows identically: same phase ids, distances,
    versions and refit events.  This pins the shared refit rules — the
    seed ``[seed, version + 1]``, the last-``window`` training rows, and
    an event index that names the first interval the new model
    classifies."""
    config = AnalysisConfig()
    names, series = rotating_series(240)
    handoff = 12
    engine = IncrementalAnalyzer(config, warmup=8)
    for snap in series[:handoff]:
        engine.observe(snap)
    assert engine.model_version == 1 and engine.n_functions == len(names)

    live = engine._model
    # The analyzer's refit policy, in the tracker's terms.
    policy = AdaptiveConfig(min_refit_window=2, cooldown_s=0.0,
                            cooldown_intervals=16, kmax=config.kmax,
                            n_init=config.n_init, seed=config.seed)
    assert live.adaptive == policy
    tracker = OnlinePhaseTracker(
        functions=names, centroids=live.centroids, gates=live.gates,
        labels=live.labels, counts=live.counts, version=live.version,
        adaptive=policy)
    tracker.restore_runtime_state({
        "history": [[u.index, NOVEL, 0.0, NOVEL, u.model_version]
                    for u in engine.updates],
        "refit": live.refit_state(),
    })
    assert tracker.delta_vector(series[handoff - 1]) is None  # primes
    installed = {}
    tracker.add_refit_listener(
        lambda trk, event: installed.setdefault(event.version,
                                                trk.centroids.copy()))

    for snap in series[handoff:]:
        update = engine.observe(snap)
        tracked = tracker.observe_snapshot(snap)
        assert (tracked.index, tracked.phase_id, tracked.distance,
                tracked.model_version) == (update.index, update.phase_id,
                                           update.distance,
                                           update.model_version)
    assert tracker.refit_events == engine.refits
    assert len(engine.refits) >= 3  # bootstrap plus drift refits

    versions = [u.model_version for u in engine.updates]
    bootstrap, *drift = engine.refits
    assert versions[bootstrap.interval_index] == 1
    ticks = np.array([[snap.hist[name] for name in names] for snap in series])
    rows = np.diff(ticks, axis=0, prepend=0) * series[0].sample_period
    assert drift[-1].interval_index > policy.window  # the window slid
    for event in drift:
        seen = event.interval_index  # the first interval it classifies
        assert versions[seen - 1] == event.version - 1
        assert versions[seen] == event.version
        fit = bounded_resweep(
            rows[max(0, seen - policy.window):seen], event.old_k,
            kmax=policy.kmax, n_init=policy.n_init,
            seed=np.random.SeedSequence([policy.seed, event.version]))
        np.testing.assert_array_equal(installed[event.version], fit.centroids)
