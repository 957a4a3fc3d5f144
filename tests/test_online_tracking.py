"""Online phase tracking on deployment-style snapshot streams."""

import random

import numpy as np
import pytest

from repro.apps import get_app
from repro.core.online import NOVEL, OnlinePhaseTracker, classify_across
from repro.core.pipeline import analyze_snapshots
from repro.gprof.gmon import GmonData
from repro.incprof.session import Session, SessionConfig
from repro.util.errors import ValidationError


@pytest.fixture(scope="module")
def trained():
    """Tracker trained on one synthetic run, plus its analysis."""
    session = Session(get_app("synthetic"), SessionConfig(ranks=1, seed=111))
    samples = session.run().samples(0)
    analysis = analyze_snapshots(samples)
    tracker = OnlinePhaseTracker.from_analysis(analysis)
    return analysis, tracker


def test_training_run_reclassifies_to_itself(trained):
    """Feeding the training snapshots back reproduces the phase labels
    almost everywhere (boundary intervals may gate out)."""
    analysis, _ = trained
    tracker = OnlinePhaseTracker.from_analysis(analysis)
    data = analysis.interval_data
    matches = 0
    for i in range(data.n_intervals):
        profile = {f: data.self_time[i, j] for j, f in enumerate(data.functions)}
        tracked = tracker.classify(profile)
        if tracked.phase_id == analysis.phase_model.labels[i]:
            matches += 1
    assert matches / data.n_intervals > 0.9


def test_second_seed_run_tracks_same_phases(trained):
    """A fresh run of the same workload classifies with few novelties."""
    _, tracker_proto = trained
    analysis, _ = trained
    tracker = OnlinePhaseTracker.from_analysis(analysis)
    session = Session(get_app("synthetic"), SessionConfig(ranks=1, seed=202))
    for snapshot in session.run().samples(0):
        tracker.observe_snapshot(snapshot)
    assert tracker.history  # first snapshot primes, rest classify
    assert tracker.novel_fraction() < 0.15
    assert set(tracker.phase_sequence()) - {NOVEL} != set()


def test_novel_behavior_flagged(trained):
    analysis, _ = trained
    tracker = OnlinePhaseTracker.from_analysis(analysis)
    tracked = tracker.classify({"totally_new_function": 1.0})
    assert tracked.is_novel
    assert tracked.phase_id == NOVEL


def test_unknown_functions_ignored_in_vectorization(trained):
    analysis, _ = trained
    tracker = OnlinePhaseTracker.from_analysis(analysis)
    data = analysis.interval_data
    profile = {f: data.self_time[5, j] for j, f in enumerate(data.functions)}
    base = tracker.classify(dict(profile))
    profile["alien"] = 0.0
    with_alien = tracker.classify(profile)
    assert base.phase_id == with_alien.phase_id


def test_observe_snapshot_differences_stream(trained):
    analysis, _ = trained
    tracker = OnlinePhaseTracker.from_analysis(analysis)
    cum = GmonData()
    cum.add_ticks("kernel", 85)
    cum.add_ticks("reduce", 10)
    first = cum.copy()
    first.timestamp = 1.0
    assert tracker.observe_snapshot(first) is None  # primes
    cum.add_ticks("kernel", 85)
    cum.add_ticks("reduce", 10)
    second = cum.copy()
    second.timestamp = 2.0
    tracked = tracker.observe_snapshot(second)
    assert tracked is not None
    # ~0.85s kernel + 0.1s reduce is the compute phase of the script.
    assert not tracked.is_novel
    assert tracked.phase_id == tracked.nearest_phase


def test_transitions_reported(trained):
    analysis, _ = trained
    tracker = OnlinePhaseTracker.from_analysis(analysis)
    data = analysis.interval_data
    for i in range(data.n_intervals):
        profile = {f: data.self_time[i, j] for j, f in enumerate(data.functions)}
        tracker.classify(profile)
    transitions = tracker.transitions()
    # The synthetic staircase has >= 3 phase changes.
    assert len(transitions) >= 3
    for index, src, dst in transitions:
        assert src != dst
        assert 0 < index < data.n_intervals


def test_invalid_training_parameters(trained):
    analysis, _ = trained
    with pytest.raises(ValidationError):
        OnlinePhaseTracker.from_analysis(analysis, quantile=0.0)
    with pytest.raises(ValidationError):
        OnlinePhaseTracker.from_analysis(analysis, slack=0.0)


def test_constructor_shape_validation():
    with pytest.raises(ValidationError):
        OnlinePhaseTracker(functions=["f"], centroids=np.zeros((2, 2)),
                           gates=np.zeros(2))
    with pytest.raises(ValidationError):
        OnlinePhaseTracker(functions=["f"], centroids=np.zeros((2, 1)),
                           gates=np.zeros(3))


# ----------------------------------------------------------------------
# serving-side additions: spawn, zero-start, batches, thread safety
# ----------------------------------------------------------------------
def test_spawn_shares_model_but_not_history(trained):
    analysis, _ = trained
    template = OnlinePhaseTracker.from_analysis(analysis)
    template.classify({"kernel": 0.9})
    child = template.spawn()
    assert child.history == []
    assert child.functions == template.functions
    assert np.array_equal(child.centroids, template.centroids)
    assert np.array_equal(child.gates, template.gates)
    child.classify({"kernel": 0.9})
    assert len(template.history) == 1  # child's history is its own


def test_zero_start_classifies_first_snapshot(trained):
    analysis, _ = trained
    template = OnlinePhaseTracker.from_analysis(analysis)
    snap = GmonData()
    snap.add_ticks("kernel", 85)
    snap.add_ticks("reduce", 10)
    primed = template.spawn(zero_start=False)
    assert primed.observe_snapshot(snap.copy()) is None
    eager = template.spawn(zero_start=True)
    tracked = eager.observe_snapshot(snap.copy())
    assert tracked is not None and tracked.index == 0


def test_zero_start_matches_offline_labels(trained):
    """With a zero baseline, streaming the training run's cumulative
    snapshots reproduces the offline interval count exactly."""
    analysis, _ = trained
    tracker = OnlinePhaseTracker.from_analysis(analysis).spawn(zero_start=True)
    session = Session(get_app("synthetic"), SessionConfig(ranks=1, seed=111))
    samples = session.run().samples(0)
    for snapshot in samples:
        tracker.observe_snapshot(snapshot)
    assert len(tracker.history) == len(samples)
    labels = analysis.phase_model.labels
    seq = tracker.phase_sequence()
    matches = sum(1 for a, b in zip(seq, labels) if a == b)
    assert matches / len(labels) > 0.9


def test_classify_batch_appends_in_order(trained):
    analysis, _ = trained
    tracker = OnlinePhaseTracker.from_analysis(analysis)
    data = analysis.interval_data
    profiles = [
        {f: data.self_time[i, j] for j, f in enumerate(data.functions)}
        for i in range(6)
    ]
    batch = tracker.classify_batch(profiles)
    assert [t.index for t in batch] == list(range(6))
    assert tracker.phase_sequence() == [t.phase_id for t in batch]


def test_phase_counts(trained):
    analysis, _ = trained
    tracker = OnlinePhaseTracker.from_analysis(analysis)
    tracker.classify({"totally_new_function": 5.0})
    data = analysis.interval_data
    tracker.classify({f: data.self_time[0, j] for j, f in enumerate(data.functions)})
    counts = tracker.phase_counts()
    assert counts[NOVEL] == 1
    assert sum(counts.values()) == 2


def test_concurrent_classification_is_safe(trained):
    """Many threads hammering one tracker: history stays consistent."""
    import threading

    analysis, _ = trained
    tracker = OnlinePhaseTracker.from_analysis(analysis)
    data = analysis.interval_data
    profile = {f: data.self_time[0, j] for j, f in enumerate(data.functions)}
    n_threads, per_thread = 8, 200
    barrier = threading.Barrier(n_threads)

    def worker():
        barrier.wait()
        for _ in range(per_thread):
            tracker.classify(dict(profile))

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    total = n_threads * per_thread
    assert len(tracker.history) == total
    # every interval got a unique, gapless index despite the races
    assert sorted(t.index for t in tracker.history) == list(range(total))


def test_classify_batch_matches_repeated_classify(trained):
    _, template = trained
    rng = np.random.default_rng(11)
    functions = template.functions
    profiles = []
    for _ in range(40):
        profile = {f: float(rng.random() * 2) for f in functions
                   if rng.random() < 0.8}
        profile["not_a_known_function"] = 1.0
        profiles.append(profile)

    one_by_one = template.spawn(zero_start=False)
    batched = template.spawn(zero_start=False)
    singles = [one_by_one.classify(p) for p in profiles]
    batch = batched.classify_batch(profiles)

    assert len(batch) == len(singles)
    for got, want in zip(batch, singles):
        assert got.index == want.index
        assert got.phase_id == want.phase_id
        assert got.nearest_phase == want.nearest_phase
        assert got.distance == want.distance  # bit-identical math
    assert batched.phase_sequence() == one_by_one.phase_sequence()


# ----------------------------------------------------------------------
# differencing edge cases: real dump streams are not always well behaved
# ----------------------------------------------------------------------
def _snap(ticks, timestamp):
    snap = GmonData(timestamp=timestamp)
    for func, n in ticks.items():
        snap.add_ticks(func, n)
    return snap


def test_decreasing_cumulative_times_clamp_to_zero(trained):
    """A counter that goes backwards (restarted collector, lost dump)
    must clamp to zero self time, not produce a negative interval."""
    analysis, _ = trained
    tracker = OnlinePhaseTracker.from_analysis(analysis)
    assert tracker.observe_snapshot(_snap({"kernel": 200, "reduce": 40},
                                          1.0)) is None
    vec = tracker.delta_vector(_snap({"kernel": 150, "reduce": 50}, 2.0))
    col = tracker.functions.index
    assert vec[col("kernel")] == 0.0  # decreased: clamped to zero
    assert vec[col("reduce")] == pytest.approx((50 - 40) * 0.01)
    assert (vec >= 0).all()


def test_functions_disappearing_between_snapshots(trained):
    """A function absent from the newer dump contributes zero time; the
    interval still classifies against the full vocabulary."""
    analysis, _ = trained
    tracker = OnlinePhaseTracker.from_analysis(analysis)
    assert tracker.observe_snapshot(_snap({"kernel": 85, "reduce": 10,
                                           "initialize": 30}, 1.0)) is None
    vec = tracker.delta_vector(_snap({"kernel": 170, "reduce": 20}, 2.0))
    assert vec[tracker.functions.index("initialize")] == 0.0
    tracked = tracker.classify(vec)
    assert tracked is not None and not tracked.is_novel


def test_first_snapshot_after_spawn_primes_without_zero_start(trained):
    """spawn(zero_start=False) children treat their first snapshot as a
    baseline — mid-run attach must not classify a bogus cumulative blob."""
    analysis, _ = trained
    template = OnlinePhaseTracker.from_analysis(analysis)
    child = template.spawn(zero_start=False)
    huge = _snap({"kernel": 5000, "reduce": 800}, 10.0)  # mid-run totals
    assert child.observe_snapshot(huge) is None  # primes, no bogus novel
    assert child.history == []
    nxt = _snap({"kernel": 5085, "reduce": 810}, 11.0)
    tracked = child.observe_snapshot(nxt)
    assert tracked is not None and tracked.index == 0
    assert not tracked.is_novel  # one clean interval of the known phase


# ----------------------------------------------------------------------
# adaptive refits: the tracker rebuilds its own model on drift
# ----------------------------------------------------------------------
def adaptive_tracker(analysis):
    from repro.core.incremental import AdaptiveConfig, DriftConfig

    config = AdaptiveConfig(window=64, min_refit_window=16,
                            drift=DriftConfig(window=32, min_samples=16,
                                              novel_rate=0.3),
                            cooldown_s=0.0, cooldown_intervals=16)
    return OnlinePhaseTracker.from_analysis(analysis, adaptive=config)


def test_adaptive_refit_fires_on_drift_and_bumps_version(trained):
    analysis, _ = trained
    tracker = adaptive_tracker(analysis)
    data = analysis.interval_data
    known = {f: data.self_time[0, j] for j, f in enumerate(data.functions)}
    alien = {data.functions[0]: 47.0}
    events = []
    tracker.add_refit_listener(lambda trk, event: events.append(event))
    for _ in range(20):
        tracker.classify(dict(known))
    assert tracker.model_version == 0
    before = tracker.classify(dict(known)).phase_id
    for _ in range(40):
        tracker.classify(dict(alien))
    assert tracker.model_version >= 1
    assert events and events[0].version == 1
    assert tracker.refit_events == events
    # the stable phase keeps its id across the swap...
    after = tracker.classify(dict(known))
    assert after.phase_id == before
    assert after.model_version == tracker.model_version
    # ...and the drifted behavior now has a phase of its own
    adopted = tracker.classify(dict(alien))
    assert not adopted.is_novel
    assert adopted.phase_id not in (before, NOVEL)


def test_version_sequence_is_monotone_across_refits(trained):
    analysis, _ = trained
    tracker = adaptive_tracker(analysis)
    data = analysis.interval_data
    alien = {data.functions[0]: 47.0}
    for _ in range(40):
        tracker.classify(dict(alien))
    versions = tracker.version_sequence()
    assert versions == sorted(versions)
    assert versions[0] == 0 and versions[-1] >= 1


def test_force_refit_and_install_model_version_rules(trained):
    analysis, _ = trained
    tracker = adaptive_tracker(analysis)
    data = analysis.interval_data
    profile = {f: data.self_time[0, j] for j, f in enumerate(data.functions)}
    for _ in range(16):
        tracker.classify(dict(profile))
    event = tracker.force_refit(reason="operator")
    assert event is not None and event.reason == "operator"
    assert tracker.model_version == event.version == 1
    with pytest.raises(ValidationError):
        tracker.install_model(centroids=tracker.centroids.copy(),
                              gates=tracker.gates.copy(), version=0)
    tracker.install_model(centroids=tracker.centroids.copy(),
                          gates=tracker.gates.copy())
    assert tracker.model_version == 2  # default: bump past current


def test_runtime_state_round_trips_refit_machinery(trained):
    analysis, _ = trained
    tracker = adaptive_tracker(analysis)
    data = analysis.interval_data
    alien = {data.functions[0]: 47.0}
    for _ in range(40):
        tracker.classify(dict(alien))
    assert tracker.model_version >= 1
    state = tracker.runtime_state()
    clone = adaptive_tracker(analysis)
    clone.restore_runtime_state(state)
    assert clone.model_version == tracker.model_version
    assert clone.phase_sequence() == tracker.phase_sequence()
    assert clone.version_sequence() == tracker.version_sequence()
    assert np.array_equal(clone.centroids, tracker.centroids)
    assert np.array_equal(clone.phase_labels, tracker.phase_labels)
    assert ([e.to_obj() for e in clone.refit_events]
            == [e.to_obj() for e in tracker.refit_events])
    # the restored window keeps feeding the same drift machinery
    assert clone.classify(dict(alien)).phase_id == \
        tracker.classify(dict(alien)).phase_id


def drifting_rows(analysis, seed=3):
    """Noisy training intervals, then every function's time shifted onto
    its neighbour: behaviour the trained model never saw."""
    rng = np.random.default_rng(seed)
    data = analysis.interval_data
    n, d = data.self_time.shape
    shifted = np.roll(data.self_time, 1, axis=1)
    return ([data.self_time[i % n] * rng.uniform(0.9, 1.1, d) for i in range(40)]
            + [shifted[i % n] * rng.uniform(0.9, 1.1, d) for i in range(60)])


def classified(tracker):
    return ([(t.index, t.phase_id, t.distance, t.model_version)
             for t in tracker.history],
            [(e.interval_index, e.version) for e in tracker.refit_events])


def test_labels_do_not_depend_on_batch_splits(trained):
    """Each interval is labelled as if it arrived alone: refits land
    between rows, so any split into batches — through ``classify_batch``
    or the pooled ``classify_across`` — gives the per-row result."""
    analysis, _ = trained
    rows = drifting_rows(analysis)
    one_by_one = adaptive_tracker(analysis)
    for row in rows:
        one_by_one.classify(row)
    want = classified(one_by_one)
    assert len(one_by_one.refit_events) >= 2
    rng = random.Random(17)
    for _split in range(20):
        batched = adaptive_tracker(analysis)
        pooled = adaptive_tracker(analysis)
        start = 0
        while start < len(rows):
            chunk = rows[start:start + rng.randint(1, 8)]
            batched.classify_batch(chunk)
            classify_across([(pooled, chunk)])
            start += len(chunk)
        assert classified(batched) == want
        assert classified(pooled) == want
