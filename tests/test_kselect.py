"""k selection: variance elbow, chord elbow, silhouette."""

import importlib
import random
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import incremental
from repro.core.incremental import bounded_resweep
from repro.core.kmeans import kmeans
from repro.core.kselect import (
    DEFAULT_KMAX,
    KSelection,
    SweepResults,
    choose_k,
    elbow_k,
    silhouette_k,
    silhouette_score,
    spawn_seedseqs,
    variance_elbow_k,
    wcss_curve,
)
from repro.util.errors import ClusteringError, ValidationError

kmeans_module = importlib.import_module("repro.core.kmeans")
kselect_module = importlib.import_module("repro.core.kselect")


def blobs(k, n=25, spread=0.2, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-50, 50, size=(k, 2))
    return np.vstack([rng.normal(c, spread, size=(n, 2)) for c in centers])


@pytest.mark.parametrize("true_k", [2, 3, 4, 5])
def test_variance_elbow_finds_true_k(true_k):
    points = blobs(true_k, seed=true_k)
    assert choose_k(points, method="elbow", seed=1).chosen_k == true_k


@pytest.mark.parametrize("true_k", [3, 4])
def test_chord_elbow_finds_true_k(true_k):
    # The chord criterion needs comparable inter-cluster separations
    # (its known weakness with lopsided geometry), so use symmetric
    # centers here.
    rng = np.random.default_rng(true_k)
    angle = 2 * np.pi * np.arange(true_k) / true_k
    centers = 40 * np.column_stack([np.cos(angle), np.sin(angle)])
    points = np.vstack([rng.normal(c, 0.3, size=(25, 2)) for c in centers])
    assert choose_k(points, method="chord", seed=1).chosen_k == true_k


@pytest.mark.parametrize("true_k", [2, 3, 4])
def test_silhouette_finds_true_k(true_k):
    points = blobs(true_k, seed=true_k + 20)
    assert choose_k(points, method="silhouette", seed=1).chosen_k == true_k


def test_wcss_curve_monotone():
    points = blobs(3, seed=7)
    curve = wcss_curve(points, kmax=8, seed=0)
    inertias = [curve[k].inertia for k in sorted(curve)]
    assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))


def test_wcss_curve_caps_k_at_n():
    points = np.random.default_rng(0).normal(size=(5, 2))
    curve = wcss_curve(points, kmax=8)
    assert sorted(curve) == [1, 2, 3, 4, 5]


def test_chord_on_structureless_noise_picks_small_k():
    # Pure gaussian noise has no phases; the chord elbow lands on a small
    # k (it cannot return 1 because the WCSS curve of noise still bends).
    points = np.random.default_rng(0).normal(size=(60, 2))
    assert elbow_k(wcss_curve(points, seed=0)) <= 3


def test_identical_points_k1():
    points = np.ones((20, 2))
    assert choose_k(points, method="elbow").chosen_k == 1
    assert choose_k(points, method="chord").chosen_k == 1


def test_variance_threshold_effect():
    points = blobs(4, spread=2.0, seed=5)
    curve = wcss_curve(points, seed=0)
    loose = variance_elbow_k(curve, threshold=0.5)
    strict = variance_elbow_k(curve, threshold=0.999)
    assert loose <= strict


def test_unknown_method_rejected():
    with pytest.raises(ValidationError):
        choose_k(blobs(2), method="magic")


def test_empty_points_rejected():
    with pytest.raises(ClusteringError):
        wcss_curve(np.zeros((0, 2)))


def test_selection_exposes_best_result():
    points = blobs(3, seed=2)
    selection = choose_k(points, seed=0)
    assert isinstance(selection, KSelection)
    assert selection.best.k == selection.chosen_k
    assert selection.scores


# ----------------------------------------------------------------------
# silhouette internals
# ----------------------------------------------------------------------
def test_silhouette_perfect_separation_close_to_one():
    points = np.vstack([np.zeros((10, 2)), np.full((10, 2), 100.0)])
    labels = np.array([0] * 10 + [1] * 10)
    assert silhouette_score(points, labels) > 0.99


def test_silhouette_bad_labels_negative():
    points = np.vstack([np.zeros((10, 2)), np.full((10, 2), 100.0)])
    labels = np.array(([0, 1] * 5) + ([1, 0] * 5))  # scrambled
    assert silhouette_score(points, labels) < 0.1


def test_silhouette_requires_two_clusters():
    with pytest.raises(ValidationError):
        silhouette_score(np.zeros((5, 2)), np.zeros(5, dtype=int))


def test_silhouette_singletons_contribute_zero():
    points = np.array([[0.0, 0], [0, 0.1], [50, 50]])
    labels = np.array([0, 0, 1])
    score = silhouette_score(points, labels)
    # Third point is a singleton (s=0); the others are near 1.
    assert 0.5 < score < 1.0


def test_silhouette_k_skips_invalid_ks():
    points = blobs(2, n=4, seed=1)  # 8 points: k up to 7 valid
    curve = wcss_curve(points, kmax=8, seed=0)
    assert silhouette_k(points, curve) == 2


def _silhouette_reference(points, labels):
    """Textbook per-point silhouette loop (the pre-vectorization shape)."""
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    scores = []
    for i in range(len(points)):
        dists = np.linalg.norm(points - points[i], axis=1)
        own = labels == labels[i]
        n_own = int(own.sum())
        if n_own <= 1:
            scores.append(0.0)
            continue
        a = float(dists[own].sum() / (n_own - 1))
        b = min(float(dists[labels == c].mean())
                for c in np.unique(labels) if c != labels[i])
        denom = max(a, b)
        scores.append(0.0 if denom == 0.0 else (b - a) / denom)
    return float(np.mean(scores))


def test_silhouette_matches_bruteforce_reference():
    rng = np.random.default_rng(5)
    points = np.vstack([
        rng.normal((0, 0), 1.0, size=(40, 2)),
        rng.normal((4, 4), 1.5, size=(25, 2)),
        rng.normal((-5, 6), 0.5, size=(10, 2)),
    ])
    labels = np.concatenate([np.zeros(40), np.ones(25), np.full(10, 2)]).astype(int)
    got = silhouette_score(points, labels)
    want = _silhouette_reference(points, labels)
    assert got == pytest.approx(want, abs=1e-9)

    # Also with a singleton cluster and noisy labels.
    labels2 = labels.copy()
    labels2[0] = 7  # singleton
    labels2[50:55] = 0
    assert silhouette_score(points, labels2) == pytest.approx(
        _silhouette_reference(points, labels2), abs=1e-9)


def test_wcss_curve_parallel_matches_serial():
    rng = np.random.default_rng(17)
    points = np.vstack([rng.normal(c, 0.4, size=(30, 3))
                        for c in ((0, 0, 0), (6, 6, 0), (0, 6, 6), (9, 0, 9))])
    serial = wcss_curve(points, kmax=6, seed=42)
    parallel = wcss_curve(points, kmax=6, seed=42, workers=2)
    assert set(serial) == set(parallel)
    for k in serial:
        assert serial[k].inertia == parallel[k].inertia
        assert np.array_equal(serial[k].labels, parallel[k].labels)
        assert np.array_equal(serial[k].centroids, parallel[k].centroids)


def test_choose_k_parallel_matches_serial():
    rng = np.random.default_rng(23)
    points = np.vstack([rng.normal(c, 0.3, size=(25, 2))
                        for c in ((0, 0), (8, 8), (-8, 8))])
    for method in ("elbow", "chord", "silhouette"):
        serial = choose_k(points, kmax=6, method=method, seed=3)
        parallel = choose_k(points, kmax=6, method=method, seed=3, workers=3)
        assert serial.chosen_k == parallel.chosen_k
        assert np.array_equal(serial.best.labels, parallel.best.labels)


def test_per_k_seeds_independent_of_sweep_order():
    """Each k's fit draws from its own child seed, not a shared stream."""
    rng = np.random.default_rng(29)
    points = rng.random((40, 4))
    full = wcss_curve(points, kmax=6, seed=9)
    small = wcss_curve(points, kmax=3, seed=9)
    for k in small:
        assert small[k].inertia == full[k].inertia
        assert np.array_equal(small[k].labels, full[k].labels)


def _same_fit(a, b):
    return (a.k == b.k and np.array_equal(a.labels, b.labels)
            and np.array_equal(a.centroids, b.centroids)
            and a.inertia == b.inertia and a.n_iter == b.n_iter)


@st.composite
def point_sets(draw, max_n=300, max_d=20):
    """2..max_n points in 1..max_d dimensions: duplicate-heavy integer
    grids, gaussian noise, or gaussian blobs."""
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(1, max_d))
    kind = draw(st.sampled_from(("grid", "noise", "blobs")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "grid":
        return rng.integers(0, 3, size=(n, d)).astype(float)
    if kind == "noise":
        return rng.normal(scale=10.0, size=(n, d))
    centers = rng.normal(scale=20.0, size=(4, d))
    return centers[rng.integers(0, 4, n)] + rng.normal(size=(n, d))


@settings(max_examples=25, deadline=None)
@given(points=point_sets(), seed=st.integers(0, 2 ** 32 - 1))
def test_lone_k_equals_any_sweep_and_any_chunking(points, seed):
    """A k's fit does not depend on what else is fitted beside it: alone,
    in a sweep to the top k or in one that stops at k, under any row
    chunk budget (one row, the default, unlimited)."""
    top = min(DEFAULT_KMAX, points.shape[0])
    children = spawn_seedseqs(seed, top)
    reference = wcss_curve(points, kmax=top, seed=seed)
    for budget in (1, kmeans_module._CHUNK_FLOATS, 2 ** 62):
        with mock.patch.object(kmeans_module, "_CHUNK_FLOATS", budget):
            sweep = wcss_curve(points, kmax=top, seed=seed)
            for k in range(1, top + 1):
                assert _same_fit(sweep[k], reference[k])
                assert _same_fit(kmeans(points, k, seed=children[k - 1]),
                                 reference[k])
                assert _same_fit(wcss_curve(points, kmax=k, seed=seed)[k],
                                 reference[k])


# ----------------------------------------------------------------------
# the lazy sweep: each k fitted on first read, bit for bit the eager one
# ----------------------------------------------------------------------
def _select_eager(points, method, eager):
    if method == "elbow":
        return variance_elbow_k(eager)
    if method == "chord":
        return elbow_k(eager)
    return silhouette_k(points, eager)


@settings(max_examples=40, deadline=None)
@given(points=point_sets(max_n=150, max_d=12), seed=st.integers(0, 2 ** 32 - 1),
       kmax=st.integers(1, 8), data=st.data())
def test_lazy_sweep_equals_eager_in_any_read_order(points, seed, kmax, data):
    """``choose_k`` picks what selection over the eager ``wcss_curve``
    picks, and every k of its sweep, read in any order, is the eager
    sweep's k bit for bit."""
    eager = wcss_curve(points, kmax=kmax, seed=seed)
    top = len(eager)
    for method in ("elbow", "chord", "silhouette"):
        selection = choose_k(points, kmax=kmax, method=method, seed=seed)
        assert selection.chosen_k == _select_eager(points, method, eager)
        results = selection.results
        assert len(results) == top and list(results) == list(range(1, top + 1))
        order = data.draw(st.sampled_from(("ascending", "descending", "shuffled")))
        ks = list(range(1, top + 1))
        if order == "descending":
            ks.reverse()
        elif order == "shuffled":
            ks = data.draw(st.permutations(ks))
        for k in ks:
            assert _same_fit(results[k], eager[k])
        if method != "silhouette":
            assert dict(selection.scores) == {k: eager[k].inertia for k in eager}


class _CountingSweep:
    """Stands in for ``kmeans_sweep`` in kselect and records the k's of
    each call."""

    def __init__(self):
        self.calls = []
        self._sweep = kselect_module.kmeans_sweep

    def __call__(self, points, seeds_by_k, n_init):
        self.calls.append(sorted(seeds_by_k))
        return self._sweep(points, seeds_by_k, n_init=n_init)


def test_elbow_fits_only_the_first_block(monkeypatch):
    points = blobs(3, seed=2)
    counter = _CountingSweep()
    monkeypatch.setattr(kselect_module, "kmeans_sweep", counter)
    selection = choose_k(points, method="elbow", seed=0)
    assert selection.chosen_k == 3
    assert counter.calls == [[1, 2, 3, 4]]

    results = selection.results
    assert len(results) == 8 and list(results) == list(range(1, 9))
    assert 5 in results and 8 in results
    assert 0 not in results and 9 not in results and "k" not in results
    assert len(selection.scores) == 8 and 8 in selection.scores
    assert counter.calls == [[1, 2, 3, 4]]

    curve = [selection.scores[k] for k in selection.scores]  # the k-curve
    assert counter.calls == [[1, 2, 3, 4], [5, 6, 7, 8]]
    results.fill()  # nothing left to fit
    assert len(counter.calls) == 2
    assert curve == [r.inertia for r in wcss_curve(points, seed=0).values()]


def test_sweep_blocks_split_at_half_of_top(monkeypatch):
    counter = _CountingSweep()
    monkeypatch.setattr(kselect_module, "kmeans_sweep", counter)
    rng = np.random.default_rng(3)
    lazy = SweepResults(rng.normal(size=(5, 2)), kmax=8, seed=1)  # top 5
    lazy[5]
    lazy[2]
    lazy[4]
    assert counter.calls == [[4, 5], [1, 2, 3]]
    one = SweepResults(rng.normal(size=(9, 2)), kmax=1, seed=1)
    assert list(one) == [1] and one[1].k == 1
    with pytest.raises(KeyError):
        one[2]
    assert counter.calls[2:] == [[1]]
    with pytest.raises(ValidationError):
        SweepResults(rng.normal(size=(9, 2)), kmax=0)


def test_concurrent_first_reads_fit_each_block_once(monkeypatch):
    """Threads racing on a fresh sweep each get the eager fits, and no
    block is fitted twice."""
    points = blobs(4, n=30, seed=6)
    eager = wcss_curve(points, seed=5)
    counter = _CountingSweep()
    monkeypatch.setattr(kselect_module, "kmeans_sweep", counter)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(5):
            lazy = SweepResults(points, seed=5)
            mismatches = []

            def reader(index):
                ks = list(range(1, 9))
                random.Random(round_ * 100 + index).shuffle(ks)
                for k in ks:
                    if not _same_fit(lazy[k], eager[k]):
                        mismatches.append(k)

            threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert mismatches == []
            assert sorted(counter.calls) == [[1, 2, 3, 4], [5, 6, 7, 8]]
            counter.calls.clear()
    finally:
        sys.setswitchinterval(switch)


def test_bounded_resweep_equals_per_candidate_fits(monkeypatch):
    """The daemon's refit fits its candidates in one sweep, and returns
    what one ``kmeans`` call per candidate with the same child seeds
    returns."""
    rng = np.random.default_rng(7)
    points = np.vstack([rng.normal(c, 0.5, size=(40, 5))
                        for c in (0.0, 4.0, 8.0, 12.0)])
    cases = [(k, seed) for k in (1, 2, 3, 5, 8) for seed in (0, 11)]
    swept = [bounded_resweep(points, k, kmax=8, seed=seed) for k, seed in cases]
    monkeypatch.setattr(
        incremental, "kmeans_sweep",
        lambda features, seeds_by_k, n_init: {
            k: kmeans(features, k, seed=s, n_init=n_init)
            for k, s in seeds_by_k.items()})
    for (k, seed), fit in zip(cases, swept):
        assert _same_fit(fit, bounded_resweep(points, k, kmax=8, seed=seed))


# ----------------------------------------------------------------------
# elbow_k degenerate branches (synthetic WCSS curves, no fitting)
# ----------------------------------------------------------------------
def _sweep(wcss_by_k):
    """Fake sweep results carrying only the inertia the elbow rule reads."""
    from repro.core.kmeans import KMeansResult

    return {
        k: KMeansResult(k=k, centroids=np.zeros((k, 2)),
                        labels=np.zeros(4, dtype=int),
                        inertia=float(w), n_iter=1)
        for k, w in wcss_by_k.items()
    }


def test_elbow_single_k_returns_it():
    assert elbow_k(_sweep({3: 5.0})) == 3


def test_elbow_identical_points_returns_one():
    # WCSS already zero at k=1: every point is the same, no structure.
    assert elbow_k(_sweep({1: 0.0, 2: 0.0, 3: 0.0})) == 1


def test_elbow_near_zero_truncates_trailing_ks():
    # k=3 already explains the data exactly; k=4 must not drag the chord
    # endpoint right and shift the elbow.
    assert elbow_k(_sweep({1: 100.0, 2: 10.0, 3: 0.0, 4: 0.0})) == 2


def test_elbow_near_zero_with_two_points_returns_exact_k():
    # After truncation only (k=1, k=2) remain: the first exact k wins.
    assert elbow_k(_sweep({1: 100.0, 2: 0.0})) == 2


def test_elbow_flat_curve_returns_one():
    # A <5% total drop is noise, not structure: adding clusters buys
    # nothing, so the smallest model wins.
    assert elbow_k(_sweep({1: 100.0, 2: 99.5, 3: 99.0, 4: 98.7})) == 1
