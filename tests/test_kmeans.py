"""From-scratch k-means: correctness and invariants (incl. hypothesis)."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.kmeans import KMeansResult, kmeans
from repro.util.errors import ClusteringError, ValidationError


def blobs(seed=0, centers=((0, 0), (10, 10), (-10, 5)), n=30, spread=0.3):
    rng = np.random.default_rng(seed)
    points = []
    for cx, cy in centers:
        points.append(rng.normal((cx, cy), spread, size=(n, 2)))
    return np.vstack(points)


def test_recovers_well_separated_blobs():
    points = blobs()
    result = kmeans(points, 3, seed=1)
    # Each blob of 30 points is one cluster.
    sizes = sorted(result.cluster_sizes().tolist())
    assert sizes == [30, 30, 30]
    # Centroids near the true centers.
    found = sorted(tuple(np.round(c).astype(int)) for c in result.centroids)
    assert found == [(-10, 5), (0, 0), (10, 10)]


def test_k1_exact_mean():
    points = np.array([[0.0], [2.0], [4.0]])
    result = kmeans(points, 1)
    assert result.centroids[0, 0] == pytest.approx(2.0)
    assert result.inertia == pytest.approx(8.0)


def test_k_equals_n_zero_inertia():
    points = np.array([[0.0, 0], [5, 5], [9, 1]])
    result = kmeans(points, 3, seed=0)
    assert result.inertia == pytest.approx(0.0)


def test_more_clusters_than_points_rejected():
    with pytest.raises(ClusteringError):
        kmeans(np.zeros((2, 2)), 3)


def test_invalid_args():
    with pytest.raises(ValidationError):
        kmeans(np.zeros((3,)), 2)
    with pytest.raises(ValidationError):
        kmeans(np.zeros((3, 2)), 0)
    with pytest.raises(ValidationError):
        kmeans(np.zeros((3, 2)), 2, n_init=0)


def test_deterministic_with_seed():
    points = blobs(seed=5)
    a = kmeans(points, 3, seed=42)
    b = kmeans(points, 3, seed=42)
    assert np.array_equal(a.labels, b.labels)
    assert a.inertia == b.inertia


def test_duplicate_points_fine():
    points = np.ones((10, 3))
    result = kmeans(points, 2, seed=0)
    assert result.inertia == pytest.approx(0.0)


def test_labels_match_nearest_centroid():
    points = blobs(seed=2)
    result = kmeans(points, 3, seed=0)
    dists = ((points[:, None, :] - result.centroids[None]) ** 2).sum(axis=2)
    assert np.array_equal(result.labels, dists.argmin(axis=1))


def test_inertia_nonincreasing_in_k():
    points = blobs(seed=3)
    inertias = [kmeans(points, k, seed=0, n_init=8).inertia for k in range(1, 7)]
    for a, b in zip(inertias, inertias[1:]):
        assert b <= a + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    points=hnp.arrays(np.float64, shape=st.tuples(st.integers(5, 40), st.integers(1, 4)),
                      elements=st.floats(-100, 100, allow_nan=False)),
    k=st.integers(1, 5),
)
def test_kmeans_invariants(points, k):
    """Labels valid; every cluster non-empty; inertia consistent."""
    if points.shape[0] < k:
        return
    result = kmeans(points, k, seed=0, n_init=2)
    assert result.labels.shape == (points.shape[0],)
    assert set(np.unique(result.labels)) <= set(range(k))
    distinct = np.unique(points, axis=0).shape[0]
    if distinct >= k:
        assert (result.cluster_sizes() > 0).all()
    manual = sum(
        ((points[result.labels == j] - result.centroids[j]) ** 2).sum()
        for j in range(k)
    )
    assert result.inertia == pytest.approx(manual, rel=1e-9, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000))
def test_kmeans_quality_vs_random_assignment(seed):
    """k-means inertia beats a random partition of the same data."""
    points = blobs(seed=seed, spread=1.0)
    result = kmeans(points, 3, seed=0)
    rng = np.random.default_rng(seed)
    random_labels = rng.integers(0, 3, size=points.shape[0])
    random_inertia = 0.0
    for j in range(3):
        members = points[random_labels == j]
        if len(members):
            random_inertia += ((members - members.mean(axis=0)) ** 2).sum()
    assert result.inertia <= random_inertia + 1e-9


def test_empty_cluster_repair():
    # Two coincident seeds collapse onto one cluster; the third seed is
    # far from every point.  The update leaves empty clusters that the
    # repair path must re-seat on far points.
    from repro.core.kmeans import _lloyd

    points = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [50.0]])
    centers = np.array([[0.0], [0.0], [1000.0]])
    result = _lloyd(points, centers.copy(), max_iter=100, tol=1e-9)
    sizes = result.cluster_sizes()
    assert sizes.shape == (3,)
    assert (sizes > 0).all()
    assert int(sizes.sum()) == len(points)
    assert np.isfinite(result.inertia)
    # Reported inertia matches the reported labels/centroids exactly.
    recomputed = sum(
        float(np.sum((points[i] - result.centroids[result.labels[i]]) ** 2))
        for i in range(len(points))
    )
    assert result.inertia == pytest.approx(recomputed)


def test_lone_row_equals_its_row_in_a_mixed_batch():
    """Every restart row of a batched k = 2..8 fit (56 rows, n = 300)
    equals that row fitted alone through ``_lloyd``, bit for bit.  A
    flattened ``(rows * k, d) @ (d, n)`` distance product changed 20 of
    these 56 rows in their last bits, because its blocking follows the
    row count."""
    km = importlib.import_module("repro.core.kmeans")
    rng = np.random.default_rng(1)
    centers = rng.normal(size=(5, 12)) * 8
    points = centers[rng.integers(0, 5, 300)] + rng.normal(size=(300, 12))
    points_t = np.ascontiguousarray(points.T)
    x_sq = np.einsum("ij,ij->i", points, points)
    row_k, first, uniforms = km._draws(300, {k: k for k in range(2, 9)}, 8)
    seeds = km._kmeanspp(points, points_t, x_sq, row_k, first, uniforms)
    batch = seeds.copy()
    labels, inertia, n_iter = km._lloyd_rows(points, points_t, x_sq, batch,
                                             row_k, 200, 1e-9)
    for r, k in enumerate(row_k):
        alone = km._lloyd(points, seeds[r, :k], max_iter=200, tol=1e-9)
        assert np.array_equal(alone.labels, labels[r])
        assert np.array_equal(alone.centroids, batch[r, :k])
        assert alone.inertia == inertia[r]
        assert alone.n_iter == n_iter[r]


def test_row_chunks_respect_the_budget(monkeypatch):
    """Chunks cover the sorted rows in order; each chunk's
    ``(rows, max k, n)`` buffer fits the budget unless it is one row,
    and no chunk could have taken its successor's first row."""
    km = importlib.import_module("repro.core.kmeans")
    row_k = np.repeat(np.arange(2, 9), 8)
    for budget in (1, 1000, 32 * 1024, 64 * 1024, 2 ** 62):
        monkeypatch.setattr(km, "_CHUNK_FLOATS", budget)
        for n in (2, 47, 131, 600, 5000):
            chunks = km._chunks(row_k, n)
            assert chunks[0][0] == 0 and chunks[-1][1] == row_k.size
            assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
            for lo, hi in chunks:
                assert hi > lo
                assert hi - lo == 1 or (hi - lo) * row_k[hi - 1] * n <= budget
                if hi < row_k.size:
                    assert (hi - lo + 1) * row_k[hi] * n > budget
