"""Choosing the number of clusters (phases).

k-means needs k up front; the paper runs k = 1..8 and applies the *elbow*
method, with *silhouette* evaluated as an alternative (both implemented
here; the ablation bench compares them).  Eight was enough because no
studied application showed more than five phases.

A sweep is a :class:`SweepResults`: a mapping over k = 1..top that fits
each k on its first read.  A read that misses fits the whole block its k
falls in with one :func:`~repro.core.kmeans.kmeans_sweep` call; the
blocks are k <= ceil(top / 2) and the rest (1..4 and 5..8 for kmax 8).
The default elbow reads WCSS in ascending k and stops at most one k past
its choice, so :func:`choose_k` usually fits only the first block;
:func:`wcss_curve`, the chord and silhouette selectors, the report's
k-curve and pickling fit every k.

Each k is fit under its own child seed spawned from one
``numpy.random.SeedSequence``, and no fit's bits depend on what is
fitted beside it, so the per-k results do not depend on how the sweep
is scheduled — the full sweep, a sweep to a smaller kmax, one block read
lazily, a process pool fitting one k per task (``workers``) and a single
k fitted alone all produce bit-identical clusterings.
"""

from __future__ import annotations

import concurrent.futures
import threading
from dataclasses import dataclass
from typing import (Dict, ItemsView, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, ValuesView)

import numpy as np

from repro.core.kmeans import KMeansResult, Seed, kmeans, kmeans_sweep
from repro.util.errors import ClusteringError, ValidationError

DEFAULT_KMAX = 8

#: Variance-explained knee for the default elbow criterion, calibrated so
#: the method reproduces the paper's phase counts on all five workloads.
DEFAULT_ELBOW_THRESHOLD = 0.88

#: If the best multi-cluster fit only shaves this relative amount off the
#: k=1 WCSS, the data has no cluster structure and one phase is reported.
_FLAT_CURVE_FRACTION = 0.05

#: Floats per distance block in the chunked silhouette computation; the
#: working set stays ~32 MiB however many intervals are scored.
_SIL_CHUNK_BUDGET = 4 * 1024 * 1024


@dataclass(frozen=True)
class KSelection:
    """The k sweep plus the chosen k.

    ``results`` is the sweep (a :class:`SweepResults` from
    :func:`choose_k`, whose elbow leaves the k's it never read unfitted
    until something reads them); ``scores`` holds the per-k score the
    method used.  Plain dicts are valid for both.
    """

    method: str
    chosen_k: int
    results: Mapping[int, KMeansResult]
    scores: Mapping[int, float]

    @property
    def best(self) -> KMeansResult:
        return self.results[self.chosen_k]


def spawn_seedseqs(seed: Seed, count: int) -> List[np.random.SeedSequence]:
    """``count`` independent child seeds derived from ``seed``.

    Child i is ``SeedSequence(seed).spawn(...)[i]``, whose identity
    depends only on the root seed and i — not on ``count`` — so a sweep
    over k = 1..5 and one over k = 1..8 agree on their shared prefix,
    and tasks can be fanned out to workers in any order.  A Generator
    seed is accepted for backward compatibility; one draw from it forms
    the root entropy.
    """
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    elif isinstance(seed, np.random.Generator):
        root = np.random.SeedSequence(int(seed.integers(0, 2 ** 63)))
    else:
        root = np.random.SeedSequence(seed)
    return root.spawn(count)


def _fit_one_k(points: np.ndarray, k: int, seedseq: np.random.SeedSequence,
               n_init: int) -> Tuple[int, KMeansResult]:
    """One pool task (module-level so it pickles for worker processes)."""
    return k, kmeans(points, k, seed=seedseq, n_init=n_init)


class SweepResults(Mapping[int, KMeansResult]):
    """k-means fits for k = 1..min(kmax, n_points), each fit on first read.

    The keys are known up front: ``len``, iteration and ``in`` fit
    nothing.  Reading a k that is not fitted yet fits its whole block —
    k <= ceil(top / 2), or the rest — in one
    :func:`~repro.core.kmeans.kmeans_sweep` call.  :meth:`fill` fits
    every missing k in one call; ``items()``, ``values()`` (and so
    equality) and pickling go through it, and with ``workers > 1`` the
    sweep is filled at construction on a process pool, one task per k.

    Every k keeps its child seed ``spawn_seedseqs(seed, top)[k - 1]``
    and a fit's bits do not depend on what shares its call, so whatever
    order the k's are read in, each equals the eager sweep's bit for bit.
    The mapping holds its own copy of the points until every k is
    fitted.  Fills run under a lock; reading a fitted k takes none.
    """

    def __init__(self, points: np.ndarray, kmax: int = DEFAULT_KMAX,
                 seed: Seed = 0, n_init: int = 8,
                 workers: Optional[int] = None) -> None:
        points = np.array(points, dtype=float)
        if points.shape[0] < 1:
            raise ClusteringError("no points to cluster")
        top = min(kmax, points.shape[0])
        if top < 1:
            raise ValidationError("no k to fit")
        self._points: Optional[np.ndarray] = points
        self._keys = range(1, top + 1)
        self._half = (top + 1) // 2
        self._seeds = spawn_seedseqs(seed, top)
        self._n_init = n_init
        self._workers = workers
        self._fits: Dict[int, KMeansResult] = {}
        self._lock = threading.Lock()
        if workers is not None and workers > 1:
            self.fill()

    def __getitem__(self, k: int) -> KMeansResult:
        fit = self._fits.get(k)
        if fit is None:
            if k not in self._keys:
                raise KeyError(k)
            block = (self._keys[:self._half] if k <= self._half
                     else self._keys[self._half:])
            with self._lock:
                missing = [j for j in block if j not in self._fits]
                if missing:
                    self._fit(missing)
            fit = self._fits[k]
        return fit

    def __contains__(self, k: object) -> bool:
        return k in self._keys

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def items(self) -> ItemsView[int, KMeansResult]:
        return self.fill()._fits.items()

    def values(self) -> ValuesView[KMeansResult]:
        return self.fill()._fits.values()

    def fill(self) -> "SweepResults":
        """Fit every k not fitted yet, in one call; returns ``self``."""
        if len(self._fits) < len(self._keys):
            with self._lock:
                missing = [k for k in self._keys if k not in self._fits]
                if missing:
                    self._fit(missing)
        return self

    def _fit(self, ks: List[int]) -> None:
        """Fit ``ks`` (none fitted yet) in one call; the caller holds the lock."""
        points, seeds = self._points, self._seeds
        if self._workers is not None and self._workers > 1 and len(ks) > 1:
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=self._workers) as pool:
                futures = [pool.submit(_fit_one_k, points, k, seeds[k - 1],
                                       self._n_init) for k in ks]
                new = dict(f.result() for f in futures)
        else:
            new = kmeans_sweep(points, {k: seeds[k - 1] for k in ks},
                               n_init=self._n_init)
        fits = {**self._fits, **new}
        # Swapped in whole, so a reader without the lock sees either map.
        self._fits = {k: fits[k] for k in sorted(fits)}
        if len(fits) == len(self._keys):
            self._points = None  # nothing left to fit

    def __getstate__(self) -> dict:
        state = self.fill().__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return (f"SweepResults(k=1..{len(self._keys)}, "
                f"fitted={sorted(self._fits)})")


class _Inertias(Mapping[int, float]):
    """Per-k WCSS of a sweep, read through it (so a lazy sweep stays lazy)."""

    def __init__(self, results: Mapping[int, KMeansResult]) -> None:
        self._results = results

    def __getitem__(self, k: int) -> float:
        return self._results[k].inertia

    def __contains__(self, k: object) -> bool:
        return k in self._results

    def __iter__(self) -> Iterator[int]:
        return iter(self._results)

    def __len__(self) -> int:
        return len(self._results)


def wcss_curve(
    points: np.ndarray,
    kmax: int = DEFAULT_KMAX,
    seed: Seed = 0,
    n_init: int = 8,
    workers: Optional[int] = None,
) -> SweepResults:
    """Fit k-means for k = 1..min(kmax, n_points).

    Returns the :class:`SweepResults` already filled: every k in one
    :func:`~repro.core.kmeans.kmeans_sweep` call.  Every k gets its own
    independent child seed (see :func:`spawn_seedseqs`), so
    ``workers > 1`` — a process pool with one task per k — returns
    bit-identical results to the serial sweep.

    .. note:: Compatibility: earlier versions threaded one shared
       ``Generator`` through the fits in ascending-k order, which made
       each k's result depend on every smaller k having run first.  For
       a given integer seed the clusterings therefore differ from those
       versions, but they no longer depend on sweep order or schedule.
    """
    return SweepResults(points, kmax=kmax, seed=seed, n_init=n_init,
                        workers=workers).fill()


def elbow_k(results: Mapping[int, KMeansResult]) -> int:
    """Pick k at the elbow of the WCSS curve (max distance to chord).

    The curve ``(k, WCSS_k)`` is normalized to the unit square and the k
    farthest from the straight line between its endpoints is the elbow —
    a quantitative form of the classic visual rule.  Degenerate cases
    (flat curve, or immediate zero WCSS) fall back to the smallest k that
    already explains the data.
    """
    ks = np.array(sorted(results))
    wcss = np.array([results[k].inertia for k in ks])

    if ks.size == 1:
        return int(ks[0])
    if wcss[0] <= 0.0:
        return 1  # all points identical
    # Zero (or near-zero) WCSS reached early: the first k achieving it is exact.
    near_zero = wcss <= 1e-12 * wcss[0]
    if near_zero.any():
        first = int(ks[np.argmax(near_zero)])
        ks = ks[ks <= first]
        wcss = wcss[: ks.size]
        if ks.size <= 2:
            return first
    if (wcss[0] - wcss[-1]) / wcss[0] < _FLAT_CURVE_FRACTION:
        return 1  # no structure: k=1 is as good as kmax

    x = (ks - ks[0]) / (ks[-1] - ks[0])
    y = (wcss - wcss[-1]) / (wcss[0] - wcss[-1])
    # Distance from each point to the chord through (0,1) and (1,0):
    # |x + y - 1| / sqrt(2); the sqrt(2) is constant so skip it.
    dist = np.abs(x + y - 1.0)
    return int(ks[int(dist.argmax())])


#: Greedy-refinement parameters of the variance elbow: after the knee,
#: keep adding clusters while one more cluster still removes at least
#: ``ADVANCE_RATIO`` of the remaining WCSS — but never once the fit
#: already explains ``EXPLAINED_CAP`` of the variance.
ADVANCE_RATIO = 0.75
EXPLAINED_CAP = 0.97


def variance_elbow_k(
    results: Mapping[int, KMeansResult],
    threshold: float = DEFAULT_ELBOW_THRESHOLD,
    advance_ratio: float = ADVANCE_RATIO,
    explained_cap: float = EXPLAINED_CAP,
) -> int:
    """Percentage-of-variance-explained form of the elbow criterion.

    Picks the smallest k whose clustering explains at least ``threshold``
    of the k=1 WCSS (the knee), then greedily refines: while the *next*
    cluster would still remove at least ``advance_ratio`` of the remaining
    WCSS — a sign the knee sat on top of real unresolved structure — and
    the current fit has not already explained ``explained_cap`` of the
    variance, advance k by one.

    The refinement matters when clusters are very unequal in mass: a huge
    dominant cluster can push the cumulative curve over the knee while a
    small genuine cluster (e.g. Graph500's bfs-loop intervals) is still
    merged; the remaining-WCSS ratio exposes it.  Robust likewise when
    interval mixtures put probability mass *between* phase centroids
    (boundary intervals), which flattens the geometric chord criterion.

    WCSS is read in ascending k, and at most one k past the choice, so a
    :class:`SweepResults` fits only the k's this rule needs.
    """
    ks = sorted(results)
    total = results[ks[0]].inertia
    # A (near-)zero k=1 WCSS means every interval is identical up to float
    # noise: one phase, no matter what the noise-scale curve looks like.
    if total <= 1e-12:
        return ks[0]

    chosen = ks[-1]
    for k in ks:
        if (total - results[k].inertia) / total >= threshold:
            chosen = k
            break

    while chosen + 1 in results:
        current = results[chosen].inertia
        explained = (total - current) / total
        if current <= 0.0 or explained >= explained_cap:
            break
        nxt = results[chosen + 1].inertia
        if (current - nxt) / current < advance_ratio:
            break
        chosen += 1
    return chosen


def _silhouette_means(points: np.ndarray,
                      labelings: Sequence[np.ndarray]) -> List[float]:
    """Mean silhouette for several labelings over ONE distance pass.

    Distances are produced in row chunks (``_SIL_CHUNK_BUDGET`` floats
    at a time — never the O(n^2) matrix plus a per-point Python loop),
    and each chunk's per-cluster distance sums come from a single
    ``(chunk, n) @ (n, k)`` matmul against the labeling's one-hot
    membership matrix.
    """
    n = points.shape[0]
    x_sq = np.einsum("ij,ij->i", points, points)

    # One-hot membership and cluster sizes per labeling, built once.
    onehots = []
    for labels in labelings:
        _, inv = np.unique(labels, return_inverse=True)
        k = int(inv.max()) + 1
        onehot = np.zeros((n, k))
        onehot[np.arange(n), inv] = 1.0
        onehots.append((inv, onehot, np.bincount(inv, minlength=k)))

    totals = np.zeros(len(labelings))
    chunk = max(1, _SIL_CHUNK_BUDGET // n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        rows = points[start:stop]
        d = x_sq[start:stop, None] - 2.0 * (rows @ points.T)
        d += x_sq[None, :]
        np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        d[np.arange(stop - start), np.arange(start, stop)] = 0.0

        for li, (inv, onehot, counts) in enumerate(onehots):
            own = inv[start:stop]
            sums = d @ onehot  # (chunk, k)
            row_idx = np.arange(stop - start)
            own_count = counts[own] - 1
            a = sums[row_idx, own] / np.maximum(own_count, 1)
            means = sums / counts[None, :]
            means[row_idx, own] = np.inf
            b = means.min(axis=1)
            denom = np.maximum(a, b)
            s = np.where((own_count == 0) | (denom == 0.0), 0.0,
                         (b - a) / np.where(denom == 0.0, 1.0, denom))
            totals[li] += s.sum()
    return [float(t / n) for t in totals]


def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient over all points (from scratch).

    For each point: a = mean distance to its own cluster's other members,
    b = smallest mean distance to another cluster, s = (b - a)/max(a, b).
    Singleton clusters contribute s = 0 (standard convention).
    """
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    n = points.shape[0]
    unique = np.unique(labels)
    if unique.size < 2:
        raise ValidationError("silhouette requires at least two clusters")
    if unique.size > n - 1:
        raise ValidationError("silhouette requires k <= n - 1")
    return _silhouette_means(points, [labels])[0]


def _silhouette_sweep_scores(
    points: np.ndarray, results: Mapping[int, KMeansResult]
) -> Dict[int, float]:
    """Silhouette score per valid k of a sweep (one distance pass total)."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    valid = [k for k in sorted(results) if 2 <= k <= n - 1]
    if not valid:
        return {}
    scores = _silhouette_means(points, [results[k].labels for k in valid])
    return dict(zip(valid, scores))


def silhouette_k(points: np.ndarray, results: Mapping[int, KMeansResult]) -> int:
    """Pick the k (>= 2) maximizing mean silhouette."""
    scores = _silhouette_sweep_scores(points, results)
    best_k, best_score = None, -np.inf
    for k in sorted(scores):
        if scores[k] > best_score:
            best_k, best_score = k, scores[k]
    if best_k is None:
        return 1
    return best_k


def choose_k(
    points: np.ndarray,
    kmax: int = DEFAULT_KMAX,
    method: str = "elbow",
    seed: Seed = 0,
    n_init: int = 8,
    threshold: float = DEFAULT_ELBOW_THRESHOLD,
    workers: Optional[int] = None,
) -> KSelection:
    """Run the k sweep and select k with the requested method.

    The elbow gets the sweep unread and fits only the blocks of k it
    reads (see :class:`SweepResults`); the k's it skipped are fitted
    when something reads them, bit for bit as the eager sweep would
    have.  Chord and silhouette read every k, so they take the filled
    :func:`wcss_curve`.  ``workers`` fills the whole sweep on a process
    pool (one task per k) without changing any result.
    """
    if method not in ("elbow", "chord", "silhouette"):
        raise ValidationError(f"unknown k-selection method {method!r}")
    if method == "elbow":
        results = SweepResults(points, kmax=kmax, seed=seed, n_init=n_init,
                               workers=workers)
        chosen = variance_elbow_k(results, threshold=threshold)
        scores: Mapping[int, float] = _Inertias(results)
    else:
        results = wcss_curve(points, kmax=kmax, seed=seed, n_init=n_init,
                             workers=workers)
        if method == "chord":
            chosen = elbow_k(results)
            scores = _Inertias(results)
        else:
            scores = _silhouette_sweep_scores(points, results)
            chosen = 1
            best_score = -np.inf
            for k in sorted(scores):
                if scores[k] > best_score:
                    chosen, best_score = k, scores[k]
    return KSelection(method=method, chosen_k=chosen, results=results, scores=scores)
