"""From-scratch k-means: k-means++ seeding and Lloyd iterations, with
one loop for a whole k sweep.

Implemented directly on NumPy — no scikit-learn dependency — because
the clustering itself is part of the reproduced system.

:func:`kmeans_sweep` fits several k at once.  Every (k, restart) pair
is one *row*: one k-means++ pass over the center slots seeds every
row, and one Lloyd loop iterates every row until that row converges
(converged rows leave the loop, the others go on).  The best restart
of each k is the first with the lowest inertia.  :func:`kmeans` is a
sweep over one k.

A row's bits never depend on what shares its batch, so a lone k, any
sweep that contains it, a process pool fitting one k per task and any
chunking of the rows agree bit for bit:

- each k draws from its own generator, in the same order whatever else
  is fitted: ``integers(n, size=n_init)`` for the first centers, then
  ``random((k - 1, n_init))`` for the D² picks;
- every BLAS product is a stacked matmul whose per-row slice shape is
  fixed by the row's own k (``(k, d) @ (d, n)`` for distances,
  ``(k, n) @ (n, d)`` for centroid sums, ``(1, d) @ (d, n)`` per
  k-means++ pick), never one flattened ``(rows * k, d)`` product, whose
  blocking — and so whose last bits — can follow the row count;
- every reduction runs per row over an axis whose length the row fixes
  (points, attributes), or sequentially over the center slots, where
  the zero padding of a shorter row adds exact zeros;
- rows of different k share one ``(rows, width, n_points)`` distance
  buffer: the slots past a row's k sit at +inf distance and are never
  reseeded.

Distance tensors are center-major, so reductions run over the long
contiguous point axis, and assignment is an elementwise tournament over
the center slots instead of an ``argmin`` over a short axis.  Rows are
fitted in chunks whose buffer holds at most :data:`_CHUNK_FLOATS`
floats; a chunk is as wide as its own largest k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.util.errors import ClusteringError, ValidationError

Seed = Union[int, np.random.Generator, np.random.SeedSequence]

#: Floats in one row chunk's ``(rows, width, n_points)`` buffer (256 KiB),
#: which holds distances and then one-hot memberships; it bounds a sweep's
#: working set at any input size.  A lone k of 8 restarts is one chunk
#: while ``8 * k * n_points`` fits (k = 5 up to 819 points); a k = 2..8
#: sweep of 120 points is two (k = 2..6, then k = 7..8).
_CHUNK_FLOATS = 32 * 1024


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one k-means fit."""

    k: int
    centroids: np.ndarray  # (k, n_attributes)
    labels: np.ndarray  # (n_points,) int
    inertia: float  # within-cluster sum of squared distances (WCSS)
    n_iter: int

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)


def _pairwise_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, ``(n_points, n_centers)``.

    Uses the expansion ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 with a
    clamp at zero for float round-off.
    """
    x_sq = np.einsum("ij,ij->i", points, points)[:, None]
    c_sq = np.einsum("ij,ij->i", centers, centers)[None, :]
    d = x_sq - 2.0 * points @ centers.T + c_sq
    np.maximum(d, 0.0, out=d)
    return d


def _runs(row_k: np.ndarray) -> List[Tuple[int, int, int]]:
    """``(k, lo, hi)`` for each run of equal k in the sorted ``row_k``."""
    if row_k[0] == row_k[-1]:
        return [(int(row_k[0]), 0, row_k.size)]
    cuts = (np.flatnonzero(row_k[1:] != row_k[:-1]) + 1).tolist()
    bounds = [0, *cuts, row_k.size]
    return [(int(row_k[lo]), lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _sq_dists(centers: np.ndarray, runs: List[Tuple[int, int, int]],
              c_pad: Optional[np.ndarray], points_t: np.ndarray,
              x_sq: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Squared distances of rows sorted by k: ``(rows, max k, n)`` in ``buf``.

    ``centers`` is ``(rows, width, d)``, zero past each row's k, and
    ``runs`` its runs of equal k (see :func:`_runs`); each run is one
    stacked matmul with ``(k, d)`` slices.  ``c_pad`` (``None`` when no
    row is padded) is +inf on the slots past a row's k: whatever finite
    value ``buf`` held there becomes +inf, so those slots never win an
    assignment.  Values may dip a hair below zero from round-off;
    callers that need exact non-negativity clamp themselves.
    """
    rows = centers.shape[0]
    kk = runs[-1][0]
    scaled = centers * -2.0  # exact: the products come out scaled by -2
    for k, lo, hi in runs:
        np.matmul(scaled[lo:hi, :k], points_t, out=buf[lo:hi, :k])
    d = buf[:rows, :kk]
    live = centers[:, :kk]
    c_sq = np.einsum("rkd,rkd->rk", live, live)
    if c_pad is not None:
        c_sq += c_pad[:, :kk]
    d += c_sq[:, :, None]
    d += x_sq
    return d


def _assign(dists: np.ndarray, labels: np.ndarray, best: np.ndarray,
            closer: np.ndarray) -> None:
    """Labels and min distances of a ``(rows, k, n)`` tensor, written
    into ``labels`` and ``best`` (``(rows, n)``; ``closer`` is scratch).

    A k-step elementwise tournament over the long point axis; ties go
    to the lowest cluster index, exactly like ``argmin``, but without
    argmin's per-point reduce overhead on the short cluster axis.
    """
    np.copyto(best, dists[:, 0, :])
    labels.fill(0)
    for j in range(1, dists.shape[1]):
        dj = dists[:, j, :]
        np.less(dj, best, out=closer)
        np.copyto(labels, j, where=closer)
        np.minimum(best, dj, out=best)


def _draws(n_points: int, seeds_by_k: Mapping[int, Seed],
           n_init: int) -> tuple:
    """Every row's k, first-center index and D² uniforms, k ascending.

    Each k draws from its own generator: ``integers(n, size=n_init)``,
    then one ``random(n_init)`` per further center, taken here as one
    ``random((k - 1, n_init))`` (the same stream in the same order).
    """
    ks = sorted(seeds_by_k)
    row_k = np.repeat(np.array(ks, dtype=np.intp), n_init)
    first = np.empty(row_k.size, dtype=np.intp)
    uniforms = np.zeros((row_k.size, max(ks) - 1))
    for i, k in enumerate(ks):
        rng = np.random.default_rng(seeds_by_k[k])
        rows = slice(i * n_init, (i + 1) * n_init)
        first[rows] = rng.integers(n_points, size=n_init)
        uniforms[rows, :k - 1] = rng.random((k - 1, n_init)).T
    return row_k, first, uniforms


def _sq_to(points: np.ndarray, points_t: np.ndarray, x_sq: np.ndarray,
           picks: np.ndarray) -> np.ndarray:
    """``(len(picks), n)`` squared distances from ``points[picks]`` to
    every point: one ``(1, d) @ (d, n)`` product per pick."""
    scaled = points[picks] * -2.0  # exact: the products come out scaled
    d = np.matmul(scaled[:, None, :], points_t)[:, 0]
    d += x_sq
    d += x_sq[picks][:, None]
    np.maximum(d, 0.0, out=d)  # D^2 sampling weights must be >= 0
    return d


def _kmeanspp(points: np.ndarray, points_t: np.ndarray, x_sq: np.ndarray,
              row_k: np.ndarray, first: np.ndarray,
              uniforms: np.ndarray) -> np.ndarray:
    """k-means++ seeds for rows sorted by k: ``(rows, kmax, d)``, zero-padded.

    One pass over the center slots; slot i is drawn for the rows with
    k > i (a suffix of the sorted rows).  D^2 sampling is an inverse-CDF
    lookup on each row's cumulative distance mass.
    """
    n, dim = points.shape
    kmax = int(row_k[-1])
    centers = np.zeros((row_k.size, kmax, dim))
    centers[:, 0] = points[first]
    closest = _sq_to(points, points_t, x_sq, first)
    for i in range(1, kmax):
        lo = int(np.searchsorted(row_k, i, side="right"))
        dist = closest[lo:]
        u = uniforms[lo:, i - 1]
        cum = np.cumsum(dist, axis=1)
        totals = cum[:, -1]
        idx = np.minimum(np.count_nonzero(cum < (u * totals)[:, None], axis=1),
                         n - 1)
        # All remaining points coincide with chosen centers; any pick works.
        degenerate = totals <= 0.0
        if np.count_nonzero(degenerate):
            idx[degenerate] = np.minimum((u[degenerate] * n).astype(np.int64), n - 1)
        centers[lo:, i] = points[idx]
        if i + 1 < kmax:
            np.minimum(dist, _sq_to(points, points_t, x_sq, idx), out=dist)
    return centers


def _lloyd_rows(points: np.ndarray, points_t: np.ndarray, x_sq: np.ndarray,
                centers: np.ndarray, row_k: np.ndarray, max_iter: int,
                tol: float) -> tuple:
    """Lloyd iterations for a chunk of rows sorted by k.

    ``points_t`` is ``points.T`` made contiguous and ``x_sq`` the point
    norms.  ``centers`` is ``(rows, width, d)``, zero past each row's k,
    and ends holding each row's final centers.  Every row iterates until its
    own convergence and then leaves the loop; the rows still in it are
    kept packed.  Returns ``(labels, inertia, n_iter)`` per row.
    """
    n_rows, width, _dim = centers.shape
    n = points.shape[0]
    padded = bool(row_k[0] < width)
    c_pad = (np.where(np.arange(width) < row_k[:, None], 0.0, np.inf)
             if padded else None)
    # Distances, then one-hot memberships: between passes it holds only
    # finite values (see _sq_dists).
    buf = np.zeros((n_rows, width, n))
    flat = buf.reshape(-1)
    slot_pos = (np.arange(n_rows) * width)[:, None]
    cols = np.arange(n)
    # Scratch every pass reuses (its first ``rows`` rows): labels, min
    # distances, the tournament's mask, one-hot cells, center moves.
    lab_s = np.empty((n_rows, n), dtype=np.intp)
    min_s = np.empty((n_rows, n))
    mask_s = np.empty((n_rows, n), dtype=bool)
    cell_s = np.empty((n_rows, n), dtype=np.intp)
    diff_s = np.empty(centers.shape)

    all_labels = np.zeros((n_rows, n), dtype=np.intp)
    row_inertia = np.zeros(n_rows)
    n_iter = np.full(n_rows, max(0, max_iter))
    last_shift = np.full(n_rows, np.inf)

    work = np.arange(n_rows)  # rows still iterating, packed
    cur, ks, pad = centers, row_k, c_pad
    runs = _runs(ks)
    prev_inertia = np.full(n_rows, np.inf)
    for it in range(1, max_iter + 1):
        rows = work.size
        labels, mins = lab_s[:rows], min_s[:rows]
        _assign(_sq_dists(cur, runs, pad, points_t, x_sq, buf), labels, mins,
                mask_s[:rows])
        inertia = mins.sum(axis=1)

        # Centroid sums through one-hot membership: per run of equal k a
        # stacked (k, n) @ (n, d) matmul (no per-cluster Python loop).
        cells = np.add(labels, slot_pos[:rows], out=cell_s[:rows])
        counts = np.bincount(cells.ravel(),
                             minlength=rows * width).reshape(rows, width)
        member = buf[:rows]
        member.fill(0.0)
        cells *= n
        cells += cols
        flat[cells.ravel()] = 1.0
        new = np.zeros(cur.shape)
        for k, lo, hi in runs:
            np.matmul(member[lo:hi, :k], points, out=new[lo:hi, :k])
        new /= np.maximum(counts, 1)[:, :, None]

        # Empty cluster: reseed at the point farthest from its center.
        empty = counts == 0
        if pad is not None:
            empty &= pad == 0.0
        if np.count_nonzero(empty):
            empty_r, empty_c = np.nonzero(empty)
            new[empty_r, empty_c] = points[mins[empty_r].argmax(axis=1)]

        # Shift: per-slot squares over d, then a sequential sum over the
        # slots, so a row's padding adds exact zeros.  A row whose labels
        # did not change (and which reseeded nothing last time) gets its
        # centers back bit for bit: shift exactly 0.0, so it is done.
        diff = np.subtract(new, cur, out=diff_s[:rows])
        diff *= diff
        shift = np.sqrt(diff.sum(axis=2).cumsum(axis=1)[:, -1])
        done = np.fmin(shift, np.abs(prev_inertia - inertia)) <= tol
        if np.count_nonzero(done):
            # A row whose last shift was exactly 0.0 had stable
            # memberships, so the labels of this pass already ARE the
            # assignment for its final centers; the others take one
            # more distance pass after the loop.
            out = work[done]
            centers[out] = new[done]
            all_labels[out] = labels[done]
            row_inertia[out] = inertia[done]
            n_iter[out] = it
            last_shift[out] = shift[done]
            keep = ~done
            work = work[keep]
            if work.size == 0:
                break
            new, inertia, ks = new[keep], inertia[keep], ks[keep]
            pad = pad[keep] if pad is not None else None
            runs = _runs(ks)
        cur, prev_inertia = new, inertia
    else:
        centers[work] = cur

    # Final assignment for the rows that moved on their last iteration
    # (or never iterated).
    redo = np.flatnonzero(last_shift != 0.0)
    if redo.size:
        m = redo.size
        _assign(_sq_dists(centers[redo], _runs(row_k[redo]),
                          c_pad[redo] if padded else None, points_t, x_sq,
                          buf), lab_s[:m], min_s[:m], mask_s[:m])
        all_labels[redo] = lab_s[:m]
        row_inertia[redo] = min_s[:m].sum(axis=1)

    # Repair any empty cluster by reassigning to it the point farthest
    # from its current center (taken from a cluster with more than one
    # member), so callers can rely on non-empty clusters when n >= k.
    all_sizes = np.bincount(np.add(all_labels, slot_pos, out=cell_s).ravel(),
                            minlength=n_rows * width).reshape(n_rows, width)
    empty = all_sizes == 0
    if padded:
        empty &= c_pad == 0.0
    for r in np.flatnonzero(empty.any(axis=1)):
        k = int(row_k[r])
        cents = centers[r, :k]
        labels = all_labels[r]
        dists = _pairwise_sq_dists(points, cents)  # (n, k)
        for j in range(k):
            sizes = np.bincount(labels, minlength=k)
            if sizes[j] > 0:
                continue
            movable = sizes[labels] > 1
            if not movable.any():
                break  # unreachable when n >= k, defensive otherwise
            point_dists = dists[cols, labels]
            donor = int(np.where(movable, point_dists, -np.inf).argmax())
            labels[donor] = j
            cents[j] = points[donor]
        # Repair moved labels/centers: recompute this row's inertia
        # exactly from the repaired assignment.
        deltas = points - cents[labels]
        row_inertia[r] = np.einsum("ij,ij->", deltas, deltas)

    # Inertia is the expansion-form distance mass accumulated on each
    # row's final assignment pass (clamped: round-off can dip a few ulp
    # below zero when clusters collapse onto their points).  Accurate to
    # ~1e-12 relative, same as scikit-learn's inertia.
    np.maximum(row_inertia, 0.0, out=row_inertia)
    return all_labels, row_inertia, n_iter


def _chunks(row_k: np.ndarray, n_points: int) -> List[Tuple[int, int]]:
    """Row ranges of the sorted ``row_k`` whose ``(rows, max k, n_points)``
    buffer holds at most :data:`_CHUNK_FLOATS` floats (a row too large
    for it is a chunk of its own): each chunk takes as many rows as fit,
    and is as wide as its own largest k."""
    slots = _CHUNK_FLOATS // n_points  # rows * width per chunk
    bounds = [0]
    for r, k in enumerate(row_k.tolist()):
        if r > bounds[-1] and (r - bounds[-1] + 1) * k > slots:
            bounds.append(r)
    bounds.append(row_k.size)
    return list(zip(bounds[:-1], bounds[1:]))


def _lloyd(
    points: np.ndarray,
    centers: np.ndarray,
    max_iter: int,
    tol: float,
) -> KMeansResult:
    """Lloyd from one row of initial ``centers`` ``(k, d)``: a one-row chunk."""
    points = np.asarray(points, dtype=float)
    row = np.array(centers, dtype=float)[None]
    k = row.shape[1]
    x_sq = np.einsum("ij,ij->i", points, points)
    labels, inertia, n_iter = _lloyd_rows(
        points, np.ascontiguousarray(points.T), x_sq, row, np.array([k]),
        max_iter, tol)
    return KMeansResult(k=k, centroids=row[0], labels=labels[0],
                        inertia=float(inertia[0]), n_iter=int(n_iter[0]))


def _k1_result(points: np.ndarray) -> KMeansResult:
    """Closed-form k=1 fit (the global mean; no randomness involved)."""
    center = points.mean(axis=0, keepdims=True)
    inertia = float(((points - center) ** 2).sum())
    return KMeansResult(
        k=1,
        centroids=center,
        labels=np.zeros(points.shape[0], dtype=int),
        inertia=inertia,
        n_iter=1,
    )


def _validate(points: np.ndarray, ks: Sequence[int], n_init: int) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValidationError("points must be a 2-D array")
    if not ks:
        raise ValidationError("no k to fit")
    if ks[0] < 1:
        raise ValidationError("k must be >= 1")
    if points.shape[0] < ks[-1]:
        raise ClusteringError(
            f"{points.shape[0]} points cannot form {ks[-1]} clusters")
    if n_init < 1:
        raise ValidationError("n_init must be >= 1")
    return points


def kmeans_sweep(
    points: np.ndarray,
    seeds_by_k: Mapping[int, Seed],
    n_init: int = 8,
    max_iter: int = 200,
    tol: float = 1e-9,
) -> Dict[int, KMeansResult]:
    """Fit every k of ``seeds_by_k`` (k -> seed) with ``n_init`` restarts.

    Returns ``{k: result}`` in ascending k; each result equals
    ``kmeans(points, k, seed=seeds_by_k[k], ...)`` bit for bit.  All
    restarts of all k run through one seeding pass and one Lloyd loop
    per row chunk; k = 1 is the closed-form mean.
    """
    ks = sorted(seeds_by_k)
    points = _validate(points, ks, n_init)
    results: Dict[int, KMeansResult] = {}
    if ks[0] == 1:
        results[1] = _k1_result(points)
    multi = {k: seeds_by_k[k] for k in ks if k > 1}
    if not multi:
        return results
    row_k, first, uniforms = _draws(points.shape[0], multi, n_init)
    points_t = np.ascontiguousarray(points.T)
    x_sq = np.einsum("ij,ij->i", points, points)
    for lo, hi in _chunks(row_k, points.shape[0]):
        ks_c = row_k[lo:hi]
        centers = _kmeanspp(points, points_t, x_sq, ks_c, first[lo:hi],
                            uniforms[lo:hi])
        labels, inertia, n_iter = _lloyd_rows(points, points_t, x_sq, centers,
                                              ks_c, max_iter, tol)
        for k, a, b in _runs(ks_c):
            r = a + int(inertia[a:b].argmin())  # first minimum wins
            held = results.get(k)
            if held is None or inertia[r] < held.inertia:
                results[k] = KMeansResult(
                    k=k, centroids=centers[r, :k].copy(),
                    labels=labels[r].copy(), inertia=float(inertia[r]),
                    n_iter=int(n_iter[r]))
    return results


def kmeans(
    points: np.ndarray,
    k: int,
    seed: Seed = 0,
    n_init: int = 8,
    max_iter: int = 200,
    tol: float = 1e-9,
) -> KMeansResult:
    """Fit k-means with ``n_init`` restarts, keeping the lowest inertia.

    Raises :class:`ClusteringError` if there are fewer points than
    clusters; duplicate points are fine.  ``seed`` may be an int, a
    ``numpy.random.Generator``, or a ``numpy.random.SeedSequence``.
    A one-k :func:`kmeans_sweep`.
    """
    return kmeans_sweep(points, {k: seed}, n_init=n_init,
                        max_iter=max_iter, tol=tol)[k]
