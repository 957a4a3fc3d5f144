"""The incremental streaming analysis engine and its live phase model.

The paper's pitch is *incremental* profiling, and this module makes the
analysis side live up to it: an :class:`IncrementalAnalyzer` accepts
cumulative gmon snapshots **one at a time**, stores each as one
cumulative row of a :class:`~repro.core.intervals.Differencer` (the one
differencing path; an interval is the clamped difference of two
consecutive rows, so there is no O(n^2) re-diff of the whole series),
and maintains a live phase model between full fits.

That live model is :class:`LiveModel`, the one engine behind every
streaming path: the analyzer here and the daemon's per-stream
:class:`~repro.core.online.OnlinePhaseTracker` both wrap it.  It labels
each interval as if it arrived alone — nearest-centroid assignment, a
novelty gate, mini-batch centroid refinement, and a drift detector that
triggers a *bounded* re-sweep (k-1..k+1) only when the stream stops
looking like the model.

Batch analysis is the degenerate case: feed every snapshot, then
:meth:`IncrementalAnalyzer.finalize`, which assembles the accumulated
rows through the same :func:`~repro.core.intervals.assemble_interval_data`
helper the batch path uses and runs the full pipeline — so
``analyze_snapshots`` (now a thin driver over this engine) returns
results identical to the historical implementation.

Label stability across refits comes from greedy centroid matching
(:func:`match_phase_labels`): each refit's clusters inherit the stable
id of the nearest old centroid, unmatched clusters get fresh ids, and
ids are never reused — so phase 2 before a refit and phase 2 after it
mean the same behaviour.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.intervals import Differencer, assemble_interval_data, clamped_diff
from repro.core.kmeans import KMeansResult, kmeans_sweep
from repro.core.kselect import (
    DEFAULT_KMAX,
    _silhouette_means,
    choose_k,
    spawn_seedseqs,
)
from repro.core.phases import phases_from_labels
from repro.core.pipeline import AnalysisConfig, AnalysisResult, analyze_intervals
from repro.gprof.gmon import GmonData
from repro.util.errors import ProfileDataError, ValidationError

#: Phase label reported for intervals outside every phase's gate.
NOVEL = -1

#: Absolute floor on novelty gates, matching the online tracker: a
#: zero-variance phase still accepts intervals within this distance.
GATE_FLOOR = 0.05

#: How far (in multiples of a phase's novelty gate) a refit centroid may
#: sit from the old one and still inherit its stable id.
MATCH_RADIUS_FACTOR = 2.0


# ----------------------------------------------------------------------
# shared model-maintenance helpers (engine + online tracker)
# ----------------------------------------------------------------------
def calibrate_gates(
    features: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
    quantile: float = 0.95,
    slack: float = 1.5,
) -> np.ndarray:
    """Per-cluster novelty gates from the fit's own member distances.

    A cluster's gate is ``slack`` times the ``quantile`` of its members'
    centroid distances, floored at :data:`GATE_FLOOR` — the calibration
    the online tracker has always used, factored out so live refits and
    offline training stay consistent.
    """
    if not 0 < quantile <= 1 or slack <= 0:
        raise ValidationError("quantile in (0,1], slack > 0 required")
    labels = np.asarray(labels)
    gates = np.full(centroids.shape[0], GATE_FLOOR)
    for cid in range(centroids.shape[0]):
        members = features[labels == cid]
        if members.shape[0] == 0:
            continue
        dists = np.linalg.norm(members - centroids[cid], axis=1)
        gates[cid] = max(float(np.quantile(dists, quantile)) * slack, GATE_FLOOR)
    return gates


def match_phase_labels(
    old_centroids: np.ndarray,
    old_labels: Sequence[int],
    new_centroids: np.ndarray,
    next_label: int,
    max_distance: Any = None,
) -> Tuple[np.ndarray, int]:
    """Stable phase ids for a refit's clusters via greedy centroid matching.

    Pairs old and new centroids greedily by globally smallest distance
    (the greedy form of Hungarian assignment — optimal matchings and
    greedy ones agree whenever phases are well separated, which is
    exactly when label stability matters).  Each matched new cluster
    inherits its partner's stable id; unmatched new clusters (k grew, or
    genuinely new behaviour) get fresh ids from ``next_label`` upward,
    ordered by cluster index so the assignment is deterministic.

    ``max_distance`` caps how far a pair may be and still count as the
    *same* phase — a scalar, or one radius per old centroid (callers
    pass a multiple of each phase's novelty gate).  Without a cap, a
    genuinely new cluster sitting far from everything would still steal
    the least-bad old id; with it, "phase 2 survived the refit" means
    the new centroid is within phase 2's own similarity radius.

    Returns ``(labels_for_new_rows, next_unused_label)``.  Ids of old
    clusters that found no partner (k shrank) simply retire — they are
    never reassigned, so a consumer holding "phase 3" from before the
    refit can still interpret it.
    """
    old_centroids = np.asarray(old_centroids, dtype=float)
    new_centroids = np.asarray(new_centroids, dtype=float)
    n_old = old_centroids.shape[0]
    n_new = new_centroids.shape[0]
    labels = np.full(n_new, -1, dtype=int)
    if n_old and n_new:
        width = max(old_centroids.shape[1], new_centroids.shape[1])
        if old_centroids.shape[1] < width:
            old_centroids = np.pad(
                old_centroids, ((0, 0), (0, width - old_centroids.shape[1])))
        if new_centroids.shape[1] < width:
            new_centroids = np.pad(
                new_centroids, ((0, 0), (0, width - new_centroids.shape[1])))
        dist = np.linalg.norm(
            old_centroids[:, None, :] - new_centroids[None, :, :], axis=2)
        if max_distance is not None:
            caps = np.broadcast_to(
                np.asarray(max_distance, dtype=float).reshape(-1, 1)
                if np.ndim(max_distance) else float(max_distance),
                (n_old, 1))
        matched_old: set = set()
        matched = 0
        for flat in np.argsort(dist, axis=None, kind="stable"):
            i, j = divmod(int(flat), n_new)
            if i in matched_old or labels[j] >= 0:
                continue
            if max_distance is not None and dist[i, j] > caps[i, 0]:
                continue  # too far to be the same phase (caps vary per row)
            labels[j] = int(old_labels[i])
            matched_old.add(i)
            matched += 1
            if matched == min(n_old, n_new):
                break
    for j in range(n_new):
        if labels[j] < 0:
            labels[j] = next_label
            next_label += 1
    return labels, next_label


@dataclass(frozen=True)
class DriftConfig:
    """When does the live model no longer fit the stream?"""

    #: Sliding window of recent intervals the detector looks at.
    window: int = 32
    #: Don't judge before this many intervals are in the window.
    min_samples: int = 16
    #: Fire when at least this fraction of the window is novel.
    novel_rate: float = 0.3
    #: Fire when the window's mean squared centroid distance exceeds this
    #: multiple of the fit-time baseline (inertia degradation).
    inertia_factor: float = 2.5

    def __post_init__(self) -> None:
        if self.window < 1 or self.min_samples < 1:
            raise ValidationError("drift window sizes must be positive")
        if not 0 < self.novel_rate <= 1:
            raise ValidationError("novel-rate threshold must be in (0, 1]")
        if self.inertia_factor <= 1:
            raise ValidationError("inertia factor must exceed 1")


class DriftDetector:
    """Sliding-window drift detection over live classifications.

    Two independent triggers, either of which fires:

    - *novel rate*: the recent fraction of gate-rejected intervals —
      catches genuinely new behaviour (phases the model has never seen);
    - *inertia degradation*: the recent mean squared distance to the
      assigned centroid versus the fit-time baseline — catches phases
      that still match but have *moved* (workload drift within a phase).
    """

    def __init__(self, config: DriftConfig = DriftConfig()) -> None:
        self.config = config
        self._novel: Deque[bool] = deque(maxlen=config.window)
        self._sq: Deque[float] = deque(maxlen=config.window)
        self.baseline: Optional[float] = None

    def reset(self, baseline: Optional[float]) -> None:
        """Clear the window and install a fresh fit-time baseline."""
        self._novel.clear()
        self._sq.clear()
        self.baseline = baseline

    def observe(self, novel: bool, sq_dist: float) -> None:
        self._novel.append(bool(novel))
        self._sq.append(float(sq_dist))

    def check(self) -> Optional[str]:
        """A human-readable reason to refit, or None."""
        if len(self._novel) < self.config.min_samples:
            return None
        rate = sum(self._novel) / len(self._novel)
        if rate >= self.config.novel_rate:
            return (f"novel-rate {rate:.2f} >= "
                    f"{self.config.novel_rate:.2f} over {len(self._novel)} intervals")
        if self.baseline is not None and self.baseline > 0:
            recent = sum(self._sq) / len(self._sq)
            if recent >= self.config.inertia_factor * self.baseline:
                return (f"inertia {recent:.4g} >= "
                        f"{self.config.inertia_factor:g}x baseline {self.baseline:.4g}")
        return None

    # -- checkpoint support -------------------------------------------
    def state(self) -> Dict[str, Any]:
        return {
            "novel": [bool(x) for x in self._novel],
            "sq": [float(x) for x in self._sq],
            "baseline": self.baseline,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        self._novel.clear()
        self._novel.extend(bool(x) for x in state.get("novel", []))
        self._sq.clear()
        self._sq.extend(float(x) for x in state.get("sq", []))
        baseline = state.get("baseline")
        self.baseline = None if baseline is None else float(baseline)


@dataclass(frozen=True)
class RefitEvent:
    """One live model refit (bootstrap, drift-triggered, or forced)."""

    #: The first interval the new model classifies.
    interval_index: int
    #: The model version the refit produced (monotonically increasing).
    version: int
    old_k: int
    new_k: int
    reason: str
    #: Stable phase id of each new centroid row, in row order.
    label_map: Tuple[int, ...]

    def to_obj(self) -> Dict[str, Any]:
        return {
            "interval_index": self.interval_index,
            "version": self.version,
            "old_k": self.old_k,
            "new_k": self.new_k,
            "reason": self.reason,
            "label_map": list(self.label_map),
        }

    @classmethod
    def from_obj(cls, obj: Dict[str, Any]) -> "RefitEvent":
        return cls(
            interval_index=int(obj.get("interval_index", 0)),
            version=int(obj.get("version", 0)),
            old_k=int(obj.get("old_k", 0)),
            new_k=int(obj.get("new_k", 0)),
            reason=str(obj.get("reason", "")),
            label_map=tuple(int(x) for x in obj.get("label_map", [])),
        )


def bounded_resweep(
    features: np.ndarray,
    current_k: int,
    kmax: int = DEFAULT_KMAX,
    seed: Any = 0,
    n_init: int = 4,
) -> KMeansResult:
    """Refit around the current k only: candidates are k-1, k, k+1.

    The full k = 1..kmax sweep is a discovery tool; once a model exists,
    drift rarely changes the phase count by more than one, so the
    bounded sweep keeps refits O(3 fits) instead of O(kmax fits), fitted
    together in one :func:`~repro.core.kmeans.kmeans_sweep` call.
    Candidates are scored by mean silhouette (the criterion that needs
    no reference curve); if every multi-cluster candidate scores <= 0
    the data is one blob and k = 1 wins when it is a candidate.
    """
    n = features.shape[0]
    candidates = sorted({k for k in (current_k - 1, current_k, current_k + 1)
                         if 1 <= k <= min(kmax, n)})
    if not candidates:
        candidates = [min(max(1, current_k), n)]
    seeds = spawn_seedseqs(seed, max(candidates))
    fits = kmeans_sweep(features, {k: seeds[k - 1] for k in candidates},
                        n_init=n_init)
    scorable = [k for k in candidates if 2 <= k <= n - 1]
    if not scorable:
        return fits[candidates[0]]
    scores = _silhouette_means(features, [fits[k].labels for k in scorable])
    best = scorable[int(np.argmax(scores))]
    if max(scores) <= 0.0 and 1 in fits:
        best = 1
    return fits[best]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Refit policy of a :class:`LiveModel` (``incprofd`` per-stream).

    ``cooldown_s`` is the wall-clock floor between refits (the server's
    ``--refit-interval``); ``drift.novel_rate`` is the drift threshold
    (``--refit-drift-threshold``).  Refits train on the last ``window``
    observed interval profiles.
    """

    window: int = 128
    min_refit_window: int = 16
    drift: DriftConfig = field(default_factory=DriftConfig)
    cooldown_s: float = 30.0
    cooldown_intervals: int = 16
    kmax: int = DEFAULT_KMAX
    n_init: int = 4
    quantile: float = 0.95
    slack: float = 1.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window < self.min_refit_window or self.min_refit_window < 2:
            raise ValidationError(
                "need window >= min_refit_window >= 2 profiles for refits")
        if self.cooldown_s < 0 or self.cooldown_intervals < 0:
            raise ValidationError("refit cooldowns must be non-negative")
        if self.kmax < 1 or self.n_init < 1:
            raise ValidationError("kmax and n_init must be positive")
        if not 0 < self.quantile <= 1 or self.slack <= 0:
            raise ValidationError("quantile in (0,1], slack > 0 required")


# ----------------------------------------------------------------------
# the live model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrackedInterval:
    """One classified interval."""

    index: int
    phase_id: int  # NOVEL (-1) when outside every phase's gate
    distance: float
    nearest_phase: int
    #: Version of the model that classified this interval (0 for the
    #: original offline fit; bumped by every refit / installed model).
    model_version: int = 0

    @property
    def is_novel(self) -> bool:
        return self.phase_id == NOVEL


def nearest_centroids(mat: np.ndarray, centroids: np.ndarray,
                      gates: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of ``mat``: nearest centroid row, its distance, and
    whether that distance falls outside the centroid's gate."""
    dists = np.linalg.norm(mat[:, None, :] - centroids[None, :, :], axis=2)
    nearest = dists.argmin(axis=1)
    distance = dists[np.arange(mat.shape[0]), nearest]
    return nearest, distance, distance > gates[nearest]


class LiveModel:
    """The live phase model every streaming path runs.

    Owns the centroids, novelty gates, stable labels, member counts and
    version, and — with ``adaptive`` set — the drift detector, the refit
    window and the refit events.  :meth:`classify` works one interval at
    a time, so a label never depends on how rows were split into
    batches.  A refit trains on the last ``adaptive.window`` rows, seeds
    its re-sweep with ``SeedSequence([seed & 0xFFFFFFFF, version + 1])``,
    and its :class:`RefitEvent` names the first interval the new model
    classifies; each row's ``model_version`` is the version that
    classified it.  Lock-free: the tracker wraps it in its lock.
    """

    def __init__(self, centroids: np.ndarray, gates: np.ndarray, *,
                 labels: Optional[Sequence[int]] = None,
                 counts: Optional[Sequence[float]] = None, version: int = 0,
                 adaptive: Optional[AdaptiveConfig] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.adaptive = adaptive
        self.clock = clock
        self.window: Deque[np.ndarray] = deque(
            maxlen=adaptive.window if adaptive else 1)
        self.drift = DriftDetector(adaptive.drift) if adaptive else None
        self.last_refit_index = 0
        self.last_refit_time: Optional[float] = None
        self.events: List[RefitEvent] = []
        self.next_label = 0
        self.replace(centroids, gates, labels=labels, counts=counts,
                     version=version)

    def replace(self, centroids: np.ndarray, gates: np.ndarray, *,
                labels: Optional[Sequence[int]] = None,
                counts: Optional[Sequence[float]] = None, version: int) -> None:
        """Install a model trained elsewhere (arrays are copied; labels
        default to row order, counts to one).  The drift window restarts
        without a baseline; refit window, events and cooldowns carry on."""
        centroids = np.array(centroids, dtype=float)
        gates = np.array(gates, dtype=float)
        if centroids.ndim != 2 or centroids.shape[0] != gates.shape[0]:
            raise ValidationError("centroids and gates disagree")
        k = centroids.shape[0]
        labels = (np.arange(k) if labels is None
                  else np.asarray([int(x) for x in labels], dtype=int))
        counts = (np.ones(k) if counts is None
                  else np.asarray([float(c) for c in counts]))
        if labels.shape[0] != k:
            raise ValidationError("labels must cover every centroid row")
        if counts.shape[0] != k:
            raise ValidationError("counts must cover every centroid row")
        self.centroids, self.gates = centroids, gates
        self.labels, self.counts = labels, counts
        self.version = int(version)
        if k:
            self.next_label = max(self.next_label, int(labels.max()) + 1)
        if self.drift is not None:
            self.drift.reset(None)

    def widen(self, width: int) -> None:
        """Zero columns for functions that appeared after the fit: they
        never ran during training, so distances stay meaningful."""
        pad = width - self.centroids.shape[1]
        if pad > 0:
            self.centroids = np.pad(self.centroids, ((0, 0), (0, pad)))

    # ------------------------------------------------------------------
    def _interval(self, index: int, row: int, distance: float,
                  novel: bool) -> TrackedInterval:
        label = int(self.labels[row])
        return TrackedInterval(
            index=index, phase_id=NOVEL if novel else label,
            distance=float(distance), nearest_phase=label,
            model_version=self.version)

    def tracked(self, start: int, nearest: np.ndarray, distance: np.ndarray,
                novel: np.ndarray) -> List[TrackedInterval]:
        """Intervals ``start, start + 1, ...`` from a vectorized pass
        (:func:`nearest_centroids`) against this model."""
        return [self._interval(start + i, nearest[i], distance[i], novel[i])
                for i in range(len(distance))]

    def classify(self, mat: np.ndarray, start: int,
                 on_refit: Optional[Callable[[RefitEvent], None]] = None,
                 ) -> List[TrackedInterval]:
        """Classify the rows of ``mat`` as intervals ``start``, ``start+1``, ...

        Each row gets its nearest centroid and is novel outside that
        centroid's gate.  An adaptive model then takes the row in — a
        mini-batch update of the centroid (rate 1/count) unless novel,
        the refit window, the drift detector — and checks for a refit.
        A refit that fires mid-batch is installed at once, ``on_refit``
        hears of it, and the rest of the batch classifies under it.
        """
        if self.adaptive is None:
            # A frozen model never moves: one vectorized pass gives
            # exactly the per-row answers.
            return self.tracked(
                start, *nearest_centroids(mat, self.centroids, self.gates))
        out: List[TrackedInterval] = []
        for i, x in enumerate(mat):
            dists = np.linalg.norm(self.centroids - x, axis=1)
            j = int(dists.argmin())
            distance = float(dists[j])
            novel = bool(distance > self.gates[j])
            out.append(self._interval(start + i, j, distance, novel))
            self.window.append(x.copy())
            if not novel:
                self.counts[j] += 1.0
                self.centroids[j] += (x - self.centroids[j]) / self.counts[j]
            self.drift.observe(novel, distance * distance)
            event = self.refit(start + i + 1)
            if event is not None and on_refit is not None:
                on_refit(event)
        return out

    # ------------------------------------------------------------------
    def refit(self, seen: int,
              reason: Optional[str] = None) -> Optional[RefitEvent]:
        """Refit from the window when drift calls for it, or now when a
        ``reason`` is given; ``seen`` (intervals classified so far) is
        the first interval the new model classifies.  Drift refits wait
        out both cooldowns; any refit needs ``min_refit_window`` rows."""
        ad = self.adaptive
        if ad is None or len(self.window) < ad.min_refit_window:
            return None
        if reason is None:
            if seen - self.last_refit_index < ad.cooldown_intervals:
                return None
            if (self.last_refit_time is not None
                    and self.clock() - self.last_refit_time < ad.cooldown_s):
                return None
            reason = self.drift.check()
            if reason is None:
                return None
        # Rows from before the function universe grew are zero-padded.
        features = np.zeros((len(self.window), self.centroids.shape[1]))
        for i, row in enumerate(self.window):
            features[i, :row.shape[0]] = row
        fit = bounded_resweep(
            features, len(self.centroids), kmax=ad.kmax,
            seed=np.random.SeedSequence(
                [ad.seed & 0xFFFFFFFF, self.version + 1]),
            n_init=ad.n_init)
        return self.install_fit(fit, features, reason, seen)

    def install_fit(self, fit: KMeansResult, features: np.ndarray,
                    reason: str, index: int) -> RefitEvent:
        """Swap in ``fit`` (of ``features``) as the next version, first
        classifying interval ``index``: stable ids by centroid matching,
        gates calibrated on ``features``, drift baseline its inertia."""
        ad = self.adaptive
        labels, self.next_label = match_phase_labels(
            self.centroids, self.labels, fit.centroids, self.next_label,
            max_distance=self.gates * MATCH_RADIUS_FACTOR)
        event = RefitEvent(
            interval_index=index, version=self.version + 1,
            old_k=len(self.centroids), new_k=fit.k, reason=reason,
            label_map=tuple(int(x) for x in labels))
        self.centroids = np.asarray(fit.centroids, dtype=float).copy()
        self.gates = calibrate_gates(features, fit.labels, fit.centroids,
                                     ad.quantile, ad.slack)
        self.labels = labels
        self.counts = np.bincount(fit.labels, minlength=fit.k).astype(float)
        self.version = event.version
        self.last_refit_index = index
        self.last_refit_time = self.clock()
        self.drift.reset(fit.inertia / max(1, features.shape[0]))
        self.events.append(event)
        return event

    # -- checkpoint support -------------------------------------------
    def refit_state(self) -> Dict[str, Any]:
        """The refit machinery, JSON-ready (adaptive models only)."""
        return {
            "buffer": [[float(x) for x in row] for row in self.window],
            "drift": self.drift.state(),
            "next_label": int(self.next_label),
            "last_refit_index": int(self.last_refit_index),
            "events": [e.to_obj() for e in self.events],
        }

    def restore_refit_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`refit_state`."""
        self.window.clear()
        self.window.extend(np.asarray(row, dtype=float)
                           for row in state.get("buffer", []))
        self.drift.restore(state.get("drift", {}))
        self.next_label = max(self.next_label, int(state.get("next_label", 0)))
        self.last_refit_index = int(state.get("last_refit_index", 0))
        self.last_refit_time = None  # wall clock doesn't survive restarts
        self.events = [RefitEvent.from_obj(obj)
                       for obj in state.get("events", [])]


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IncrementalUpdate:
    """What one :meth:`IncrementalAnalyzer.observe` call produced."""

    index: int
    timestamp: float
    #: Live phase assignment: a stable phase id, :data:`NOVEL`, or None
    #: while the engine is still warming up (no model yet).
    phase_id: Optional[int]
    distance: Optional[float]
    novel: bool
    model_version: int
    #: The refit this observation triggered: a bootstrap classifies this
    #: interval, a drift refit starts at the next.
    refit: Optional[RefitEvent] = None


class IncrementalAnalyzer:
    """One-snapshot-at-a-time analysis with a live, refittable model.

    :meth:`observe` ingests a cumulative snapshot: it is stored as one
    cumulative row of a growing :class:`~repro.core.intervals.Differencer`
    and — with ``track=True`` — the interval it closes (the clamped
    difference of the last two rows, O(functions), not O(n)) is
    classified by a :class:`LiveModel`, bootstrapped by a full k sweep
    after ``warmup`` intervals.  Its refits never wait on the wall clock
    and take ``kmax``/``n_init``/``seed`` from the analysis config; new
    functions widen the model with zero columns.  :meth:`finalize` runs
    the batch pipeline on the accumulated rows, so it returns exactly
    what ``analyze_snapshots`` on the same series would.

    Not thread-safe: one engine serves one snapshot stream (the service
    wraps per-stream trackers in locks instead).
    """

    def __init__(
        self,
        config: AnalysisConfig = AnalysisConfig(),
        *,
        track: bool = True,
        warmup: int = 12,
        drift: Optional[DriftConfig] = None,
        refit_cooldown: int = 16,
        quantile: float = 0.95,
        slack: float = 1.5,
    ) -> None:
        if warmup < 2:
            raise ValidationError("warmup needs at least two intervals")
        if refit_cooldown < 1:
            raise ValidationError("refit cooldown must be positive")
        self.config = config
        self.track = track
        self.warmup = warmup
        self._adaptive = AdaptiveConfig(
            min_refit_window=2, drift=drift or DriftConfig(),
            cooldown_s=0.0, cooldown_intervals=refit_cooldown,
            kmax=config.kmax, n_init=config.n_init,
            quantile=quantile, slack=slack, seed=config.seed)
        # -- accumulated cumulative rows -------------------------------
        self._diff = Differencer()
        # -- live model (None until the warmup bootstrap) ---------------
        self._model: Optional[LiveModel] = None
        self.updates: List[IncrementalUpdate] = []

    # ------------------------------------------------------------------
    @property
    def n_intervals(self) -> int:
        return len(self._diff)

    @property
    def n_functions(self) -> int:
        return len(self._diff.functions)

    @property
    def current_k(self) -> int:
        return 0 if self._model is None else len(self._model.centroids)

    @property
    def model_version(self) -> int:
        return 0 if self._model is None else self._model.version

    @property
    def centroids(self) -> Optional[np.ndarray]:
        """The live model's centroids (None before the bootstrap fit)."""
        return None if self._model is None else self._model.centroids

    @property
    def refits(self) -> List[RefitEvent]:
        """Every live-model fit so far, bootstrap first."""
        return [] if self._model is None else self._model.events

    def phase_sequence(self) -> List[Optional[int]]:
        """Live phase id per observed interval (None during warmup)."""
        return [u.phase_id for u in self.updates]

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def observe(self, snapshot: GmonData) -> IncrementalUpdate:
        """Ingest one cumulative snapshot; returns the live assignment."""
        diff = self._diff
        timestamp = snapshot.timestamp
        if diff.timestamps and timestamp < diff.timestamps[-1]:
            raise ProfileDataError("snapshots are not in time order")
        diff.push(snapshot)

        index = len(diff) - 1
        if self.track and (self._model is not None or index + 1 >= self.warmup):
            update = self._track_row(index, timestamp,
                                     diff.interval() * snapshot.sample_period)
        else:  # warming up, or not tracking
            update = IncrementalUpdate(
                index=index, timestamp=timestamp, phase_id=None,
                distance=None, novel=False, model_version=0)
        self.updates.append(update)
        return update

    def observe_many(self, snapshots: Sequence[GmonData]) -> List[IncrementalUpdate]:
        return [self.observe(snap) for snap in snapshots]

    # ------------------------------------------------------------------
    # live model
    # ------------------------------------------------------------------
    def _bootstrap(self, index: int) -> None:
        """First fit: the full k sweep over every interval so far,
        clusters ordered like the batch pipeline (size descending, first
        appearance) so early live ids line up with what a batch analysis
        of the prefix would report.  It classifies interval ``index``."""
        diff = self._diff
        features = (clamped_diff(diff.ticks.view())
                    * np.asarray(diff.periods)[:, None])
        cfg = self.config
        selection = choose_k(
            features, kmax=min(cfg.kmax, features.shape[0]),
            method=cfg.kselect_method, seed=cfg.seed, n_init=cfg.n_init,
            threshold=cfg.kselect_threshold)
        best = selection.best
        phases = phases_from_labels(best.labels, best.centroids, selection)
        ordered = KMeansResult(
            k=phases.n_phases,
            centroids=np.vstack([p.centroid for p in phases.phases]),
            labels=phases.labels, inertia=best.inertia, n_iter=best.n_iter)
        model = LiveModel(np.zeros((0, features.shape[1])), np.zeros(0),
                          adaptive=self._adaptive)
        model.window.extend(features[:-1])  # row ``index`` joins as it classifies
        model.install_fit(ordered, features, "bootstrap", index)
        self._model = model

    def _track_row(self, index: int, timestamp: float,
                   x: np.ndarray) -> IncrementalUpdate:
        n_events = len(self.refits)
        if self._model is None:
            self._bootstrap(index)
        self._model.widen(x.shape[0])
        (tracked,) = self._model.classify(x[None, :], index)
        new_events = self._model.events[n_events:]
        return IncrementalUpdate(
            index=index, timestamp=timestamp, phase_id=tracked.phase_id,
            distance=tracked.distance, novel=tracked.is_novel,
            model_version=tracked.model_version,
            refit=new_events[-1] if new_events else None)

    # ------------------------------------------------------------------
    # finalize (the batch-equivalent result)
    # ------------------------------------------------------------------
    def finalize(self, workers: Optional[int] = None) -> AnalysisResult:
        """Run the full pipeline on everything observed so far.

        Returns exactly what ``analyze_snapshots`` over the same series
        returns: the accumulated rows go through the shared assembly
        helper (same clamped diff, same vocabulary derivation) and
        the same ``analyze_intervals`` stages.  The engine remains
        usable afterwards — more snapshots can be observed and a later
        finalize covers them too.
        """
        cfg = self.config
        data = assemble_interval_data(
            self._diff, drop_short_final=cfg.drop_short_final,
            min_final_fraction=cfg.min_final_fraction)
        return analyze_intervals(data, cfg, workers=workers)
