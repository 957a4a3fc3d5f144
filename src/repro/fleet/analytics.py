"""Cross-stream phase intelligence for an incprofd fleet.

IncProf classifies each stream's intervals into phases independently;
this layer lifts the same machinery one level: every stream is reduced
to a compact :class:`PhaseSignature` (phase occupancy + transition
histogram + model shape + refit history), signatures embed into a fixed
:data:`SIG_DIM`-dimensional vector, and the existing k-means/silhouette
kernels cluster *streams* into **cohorts** the way they cluster
intervals into phases.  On top of the cohorts:

- **anomalies** — streams whose signature sits far outside their
  cohort's own distance distribution;
- **drift events** — correlated behaviour change across a cohort
  (a refit wave, or a cohort-wide novel-interval burst) within a
  trailing interval window.

Signatures come from two sources that produce the same schema:

- live — :meth:`PhaseSignature.from_tracker` reads a serving
  :class:`~repro.core.online.OnlinePhaseTracker` through its public,
  lock-taking accessors;
- recorded — :meth:`PhaseSignature.from_store` replays any
  :class:`~repro.store.interface.IntervalStore` window through the
  streaming engine, so ``incprof analyze-fleet`` reproduces the live
  answer offline from per-worker archives (including orphan stores of
  evicted workers).

Cohort ids stay stable across re-analysis via
:class:`repro.core.cohorts.CohortMatcher`.  See ``docs/ANALYTICS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cohorts import CohortMatcher, signature_distance
from repro.core.kselect import silhouette_k, wcss_curve
from repro.core.online import NOVEL, OnlinePhaseTracker
from repro.store import layout
from repro.store.interface import IntervalStore, ReplayResult
from repro.store.segments import open_store
from repro.util.errors import ReproError, ValidationError

__all__ = [
    "SIG_DIM",
    "SIG_PHASES",
    "PhaseSignature",
    "analyze_fleet_dir",
    "analyze_signatures",
    "cluster_signatures",
    "detect_drift",
    "flag_anomalies",
]

#: Fixed phase-id slots in the embedding.  Stable ids above this fold
#: into the last slot — cross-stream geometry only needs the dominant
#: phases to be comparable, and DEFAULT_KMAX is 8.
SIG_PHASES = 8

#: Intervals of trailing phase timeline carried in a signature (enough
#: for the dashboard's per-stream strip; signatures stay wire-small).
TIMELINE_TAIL = 120

#: Trailing-window length (intervals) for drift correlation.
DEFAULT_DRIFT_WINDOW = 32

#: A cohort member further than ``mean + threshold * std`` from its
#: cohort centroid is anomalous.
DEFAULT_ANOMALY_THRESHOLD = 2.0

#: Tail novel-interval share that counts a stream into a novel burst.
DEFAULT_NOVEL_THRESHOLD = 0.25

#: Upper bound on the cohort count sweep.
DEFAULT_COHORT_KMAX = 4

_SCALAR_DIMS = 6

#: Total embedding dimensionality (see :meth:`PhaseSignature.vector`).
SIG_DIM = (SIG_PHASES + 1) + SIG_PHASES + SIG_PHASES * SIG_PHASES + _SCALAR_DIMS


def _squash(x: float) -> float:
    """Map [0, inf) into [0, 1) so unbounded scalars can't dominate."""
    return x / (1.0 + x)


def _slot(phase_id: int) -> int:
    """Embedding slot for a stable phase id (NOVEL gets its own slot)."""
    if phase_id == NOVEL:
        return SIG_PHASES
    return min(int(phase_id), SIG_PHASES - 1)


@dataclass
class PhaseSignature:
    """One stream's phase behaviour, compressed for fleet comparison.

    ``occupancy`` maps stable phase id -> share of classified intervals
    (NOVEL included as -1); ``transitions`` maps ``(from, to)`` ->
    share of all phase changes.  ``refit_indices`` are the interval
    indices of live-model refits, kept so drift detection can window
    them.  ``timeline`` is the trailing phase sequence (at most
    :data:`TIMELINE_TAIL` ids) for dashboard rendering.
    """

    stream_id: str
    n_intervals: int = 0
    n_phases: int = 0
    occupancy: Dict[int, float] = field(default_factory=dict)
    transitions: Dict[Tuple[int, int], float] = field(default_factory=dict)
    transition_rate: float = 0.0
    novel_share: float = 0.0
    refit_count: int = 0
    refit_indices: List[int] = field(default_factory=list)
    model_version: int = 0
    centroid_norms: List[float] = field(default_factory=list)
    timeline: List[int] = field(default_factory=list)
    worker_id: str = ""

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_phase_sequence(
        cls,
        stream_id: str,
        sequence: Sequence[int],
        *,
        refit_indices: Sequence[int] = (),
        model_version: int = 0,
        centroids: Optional[np.ndarray] = None,
        worker_id: str = "",
    ) -> "PhaseSignature":
        """The common core: a signature from a classified phase sequence."""
        seq = [int(p) for p in sequence]
        n = len(seq)
        counts: Dict[int, int] = {}
        for phase in seq:
            counts[phase] = counts.get(phase, 0) + 1
        occupancy = {p: c / n for p, c in counts.items()} if n else {}
        changes: Dict[Tuple[int, int], int] = {}
        n_changes = 0
        for i in range(1, n):
            if seq[i] != seq[i - 1]:
                key = (seq[i - 1], seq[i])
                changes[key] = changes.get(key, 0) + 1
                n_changes += 1
        transitions = ({k: c / n_changes for k, c in changes.items()}
                       if n_changes else {})
        norms: List[float] = []
        if centroids is not None:
            arr = np.asarray(centroids, dtype=float)
            if arr.size:
                norms = sorted((float(x) for x in
                                np.linalg.norm(arr, axis=1)), reverse=True)
        return cls(
            stream_id=stream_id,
            n_intervals=n,
            n_phases=len([p for p in counts if p != NOVEL]),
            occupancy=occupancy,
            transitions=transitions,
            transition_rate=(n_changes / (n - 1)) if n > 1 else 0.0,
            novel_share=occupancy.get(NOVEL, 0.0),
            refit_count=len(refit_indices),
            refit_indices=sorted(int(i) for i in refit_indices),
            model_version=int(model_version),
            centroid_norms=norms,
            timeline=seq[-TIMELINE_TAIL:],
            worker_id=worker_id,
        )

    @classmethod
    def from_tracker(cls, stream_id: str, tracker: OnlinePhaseTracker,
                     worker_id: str = "") -> "PhaseSignature":
        """Signature of a live serving tracker (public accessors only)."""
        return cls.from_phase_sequence(
            stream_id,
            tracker.phase_sequence(),
            refit_indices=[e.interval_index for e in tracker.refit_events],
            model_version=tracker.model_version,
            centroids=tracker.centroids,
            worker_id=worker_id,
        )

    @classmethod
    def from_replay(cls, stream_id: str, result: ReplayResult,
                    worker_id: str = "") -> "PhaseSignature":
        """Signature from a store replay (warmup intervals are skipped)."""
        sequence = [p for p in result.phase_timeline() if p is not None]
        return cls.from_phase_sequence(
            stream_id,
            sequence,
            refit_indices=[e.interval_index for e in result.refits],
            model_version=result.engine.model_version,
            centroids=result.engine.centroids,
            worker_id=worker_id,
        )

    @classmethod
    def from_store(cls, store: IntervalStore, stream_id: str,
                   *, warmup: int = 12,
                   worker_id: str = "") -> "PhaseSignature":
        """Replay a recorded stream and take its signature."""
        result = store.replay(stream_id, warmup=warmup)
        return cls.from_replay(stream_id, result, worker_id=worker_id)

    # ------------------------------------------------------------------
    # embedding
    # ------------------------------------------------------------------
    def vector(self) -> np.ndarray:
        """Fixed-length embedding for distance math and clustering.

        Four blocks (shares, so every coordinate lives in [0, 1]):

        - **aligned occupancy** (``SIG_PHASES + 1``) — share per stable
          phase id slot, NOVEL last.  Comparable when streams share a
          model (live fleet: every tracker is spawned from one
          template).
        - **sorted occupancy** (``SIG_PHASES``) — the same shares
          sorted descending, label-invariant, so independently trained
          models (offline replay) still compare by phase *structure*.
        - **transition matrix** (``SIG_PHASES²``, half weight) — share
          of phase changes per (from, to) slot pair.
        - **scalars** (``6``) — transition rate, novel share, squashed
          refit rate, phase-count share, squashed mean/std centroid
          norm.
        """
        aligned = np.zeros(SIG_PHASES + 1)
        for phase, share in self.occupancy.items():
            aligned[_slot(phase)] += share
        non_novel = sorted(
            (share for phase, share in self.occupancy.items()
             if phase != NOVEL), reverse=True)[:SIG_PHASES]
        by_rank = np.zeros(SIG_PHASES)
        by_rank[:len(non_novel)] = non_novel
        trans = np.zeros((SIG_PHASES, SIG_PHASES))
        for (src, dst), share in self.transitions.items():
            # Transition structure only needs non-novel geometry; a
            # change into/out of NOVEL folds onto the last slot.
            trans[min(_slot(src), SIG_PHASES - 1),
                  min(_slot(dst), SIG_PHASES - 1)] += share
        refit_rate = self.refit_count / max(1, self.n_intervals)
        norms = np.asarray(self.centroid_norms, dtype=float)
        scalars = np.array([
            self.transition_rate,
            self.novel_share,
            _squash(refit_rate * 10.0),
            min(self.n_phases, SIG_PHASES) / SIG_PHASES,
            _squash(float(norms.mean()) if norms.size else 0.0),
            _squash(float(norms.std()) if norms.size else 0.0),
        ])
        return np.concatenate([aligned, by_rank, trans.ravel() * 0.5, scalars])

    # ------------------------------------------------------------------
    # wire form
    # ------------------------------------------------------------------
    def to_obj(self) -> Dict[str, Any]:
        """JSON-ready dict (transition keys become ``"from->to"``)."""
        return {
            "stream_id": self.stream_id,
            "n_intervals": self.n_intervals,
            "n_phases": self.n_phases,
            "occupancy": {str(p): s for p, s in self.occupancy.items()},
            "transitions": {f"{a}->{b}": s
                            for (a, b), s in self.transitions.items()},
            "transition_rate": self.transition_rate,
            "novel_share": self.novel_share,
            "refit_count": self.refit_count,
            "refit_indices": list(self.refit_indices),
            "model_version": self.model_version,
            "centroid_norms": list(self.centroid_norms),
            "timeline": list(self.timeline),
            "worker_id": self.worker_id,
        }

    @classmethod
    def from_obj(cls, obj: Dict[str, Any]) -> "PhaseSignature":
        try:
            transitions: Dict[Tuple[int, int], float] = {}
            for key, share in dict(obj.get("transitions", {})).items():
                src, _, dst = str(key).partition("->")
                transitions[(int(src), int(dst))] = float(share)
            return cls(
                stream_id=str(obj["stream_id"]),
                n_intervals=int(obj.get("n_intervals", 0)),
                n_phases=int(obj.get("n_phases", 0)),
                occupancy={int(p): float(s)
                           for p, s in dict(obj.get("occupancy", {})).items()},
                transitions=transitions,
                transition_rate=float(obj.get("transition_rate", 0.0)),
                novel_share=float(obj.get("novel_share", 0.0)),
                refit_count=int(obj.get("refit_count", 0)),
                refit_indices=[int(i)
                               for i in obj.get("refit_indices", [])],
                model_version=int(obj.get("model_version", 0)),
                centroid_norms=[float(x)
                                for x in obj.get("centroid_norms", [])],
                timeline=[int(p) for p in obj.get("timeline", [])],
                worker_id=str(obj.get("worker_id", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad phase signature: {exc}") from exc


# ----------------------------------------------------------------------
# cohorts
# ----------------------------------------------------------------------
def cluster_signatures(
    signatures: Sequence[PhaseSignature],
    *,
    kmax: int = DEFAULT_COHORT_KMAX,
    seed: int = 0,
    matcher: Optional[CohortMatcher] = None,
) -> Tuple[List[int], np.ndarray]:
    """Cluster streams by signature; ``(cohort id per stream, centroids)``.

    k is chosen by silhouette over the 1..min(kmax, n) sweep of
    :func:`~repro.core.kselect.wcss_curve` (one stream can't split, ties
    fall to the fewer-cohort side).  With a ``matcher``, cluster indices
    are mapped to stable cohort ids; without one, ids are the cluster
    indices of this run.
    """
    if not signatures:
        return [], np.empty((0, SIG_DIM))
    points = np.stack([s.vector() for s in signatures])
    n = points.shape[0]
    kmax = max(1, min(kmax, n))
    results = wcss_curve(points, kmax=kmax, seed=seed, n_init=4)
    chosen = silhouette_k(points, results) if kmax > 1 else 1
    fit = results[chosen]
    centroids = np.asarray(fit.centroids, dtype=float)
    if matcher is not None:
        stable = matcher.match(centroids)
        labels = [stable[int(i)] for i in fit.labels]
    else:
        labels = [int(i) for i in fit.labels]
    return labels, centroids


def flag_anomalies(
    signatures: Sequence[PhaseSignature],
    labels: Sequence[int],
    *,
    threshold: float = DEFAULT_ANOMALY_THRESHOLD,
) -> List[Dict[str, Any]]:
    """Streams whose signature diverges from their cohort's own spread.

    Per cohort with >= 3 members: distance of each member to the cohort
    mean vector; anomalous when further than ``mean + threshold * std``
    of that distribution (and non-degenerate: std > 0).  Smaller cohorts
    carry no distribution to diverge from.
    """
    if threshold <= 0:
        raise ValidationError("anomaly threshold must be positive")
    out: List[Dict[str, Any]] = []
    by_cohort: Dict[int, List[int]] = {}
    for i, label in enumerate(labels):
        by_cohort.setdefault(int(label), []).append(i)
    vectors = [s.vector() for s in signatures]
    for cohort in sorted(by_cohort):
        members = by_cohort[cohort]
        if len(members) < 3:
            continue
        center = np.mean([vectors[i] for i in members], axis=0)
        dists = {i: signature_distance(vectors[i], center) for i in members}
        mean = float(np.mean(list(dists.values())))
        std = float(np.std(list(dists.values())))
        if std <= 0:
            continue
        cut = mean + threshold * std
        for i in members:
            if dists[i] > cut:
                out.append({
                    "stream_id": signatures[i].stream_id,
                    "worker_id": signatures[i].worker_id,
                    "cohort": cohort,
                    "distance": dists[i],
                    "cohort_mean": mean,
                    "cohort_std": std,
                })
    out.sort(key=lambda a: -a["distance"])
    return out


def detect_drift(
    signatures: Sequence[PhaseSignature],
    labels: Sequence[int],
    *,
    window: int = DEFAULT_DRIFT_WINDOW,
    novel_threshold: float = DEFAULT_NOVEL_THRESHOLD,
    min_streams: int = 2,
) -> List[Dict[str, Any]]:
    """Correlated behaviour change across a cohort, two kinds of event.

    - ``refit-wave`` — live-model refits landed within the trailing
      ``window`` intervals on enough of the cohort;
    - ``novel-burst`` — the trailing-window novel-interval share
      crossed ``novel_threshold`` on enough of the cohort.

    "Enough" is ``max(min_streams, half the cohort)`` — one stream
    drifting alone is that stream's anomaly, not a fleet event.
    """
    if window < 1:
        raise ValidationError("drift window must be positive")
    by_cohort: Dict[int, List[int]] = {}
    for i, label in enumerate(labels):
        by_cohort.setdefault(int(label), []).append(i)
    events: List[Dict[str, Any]] = []
    for cohort in sorted(by_cohort):
        members = by_cohort[cohort]
        need = max(min_streams, (len(members) + 1) // 2)
        refit_hits: List[str] = []
        novel_hits: List[str] = []
        for i in members:
            sig = signatures[i]
            horizon = sig.n_intervals - window
            if any(idx >= horizon for idx in sig.refit_indices):
                refit_hits.append(sig.stream_id)
            tail = sig.timeline[-window:]
            if tail:
                tail_novel = sum(1 for p in tail if p == NOVEL) / len(tail)
                if tail_novel >= novel_threshold:
                    novel_hits.append(sig.stream_id)
        if len(refit_hits) >= need:
            events.append({"cohort": cohort, "kind": "refit-wave",
                           "streams": sorted(refit_hits),
                           "window": window,
                           "share": len(refit_hits) / len(members)})
        if len(novel_hits) >= need:
            events.append({"cohort": cohort, "kind": "novel-burst",
                           "streams": sorted(novel_hits),
                           "window": window,
                           "share": len(novel_hits) / len(members)})
    return events


def analyze_signatures(
    signatures: Sequence[PhaseSignature],
    *,
    kmax: int = DEFAULT_COHORT_KMAX,
    seed: int = 0,
    matcher: Optional[CohortMatcher] = None,
    drift_window: int = DEFAULT_DRIFT_WINDOW,
    anomaly_threshold: float = DEFAULT_ANOMALY_THRESHOLD,
    novel_threshold: float = DEFAULT_NOVEL_THRESHOLD,
    include_signatures: bool = True,
) -> Dict[str, Any]:
    """The full fleet-analytics report as one JSON-ready dict."""
    signatures = list(signatures)
    labels, _centroids = cluster_signatures(
        signatures, kmax=kmax, seed=seed, matcher=matcher)
    vectors = [s.vector() for s in signatures]
    cohorts: List[Dict[str, Any]] = []
    by_cohort: Dict[int, List[int]] = {}
    for i, label in enumerate(labels):
        by_cohort.setdefault(int(label), []).append(i)
    for cohort in sorted(by_cohort):
        members = by_cohort[cohort]
        center = np.mean([vectors[i] for i in members], axis=0)
        dists = [signature_distance(vectors[i], center) for i in members]
        cohorts.append({
            "cohort": cohort,
            "size": len(members),
            "streams": sorted(signatures[i].stream_id for i in members),
            "mean_distance": float(np.mean(dists)),
            "max_distance": float(np.max(dists)),
            "mean_transition_rate": float(np.mean(
                [signatures[i].transition_rate for i in members])),
            "mean_novel_share": float(np.mean(
                [signatures[i].novel_share for i in members])),
        })
    anomalies = flag_anomalies(signatures, labels,
                               threshold=anomaly_threshold)
    drift_events = detect_drift(signatures, labels, window=drift_window,
                                novel_threshold=novel_threshold)
    report: Dict[str, Any] = {
        "n_streams": len(signatures),
        "n_cohorts": len(by_cohort),
        "assignments": {s.stream_id: int(label)
                        for s, label in zip(signatures, labels)},
        "cohorts": cohorts,
        "anomalies": anomalies,
        "drift_events": drift_events,
    }
    if include_signatures:
        report["signatures"] = [s.to_obj() for s in signatures]
    return report


# ----------------------------------------------------------------------
# offline: a fleet run's per-worker archives
# ----------------------------------------------------------------------
def fleet_store_dirs(root) -> List[Path]:
    """Per-worker interval-store directories under a fleet root, sorted.

    Any ``worker-*/store`` directory counts — including those of
    workers later evicted from the ring, whose archives stay on disk
    precisely so this pass can still read them.
    """
    root = Path(root)
    out = []
    for worker_dir in sorted(root.glob("worker-*")):
        store_dir = worker_dir / layout.WORKER_STORE_DIRNAME
        if store_dir.is_dir():
            out.append(store_dir)
    return out


def analyze_fleet_dir(
    root,
    *,
    kmax: int = DEFAULT_COHORT_KMAX,
    seed: int = 0,
    warmup: int = 12,
    drift_window: int = DEFAULT_DRIFT_WINDOW,
    anomaly_threshold: float = DEFAULT_ANOMALY_THRESHOLD,
    novel_threshold: float = DEFAULT_NOVEL_THRESHOLD,
    include_signatures: bool = True,
) -> Dict[str, Any]:
    """Offline fleet analytics over a fleet root's per-worker stores.

    Walks ``worker-*/store`` under ``root``, replays every recorded
    stream through the streaming engine, and runs the same signature →
    cohort → anomaly/drift pipeline the live ``fleet_analytics`` verb
    runs — so an operator can reproduce (and window) a live report from
    the archives alone.  Streams too short to classify (all warmup) are
    reported in ``skipped`` rather than silently dropped.
    """
    store_dirs = fleet_store_dirs(root)
    if not store_dirs:
        raise ValidationError(
            f"no worker-*/{layout.WORKER_STORE_DIRNAME} directories under "
            f"{root} (was the fleet run with --archive-intervals?)")
    signatures: List[PhaseSignature] = []
    skipped: List[Dict[str, str]] = []
    for store_dir in store_dirs:
        worker_id = store_dir.parent.name[len("worker-"):]
        with open_store(str(store_dir)) as store:
            for stream_id in store.streams():
                try:
                    signatures.append(PhaseSignature.from_store(
                        store, stream_id, warmup=warmup,
                        worker_id=worker_id))
                except ReproError as exc:
                    skipped.append({"stream_id": stream_id,
                                    "worker_id": worker_id,
                                    "reason": str(exc)})
    report = analyze_signatures(
        signatures, kmax=kmax, seed=seed, drift_window=drift_window,
        anomaly_threshold=anomaly_threshold,
        novel_threshold=novel_threshold,
        include_signatures=include_signatures)
    report["root"] = str(root)
    report["stores"] = [str(p) for p in store_dirs]
    report["skipped"] = skipped
    return report
