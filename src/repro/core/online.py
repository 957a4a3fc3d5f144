"""Online phase tracking for deployed runs.

The paper's end goal is *in-production* phase visibility: discovery runs
offline once, instrumentation ships, and deployment monitoring tracks
the phases thereafter.  This module closes the loop on the profile side:
a :class:`OnlinePhaseTracker` is trained on an offline analysis and then
classifies *new* interval profiles as they stream in — nearest phase
centroid, with a distance gate that flags intervals unlike anything seen
during training (novel behaviour: new inputs, degraded nodes, bugs).

The gate is calibrated from the training data itself: an interval is
*novel* when its distance to the nearest centroid exceeds that phase's
``quantile`` training distance by ``slack``.

The model itself is a :class:`~repro.core.incremental.LiveModel`, the
engine the streaming analyzer runs too; the tracker adds a lock, a
:class:`~repro.core.intervals.Differencer` over the model's fixed
function universe, the per-stream history and checkpoint state.
Constructed with an :class:`~repro.core.incremental.AdaptiveConfig`,
the model refines its centroids with mini-batch k-means updates and —
when the drift detector fires — refits itself with a bounded re-sweep
(k-1..k+1), **hot-swapping** the new model before the next interval.  Every refit bumps
``model_version`` (carried on each :class:`TrackedInterval`) and remaps
cluster rows onto *stable* phase ids via greedy centroid matching, so
phase 2 before the swap and phase 2 after it mean the same behaviour.
"""

from __future__ import annotations

import base64
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.incremental import (
    NOVEL,  # re-exported: the tracker's label for novel intervals
    AdaptiveConfig,
    LiveModel,
    RefitEvent,
    TrackedInterval,
    calibrate_gates,
    nearest_centroids,
)
from repro.core.intervals import Differencer
from repro.core.pipeline import AnalysisResult
from repro.gprof.gmon import GmonBlob, GmonData, dumps_gmon
from repro.util.errors import FormatError, ValidationError

#: An interval profile: a function -> self-seconds mapping, or the same
#: already projected onto the model universe as an ``(n_functions,)``
#: vector (see :meth:`OnlinePhaseTracker.delta_vector`).
Profile = Union[Dict[str, float], np.ndarray]


class OnlinePhaseTracker:
    """Classify streaming interval profiles against trained phases.

    Instances are thread-safe: classification, snapshot observation, and
    every history accessor take an internal lock, so one tracker can be
    driven from a worker pool (the ``incprofd`` service classifies each
    stream on whichever worker picks it up).  Model hot-swaps (live
    refits, :meth:`install_model`) happen under the same lock, so an
    interval is classified by the old model or the new one, never a
    half-installed mix.

    ``zero_start`` controls how the first *cumulative* snapshot fed to
    :meth:`observe_snapshot` is treated: ``False`` (the historical
    behaviour) primes the differencer and classifies from the second
    snapshot on; ``True`` assumes the stream began at a zero profile, so
    the first snapshot *is* the first interval — matching the offline
    pipeline, which also counts interval 0 from the process start.

    ``labels`` maps centroid rows to *stable* phase ids (defaults to
    row order).  With ``adaptive`` set, the tracker refits itself when
    drift fires; reported phase ids stay comparable across refits.
    """

    def __init__(
        self,
        *,
        functions: Sequence[str],
        centroids: np.ndarray,
        gates: np.ndarray,
        interval: float = 1.0,
        zero_start: bool = False,
        labels: Optional[Sequence[int]] = None,
        counts: Optional[Sequence[float]] = None,
        version: int = 0,
        adaptive: Optional[AdaptiveConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.functions = list(functions)
        self._check_width(centroids)
        self._model = LiveModel(centroids, gates, labels=labels,
                                counts=counts, version=version,
                                adaptive=adaptive, clock=clock)
        self._index = {name: j for j, name in enumerate(self.functions)}
        self.interval = interval
        self.zero_start = zero_start
        self.history: List[TrackedInterval] = []
        #: The stream's last cumulative snapshot, over the fixed universe.
        self._diff = Differencer(self.functions)
        self._lock = threading.RLock()
        self._refit_listeners: List[
            Callable[["OnlinePhaseTracker", RefitEvent], None]] = []

    def _check_width(self, centroids: np.ndarray) -> None:
        if np.ndim(centroids) == 2 and np.shape(centroids)[1] != len(self.functions):
            raise ValidationError("centroid width must match function count")

    # -- the live model, read through (live arrays, not copies) --------
    @property
    def centroids(self) -> np.ndarray:
        return self._model.centroids

    @property
    def gates(self) -> np.ndarray:
        return self._model.gates

    @property
    def phase_labels(self) -> np.ndarray:
        """Stable phase id of each centroid row."""
        return self._model.labels

    @property
    def model_version(self) -> int:
        return self._model.version

    @property
    def refit_events(self) -> List[RefitEvent]:
        return self._model.events

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    @classmethod
    def from_analysis(
        cls,
        analysis: AnalysisResult,
        quantile: float = 0.95,
        slack: float = 1.5,
        adaptive: Optional[AdaptiveConfig] = None,
    ) -> "OnlinePhaseTracker":
        """Train a tracker from an offline phase-detection result.

        ``quantile``/``slack``: a phase's gate is ``slack`` times the
        ``quantile`` of its training members' centroid distances (plus a
        small absolute floor so zero-variance phases keep a gate).
        """
        if not 0 < quantile <= 1 or slack <= 0:
            raise ValidationError("quantile in (0,1], slack > 0 required")
        data = analysis.interval_data
        features = data.self_time
        phases = analysis.phase_model.phases
        centroids = np.vstack([
            features[list(phase.interval_indices)].mean(axis=0)
            for phase in phases
        ])
        gates = calibrate_gates(
            features, analysis.phase_model.labels, centroids, quantile, slack)
        counts = [len(phase.interval_indices) for phase in phases]
        return cls(
            functions=data.functions,
            centroids=centroids,
            gates=gates,
            interval=data.interval,
            counts=counts,
            adaptive=adaptive,
        )

    # ------------------------------------------------------------------
    # streaming classification
    # ------------------------------------------------------------------
    def _vectorize_batch(self, profiles: Sequence[Profile]) -> np.ndarray:
        """``(n_profiles, n_functions)`` matrix of dict profiles (functions
        outside the universe ignored) and of :meth:`delta_vector` rows."""
        mat = np.zeros((len(profiles), len(self.functions)))
        index = self._index
        for i, profile in enumerate(profiles):
            if isinstance(profile, np.ndarray):
                mat[i] = profile
                continue
            for func, value in profile.items():
                j = index.get(func)
                if j is not None:
                    mat[i, j] = value
        return mat

    def classify(self, profile: Profile) -> TrackedInterval:
        """Classify one interval profile (function -> self seconds)."""
        return self.classify_batch([profile])[0]

    def classify_batch(self, profiles: Sequence[Profile]) -> List[TrackedInterval]:
        """Classify several interval profiles in order, atomically.

        The result equals classifying the profiles one at a time, for
        any split into batches (see
        :meth:`~repro.core.incremental.LiveModel.classify`): a frozen
        model labels the batch in one vectorized pass; an adaptive one
        goes row by row, and a refit that fires mid-batch is installed —
        and its listeners called — before the next row.  The whole batch
        runs under the tracker lock, so a concurrent classifier cannot
        interleave inside it.
        """
        if not profiles:
            return []
        with self._lock:
            tracked = self._model.classify(self._vectorize_batch(profiles),
                                           len(self.history), self._notify_refit)
            self.history.extend(tracked)
        return tracked

    def delta_vector(self, snapshot: Union[GmonData, GmonBlob]
                     ) -> Optional[np.ndarray]:
        """Difference a *cumulative* snapshot against the stream state.

        Returns the interval the snapshot closes as an ``(n_functions,)``
        self-seconds vector for :meth:`classify_batch`, or None when it
        merely primed the differencer (first snapshot without
        ``zero_start``).  The differencer's universe is the model's
        functions; other functions and arcs are never differenced.  A
        :class:`GmonBlob` is differenced from its bytes, with no
        :class:`GmonData` built.  A snapshot that raises (corrupt bytes,
        a different sample period) leaves the stream state as it was.
        """
        with self._lock:
            diff = self._diff
            primed = len(diff) > 0
            diff.keep_last()
            diff.push(snapshot)
            if not (primed or self.zero_start):
                return None
            return diff.interval() * diff.periods[-1]

    def observe_snapshot(self, snapshot: GmonData) -> Optional[TrackedInterval]:
        """Feed a *cumulative* gmon snapshot (deployment dump stream):
        :meth:`delta_vector`, then :meth:`classify`."""
        with self._lock:
            vec = self.delta_vector(snapshot)
            return None if vec is None else self.classify(vec)

    # ------------------------------------------------------------------
    # live refits and hot swaps
    # ------------------------------------------------------------------
    def add_refit_listener(
        self, listener: Callable[["OnlinePhaseTracker", RefitEvent], None],
    ) -> None:
        """Call ``listener(tracker, event)`` after each model swap.

        Listeners run under the tracker lock, right after the swap and
        before the next interval is classified — keep them quick, and
        reach back into the tracker only from the same thread.
        """
        with self._lock:
            self._refit_listeners.append(listener)

    def _notify_refit(self, event: RefitEvent) -> None:
        for listener in list(self._refit_listeners):
            listener(self, event)

    def force_refit(self, reason: str = "manual") -> Optional[RefitEvent]:
        """Refit now from the buffered window, ignoring drift/cooldowns.

        Returns None when the tracker is not adaptive or the buffer has
        fewer than ``min_refit_window`` profiles.
        """
        with self._lock:
            event = self._model.refit(len(self.history),
                                      reason=reason or "forced")
            if event is not None:
                self._notify_refit(event)
            return event

    def install_model(
        self,
        *,
        centroids: np.ndarray,
        gates: np.ndarray,
        labels: Optional[Sequence[int]] = None,
        counts: Optional[Sequence[float]] = None,
        version: Optional[int] = None,
    ) -> int:
        """Atomically hot-swap an externally trained model.

        ``version`` must exceed the current one (defaults to current+1);
        returns the installed version.  Classifications already appended
        to the history are untouched — only future intervals see the new
        model.
        """
        self._check_width(centroids)
        with self._lock:
            new_version = (self.model_version + 1 if version is None
                           else int(version))
            if new_version <= self.model_version:
                raise ValidationError(
                    f"model version must increase "
                    f"(have {self.model_version}, got {new_version})")
            self._model.replace(centroids, gates, labels=labels,
                                counts=counts, version=new_version)
            return new_version

    # ------------------------------------------------------------------
    # per-stream forking
    # ------------------------------------------------------------------
    def spawn(self, zero_start: bool = True,
              adaptive: Optional[AdaptiveConfig] = None) -> "OnlinePhaseTracker":
        """A fresh tracker sharing this one's trained model.

        The trained arrays are copied (cheap: ``k × n_functions``), the
        history starts empty — one template tracker trained offline can
        be forked once per deployment stream.  ``adaptive`` makes the
        spawned stream refit itself independently; the fork inherits the
        template's model version and stable labels, so a refit on one
        stream never perturbs another.
        """
        with self._lock:
            model = self._model
            return OnlinePhaseTracker(
                functions=self.functions, centroids=model.centroids,
                gates=model.gates, interval=self.interval,
                zero_start=zero_start, labels=model.labels,
                counts=model.counts, version=model.version,
                adaptive=adaptive if adaptive is not None else model.adaptive)

    # ------------------------------------------------------------------
    # state (for model artifacts and daemon checkpoints)
    # ------------------------------------------------------------------
    def trained_state(self) -> Dict[str, Any]:
        """The trained model as a JSON-ready dict (no runtime state).

        Floats survive exactly: Python's ``float`` repr (which ``json``
        uses) is shortest-round-trip, so a saved model classifies
        bit-identically after loading.
        """
        with self._lock:
            state = {
                "functions": list(self.functions),
                "centroids": [[float(x) for x in row] for row in self.centroids],
                "gates": [float(g) for g in self.gates],
                "interval": float(self.interval),
                "zero_start": bool(self.zero_start),
            }
            # Only refit survivors carry labels/version: a never-refit
            # model stays byte-identical to pre-streaming artifacts
            # (the golden-blob format test pins those bytes), and the
            # loader's defaults reproduce exactly what is omitted here.
            k = self.centroids.shape[0]
            if self.model_version > 0 or not np.array_equal(
                    self.phase_labels, np.arange(k)):
                state["labels"] = [int(x) for x in self.phase_labels]
                state["version"] = int(self.model_version)
            return state

    @classmethod
    def from_trained_state(cls, state: Dict[str, Any]) -> "OnlinePhaseTracker":
        """Inverse of :meth:`trained_state`.

        ``labels``/``version`` are optional (models saved before live
        refits existed default to row-order labels at version 0), so old
        artifacts keep loading.
        """
        try:
            return cls(
                functions=[str(f) for f in state["functions"]],
                centroids=np.asarray(state["centroids"], dtype=float).reshape(
                    len(state["gates"]), len(state["functions"])),
                gates=state["gates"],
                interval=float(state["interval"]),
                zero_start=bool(state.get("zero_start", False)),
                labels=state.get("labels"),
                version=int(state.get("version", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad trained-tracker state: {exc!r}") from exc

    def runtime_state(self) -> Dict[str, Any]:
        """Mutable stream state (history, differencer, live model), JSON-ready.

        Taken atomically under the tracker lock; pairs with
        :meth:`restore_runtime_state` so a daemon checkpoint can resume a
        stream exactly where classification left off.  When the stream
        has refit itself (or is adaptive), the current model and refit
        machinery ride along — a restored stream keeps its version, its
        stable labels, and its drift window.
        """
        with self._lock:
            history = [
                [t.index, t.phase_id, float(t.distance), t.nearest_phase,
                 t.model_version]
                for t in self.history
            ]
            previous = self._diff.gmon() if len(self._diff) else None
            state: Dict[str, Any] = {"history": history, "previous": None}
            model = self._model
            if model.version > 0 or model.adaptive is not None:
                state["model"] = {
                    "centroids": [[float(x) for x in row]
                                  for row in model.centroids],
                    "gates": [float(g) for g in model.gates],
                    "labels": [int(x) for x in model.labels],
                    "counts": [float(c) for c in model.counts],
                    "version": int(model.version),
                }
            if model.adaptive is not None:
                state["refit"] = model.refit_state()
        if previous is not None:
            state["previous"] = base64.b64encode(
                dumps_gmon(previous)).decode("ascii")
        return state

    def restore_runtime_state(self, state: Dict[str, Any]) -> None:
        """Install stream state captured by :meth:`runtime_state`.

        Accepts both the historical 4-element history rows (pre-version
        checkpoints classify as version 0) and the current 5-element
        form; ``model``/``refit`` sections are optional.
        """
        try:
            history = [
                TrackedInterval(
                    index=int(row[0]), phase_id=int(row[1]),
                    distance=float(row[2]), nearest_phase=int(row[3]),
                    model_version=int(row[4]) if len(row) > 4 else 0)
                for row in state.get("history", [])
            ]
            blob = state.get("previous")
            diff = Differencer(self.functions)
            if blob is not None:
                diff.push(base64.b64decode(blob.encode("ascii")))
            model = state.get("model")
            refit = state.get("refit")
            if model is not None:
                k = len(model["gates"])
                centroids = np.asarray(model["centroids"], dtype=float).reshape(
                    k, len(self.functions))
                gates = np.asarray(model["gates"], dtype=float)
                labels = [int(x) for x in model["labels"]]
                counts = [float(c) for c in model.get("counts", [1.0] * k)]
                version = int(model.get("version", 0))
        except (KeyError, TypeError, ValueError, FormatError) as exc:
            raise ValidationError(f"bad tracker runtime state: {exc!r}") from exc
        with self._lock:
            self.history = history
            self._diff = diff
            if model is not None:
                self._model.replace(centroids, gates, labels=labels,
                                    counts=counts, version=version)
            if refit is not None and self._model.adaptive is not None:
                self._model.restore_refit_state(refit)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def phase_sequence(self) -> List[int]:
        with self._lock:
            return [t.phase_id for t in self.history]

    def version_sequence(self) -> List[int]:
        """Model version that classified each interval, history order."""
        with self._lock:
            return [t.model_version for t in self.history]

    def novel_fraction(self) -> float:
        with self._lock:
            if not self.history:
                return 0.0
            return sum(t.is_novel for t in self.history) / len(self.history)

    def phase_counts(self) -> Dict[int, int]:
        """Observed intervals per phase id (NOVEL included as -1)."""
        counts: Dict[int, int] = {}
        for phase_id in self.phase_sequence():
            counts[phase_id] = counts.get(phase_id, 0) + 1
        return counts

    def transitions(self) -> List[Tuple[int, int, int]]:
        """(interval, from_phase, to_phase) for every phase change."""
        out: List[Tuple[int, int, int]] = []
        seq = self.phase_sequence()
        for i in range(1, len(seq)):
            if seq[i] != seq[i - 1]:
                out.append((i, seq[i - 1], seq[i]))
        return out


# ----------------------------------------------------------------------
# cross-stream classification
# ----------------------------------------------------------------------
#: A frozen-model snapshot captured under the tracker lock:
#: (centroids, gates, phase_labels, model_version).
_ModelSnap = Tuple[np.ndarray, np.ndarray, np.ndarray, int]


def _commit_pooled(
    tracker: OnlinePhaseTracker,
    profiles: Sequence[Profile],
    nearest: np.ndarray,
    distance: np.ndarray,
    novel: np.ndarray,
    snap: _ModelSnap,
) -> List[TrackedInterval]:
    """Append pooled classification results to one tracker's history.

    Re-validates under the tracker lock that the model the pooled pass
    computed against is still installed; if a hot swap landed in between
    (``install_model`` on another thread), the stale results are thrown
    away and this stream re-classifies on its own path — correct, just
    not pooled this tick.
    """
    centroids, _gates, _labels, version = snap
    with tracker._lock:
        model = tracker._model
        if model.version != version or model.centroids is not centroids:
            return tracker.classify_batch(profiles)
        tracked = model.tracked(len(tracker.history), nearest, distance, novel)
        tracker.history.extend(tracked)
    return tracked


def classify_across(
    groups: Sequence[Tuple[OnlinePhaseTracker, Sequence[Profile]]],
) -> List[List[TrackedInterval]]:
    """Classify several streams' profile batches in one vectorized pass.

    Returns one result list per input group, order preserved — exactly
    what calling ``tracker.classify_batch(profiles)`` per group would
    return.  Streams whose trackers share an identical *frozen* model
    (same functions, centroids, gates, stable labels, and version — the
    common serving shape: every stream spawned from one template and
    never refit) are pooled into a single ``(n_total, k, d)`` distance
    computation, so a worker tick over N streams costs one NumPy call
    instead of N.  Adaptive trackers mutate their centroids as they
    classify, so they always take their own per-tracker path; model
    hot-swaps racing the pooled pass are caught at commit time and fall
    back likewise.
    """
    results: List[Optional[List[TrackedInterval]]] = [None] * len(groups)
    pooled: Dict[Any, List[Tuple[int, OnlinePhaseTracker,
                                 Sequence[Profile], _ModelSnap]]] = {}
    for i, (tracker, profiles) in enumerate(groups):
        if not profiles or tracker._model.adaptive is not None:
            results[i] = tracker.classify_batch(profiles)
            continue
        with tracker._lock:
            model = tracker._model
            snap: _ModelSnap = (model.centroids, model.gates, model.labels,
                                model.version)
        # Frozen models never mutate these arrays in place (every swap
        # *replaces* them), so the refs stay valid outside the lock and
        # byte equality is a sound pooling key.
        key = (tuple(tracker.functions), snap[0].shape, snap[0].tobytes(),
               snap[1].tobytes(), snap[2].tobytes(), snap[3])
        pooled.setdefault(key, []).append((i, tracker, profiles, snap))
    for members in pooled.values():
        if len(members) == 1:
            i, tracker, profiles, _snap = members[0]
            results[i] = tracker.classify_batch(profiles)
            continue
        centroids, gates, _labels, _version = members[0][3]
        mat = np.vstack([trk._vectorize_batch(profiles)
                         for _i, trk, profiles, _s in members])
        nearest, distance, novel = nearest_centroids(mat, centroids, gates)
        offset = 0
        for i, tracker, profiles, snap in members:
            rows = slice(offset, offset + len(profiles))
            offset += len(profiles)
            results[i] = _commit_pooled(tracker, profiles, nearest[rows],
                                        distance[rows], novel[rows], snap)
    return [r if r is not None else [] for r in results]
