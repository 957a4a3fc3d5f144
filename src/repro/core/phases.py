"""Interpreting clusters as phases."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.kselect import DEFAULT_ELBOW_THRESHOLD, DEFAULT_KMAX, KSelection, choose_k
from repro.core.model import Phase
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class PhaseModel:
    """The detected phases of a run.

    Phase IDs are arbitrary cluster labels (as in the paper); we order
    them by interval count descending, ties by earliest interval, so runs
    are deterministic and the dominant behaviour is phase 0.
    """

    phases: Tuple[Phase, ...]
    labels: np.ndarray  # (n_intervals,) phase id per interval
    kselection: KSelection

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    @property
    def n_intervals(self) -> int:
        return int(self.labels.shape[0])

    def phase(self, phase_id: int) -> Phase:
        return self.phases[phase_id]

    def phase_of_interval(self, interval: int) -> int:
        return int(self.labels[interval])

    def sizes(self) -> List[int]:
        return [len(p) for p in self.phases]

    def merged_by_site_equivalence(self, site_functions: Dict[int, frozenset]) -> List[List[int]]:
        """Group phase ids whose selected site-function sets are identical.

        The paper observes (Graph500, LAMMPS) that distinct clusters can
        share instrumentation sites and "should really be identified as a
        single phase"; this helper supports that post-processing.
        """
        groups: Dict[frozenset, List[int]] = {}
        for phase_id, functions in site_functions.items():
            groups.setdefault(functions, []).append(phase_id)
        return [sorted(ids) for ids in groups.values()]


def phases_from_labels(labels: np.ndarray, centroids: np.ndarray,
                       kselection: KSelection) -> PhaseModel:
    """Build a :class:`PhaseModel` from raw cluster labels and centroids."""
    labels = np.asarray(labels)
    cluster_ids = np.unique(labels)
    raw: List[Tuple[int, int, np.ndarray, np.ndarray]] = []
    for cid in cluster_ids:
        members = np.nonzero(labels == cid)[0]
        raw.append((len(members), int(members[0]), members, centroids[cid]))
    # Order: size descending, then first appearance ascending.
    raw.sort(key=lambda item: (-item[0], item[1]))

    phases: List[Phase] = []
    new_labels = np.empty_like(labels)
    for new_id, (_size, _first, members, centroid) in enumerate(raw):
        phases.append(
            Phase(phase_id=new_id, interval_indices=tuple(int(i) for i in members),
                  centroid=np.array(centroid))
        )
        new_labels[members] = new_id
    return PhaseModel(phases=tuple(phases), labels=new_labels, kselection=kselection)


def detect_phases(
    features: np.ndarray,
    kmax: int = DEFAULT_KMAX,
    method: str = "elbow",
    seed: Union[int, np.random.Generator] = 0,
    n_init: int = 8,
    threshold: float = DEFAULT_ELBOW_THRESHOLD,
    workers: Optional[int] = None,
) -> PhaseModel:
    """Cluster interval features and return the phase model.

    This is steps 2-3 of the paper's flow: k-means for k = 1..kmax, k
    chosen by ``method`` (elbow by default), each cluster a phase.  The
    model's ``kselection.results`` covers every k = 1..kmax; the elbow
    fits only the k's it reads, and the rest are fitted when first read
    (by the report's k-curve, say), bit for bit as an eager sweep would.

    ``workers`` > 1 fills the whole k sweep on a process pool; results
    are bit-identical to the serial sweep (per-k seeds are spawned from
    one ``SeedSequence``), so it is a throughput knob only and
    deliberately not part of any result-defining configuration.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValidationError("features must be a non-empty 2-D array")
    selection = choose_k(features, kmax=kmax, method=method, seed=seed, n_init=n_init,
                         threshold=threshold, workers=workers)
    best = selection.best
    return phases_from_labels(best.labels, best.centroids, selection)
