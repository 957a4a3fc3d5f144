"""Consistent-hash ring: ``stream_id -> worker`` with virtual nodes.

The fleet's routing decision must be (1) deterministic across processes
— the router, the supervisor, and every worker evaluate the same ring
independently, so hashing cannot depend on ``PYTHONHASHSEED`` — and
(2) movement-minimal: when a worker dies, only *its* streams may change
owner, because every move costs a checkpoint-restore + client resume.

Both properties come from the classic construction: each worker owns
``virtual_nodes`` points on a 64-bit circle (BLAKE2b of
``"worker_id#replica"``), and a stream belongs to the first point at or
after the stream id's own hash, wrapping around.  Virtual nodes smooth
the per-worker load; 64 per worker keeps the imbalance within a few
percent at fleet sizes that fit one box.

Every membership change bumps ``generation``.  The generation travels in
``hello`` replies and ``ring-update`` controls so a worker can refuse
streams it no longer owns (``wrong-worker``) and a refusal names the
ring generation it was decided under.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.util.errors import ValidationError

DEFAULT_VIRTUAL_NODES = 64


def _point(key: str) -> int:
    """A stable 64-bit position on the circle for ``key``."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Thread-safe consistent-hash ring over worker ids.

    Lookups are O(log(workers * virtual_nodes)); membership changes
    rebuild the sorted point list (fleets are tens of workers, not
    thousands — rebuild simplicity beats incremental bookkeeping).
    """

    def __init__(self, workers: Iterable[str] = (),
                 virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
                 generation: int = 0) -> None:
        if virtual_nodes < 1:
            raise ValidationError("need at least one virtual node per worker")
        self.virtual_nodes = virtual_nodes
        self.generation = generation
        self._lock = threading.Lock()
        self._workers: List[str] = []
        self._points: List[int] = []
        self._owners: List[str] = []
        for worker_id in workers:
            self._add_locked(worker_id)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def _rebuild_locked(self) -> None:
        pairs: List[Tuple[int, str]] = []
        for worker_id in self._workers:
            for replica in range(self.virtual_nodes):
                pairs.append((_point(f"{worker_id}#{replica}"), worker_id))
        # Ties (astronomically unlikely) resolve by worker id so every
        # evaluator of the same membership agrees on every lookup.
        pairs.sort()
        self._points = [p for p, _ in pairs]
        self._owners = [w for _, w in pairs]

    def _add_locked(self, worker_id: str) -> None:
        if not worker_id:
            raise ValidationError("worker id must be non-empty")
        if worker_id in self._workers:
            raise ValidationError(f"worker {worker_id!r} is already on the ring")
        self._workers.append(worker_id)
        self._workers.sort()
        self._rebuild_locked()

    def add_worker(self, worker_id: str) -> int:
        """Add a worker; returns the new generation."""
        with self._lock:
            self._add_locked(worker_id)
            self.generation += 1
            return self.generation

    def remove_worker(self, worker_id: str) -> int:
        """Remove a worker; returns the new generation."""
        with self._lock:
            if worker_id not in self._workers:
                raise ValidationError(f"worker {worker_id!r} is not on the ring")
            self._workers.remove(worker_id)
            self._rebuild_locked()
            self.generation += 1
            return self.generation

    def members(self) -> List[str]:
        with self._lock:
            return list(self._workers)

    def __len__(self) -> int:
        with self._lock:
            return len(self._workers)

    def __contains__(self, worker_id: str) -> bool:
        with self._lock:
            return worker_id in self._workers

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def lookup(self, stream_id: str) -> str:
        """The worker owning ``stream_id`` (raises on an empty ring)."""
        with self._lock:
            if not self._points:
                raise ValidationError("ring has no workers")
            index = bisect.bisect_right(self._points, _point(stream_id))
            if index == len(self._points):
                index = 0  # wrap past the top of the circle
            return self._owners[index]

    def lookup_or_none(self, stream_id: str) -> Optional[str]:
        with self._lock:
            if not self._points:
                return None
        return self.lookup(stream_id)

    def assignments(self, stream_ids: Sequence[str]) -> Dict[str, str]:
        """``{stream_id: worker_id}`` for a batch of streams."""
        return {sid: self.lookup(sid) for sid in stream_ids}

    def load(self, stream_ids: Sequence[str]) -> Dict[str, int]:
        """Streams per worker (zero-filled for idle workers)."""
        counts = {worker_id: 0 for worker_id in self.members()}
        for sid in stream_ids:
            counts[self.lookup(sid)] += 1
        return counts

    # ------------------------------------------------------------------
    # wire / manifest form
    # ------------------------------------------------------------------
    def to_obj(self) -> Dict[str, Any]:
        """JSON-ready membership (what ``ring-update`` controls carry)."""
        with self._lock:
            return {
                "generation": self.generation,
                "virtual_nodes": self.virtual_nodes,
                "members": list(self._workers),
            }

    @classmethod
    def from_obj(cls, obj: Dict[str, Any]) -> "HashRing":
        try:
            members = [str(m) for m in obj["members"]]
            return cls(members,
                       virtual_nodes=int(obj.get(
                           "virtual_nodes", DEFAULT_VIRTUAL_NODES)),
                       generation=int(obj.get("generation", 0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad ring object: {exc!r}") from exc
