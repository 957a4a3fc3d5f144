"""Crash-safe state for ``incprofd``.

The daemon's working set — the stream registry, each stream's online
tracker (trained arrays *and* classification history/differencer), and
the fleet aggregates — normally lives only in memory, so a crash
discards everything a fleet has streamed.  This module checkpoints that
state to disk on the housekeeping cadence:

- One checkpoint file (magic ``IPCKP``), same checksummed envelope as
  phase-model artifacts, written atomically (temp file + rename) so a
  crash *during* a checkpoint leaves the previous one intact.
- Per stream the checkpoint records the resume anchor ``processed_seq``
  — the highest sequence number the classify thread actually consumed — and
  counters clamped to it.  Snapshots that were admitted but still queued
  at the crash are deliberately *not* recorded: the publisher's
  ``hello(resume=True)`` handshake re-sends from ``processed_seq + 1``,
  so nothing is classified twice and at most one checkpoint interval of
  progress is repeated.
- A corrupt or truncated checkpoint is quarantined (renamed aside with a
  ``.quarantined-N`` suffix) rather than deleted, and the daemon starts
  fresh; the bad bytes stay available for inspection.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.incremental import AdaptiveConfig
from repro.core.model_io import pack_artifact, read_artifact_payload
from repro.core.online import OnlinePhaseTracker
from repro.service.registry import StreamRegistry, StreamState
from repro.store import layout
from repro.util.atomicio import atomic_write_bytes
from repro.util.errors import CheckpointError, ValidationError

CHECKPOINT_MAGIC = b"IPCKP"
CHECKPOINT_SCHEMA = 1
# On-disk names come from the shared layout module (the single source of
# truth for every IncProf artifact name); re-exported here for callers
# that historically imported them from this module.
CHECKPOINT_FILENAME = layout.CHECKPOINT_FILENAME
MANIFEST_FILENAME = layout.FLEET_MANIFEST_FILENAME


def worker_checkpoint_dir(root: Union[str, Path], worker_id: str) -> Path:
    """The per-worker durable-state directory under a fleet root.

    Shared-nothing by construction: each worker checkpoints into its own
    subdirectory, so concurrent workers never contend on one checkpoint
    file and the supervisor can read a *dead* worker's state to migrate
    its streams without touching the survivors'.
    """
    return Path(root) / layout.worker_dirname(worker_id)


# ----------------------------------------------------------------------
# stream state <-> JSON
# ----------------------------------------------------------------------
def _stream_to_obj(state: StreamState) -> Dict[str, Any]:
    """One stream's durable state, consistent as of ``processed_seq``.

    ``work_lock`` is held so the tracker's differencer and history are
    never captured mid-batch; counters are clamped to processed work
    because queued-but-unclassified snapshots will be re-sent on resume.
    """
    with state.work_lock:
        with state.lock:
            obj: Dict[str, Any] = {
                "stream_id": state.stream_id,
                "app": state.app,
                "rank": state.rank,
                "last_seq": state.processed_seq,
                "processed_seq": state.processed_seq,
                "seq_gaps": state.seq_gaps,
                "enqueued": state.processed,
                "processed": state.processed,
                "novel": state.novel,
                "dropped_oldest": state.dropped_oldest,
                "rejected": state.rejected,
                "heartbeats": state.heartbeats,
                "refits": state.refits,
            }
        if state.tracker is not None:
            obj["tracker"] = state.tracker.runtime_state()
    return obj


def _stream_from_obj(
    obj: Dict[str, Any],
    template: Optional[OnlinePhaseTracker],
    adaptive: Optional[AdaptiveConfig] = None,
) -> StreamState:
    try:
        state = StreamState(
            stream_id=str(obj["stream_id"]),
            app=str(obj.get("app", "")),
            rank=int(obj.get("rank", 0)),
            now=0.0,  # adopt() stamps the registry clock
        )
        state.last_seq = int(obj.get("last_seq", -1))
        state.processed_seq = int(obj.get("processed_seq", -1))
        state.seq_gaps = int(obj.get("seq_gaps", 0))
        state.enqueued = int(obj.get("enqueued", 0))
        state.processed = int(obj.get("processed", 0))
        state.novel = int(obj.get("novel", 0))
        state.dropped_oldest = int(obj.get("dropped_oldest", 0))
        state.rejected = int(obj.get("rejected", 0))
        state.heartbeats = int(obj.get("heartbeats", 0))
        state.refits = int(obj.get("refits", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad stream record in checkpoint: {exc!r}") from exc
    tracker_state = obj.get("tracker")
    if tracker_state is not None and template is not None:
        tracker = template.spawn(zero_start=True, adaptive=adaptive)
        try:
            tracker.restore_runtime_state(tracker_state)
        except ValidationError as exc:
            raise CheckpointError(str(exc)) from exc
        state.tracker = tracker
    return state


def snapshot_registry(registry: StreamRegistry) -> Dict[str, Any]:
    """The registry's durable state as a JSON-ready checkpoint payload."""
    return {
        "kind": "incprofd-checkpoint",
        "streams": [_stream_to_obj(s) for s in registry.active()],
        "finished": registry.finished_rows(),
        "registered": registry.registered,
        "expired": registry.expired,
        "finished_evicted": registry.finished_evicted,
    }


def restore_registry(
    registry: StreamRegistry,
    payload: Dict[str, Any],
    template: Optional[OnlinePhaseTracker],
    adaptive: Optional[AdaptiveConfig] = None,
) -> List[StreamState]:
    """Install a checkpoint payload into ``registry``; return the streams.

    ``adaptive`` re-arms online refitting on the restored trackers (the
    checkpointed refit window, drift state, and model version all ride
    in the tracker's runtime state).
    """
    if payload.get("kind") != "incprofd-checkpoint":
        raise CheckpointError(
            f"artifact kind {payload.get('kind')!r} is not an incprofd checkpoint")
    streams = payload.get("streams", [])
    if not isinstance(streams, list):
        raise CheckpointError("checkpoint 'streams' must be a list")
    restored = [_stream_from_obj(obj, template, adaptive) for obj in streams]
    finished = payload.get("finished", [])
    registry.restore_finished(
        [row for row in finished if isinstance(row, dict)],
        registered=int(payload.get("registered", 0)),
        expired=int(payload.get("expired", 0)),
        finished_evicted=int(payload.get("finished_evicted", 0)),
    )
    for state in restored:
        registry.adopt(state)
    return restored


# ----------------------------------------------------------------------
# fleet topology manifest
# ----------------------------------------------------------------------
class FleetManifest:
    """The fleet root's durable topology record (plain JSON, atomic).

    Records the ring membership and where each worker keeps its state
    (checkpoint directory, endpoint, metrics port).  A restarting
    supervisor reads it to find orphaned per-worker checkpoints; it is
    plain JSON — not the checksummed artifact envelope — because humans
    and shell tools are expected to read it during incident response.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / MANIFEST_FILENAME

    def write(self, ring_obj: Dict[str, Any],
              workers: Dict[str, Dict[str, Any]]) -> Path:
        obj = {"kind": "incprofd-fleet-manifest",
               "ring": ring_obj, "workers": workers}
        blob = json.dumps(obj, indent=2, sort_keys=True).encode("utf-8")
        return atomic_write_bytes(self.path, blob + b"\n")

    def load(self) -> Optional[Dict[str, Any]]:
        """The manifest payload, or ``None`` when absent; bad JSON raises."""
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise CheckpointError(
                f"cannot read fleet manifest {self.path}: {exc}") from exc
        try:
            obj = json.loads(blob)
        except ValueError as exc:
            raise CheckpointError(
                f"corrupt fleet manifest {self.path}: {exc}") from exc
        if (not isinstance(obj, dict)
                or obj.get("kind") != "incprofd-fleet-manifest"):
            raise CheckpointError(
                f"{self.path} is not an incprofd fleet manifest")
        return obj


# ----------------------------------------------------------------------
# the on-disk manager
# ----------------------------------------------------------------------
class CheckpointManager:
    """Owns one checkpoint file: periodic writes, recovery, quarantine.

    ``keep_history`` > 0 additionally rotates every write into a
    versioned ``incprofd-NNNNNNNN.ipckp`` sibling and prunes the series
    (and any versioned ``.ipm`` model artifacts in the same directory)
    down to the newest ``keep_history`` per family — a bounded undo
    buffer: when the latest checkpoint captures a poisoned model, the
    previous epoch is still on disk.
    """

    def __init__(self, directory: Union[str, Path],
                 interval: float = 2.0, keep_history: int = 0) -> None:
        if interval <= 0:
            raise ValidationError("checkpoint interval must be positive")
        if keep_history < 0:
            raise ValidationError("keep_history must be non-negative")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / CHECKPOINT_FILENAME
        self.interval = interval
        self.keep_history = keep_history
        self.writes = 0
        self.quarantined: List[Path] = []
        self._last_write = 0.0
        # Resume the rotation serial past any survivors of an earlier
        # incarnation so history never overwrites itself.
        self._serial = 0
        for entry in self.directory.glob(f"*{layout.CHECKPOINT_SUFFIX}"):
            match = layout.VERSIONED_CHECKPOINT_RE.match(entry.name)
            if match is not None:
                self._serial = max(self._serial, int(match.group("version")))

    # -- writing -------------------------------------------------------
    def write(self, payload: Dict[str, Any]) -> Path:
        """Atomically persist one checkpoint payload."""
        blob = pack_artifact(payload, CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA)
        out = atomic_write_bytes(self.path, blob)
        if self.keep_history > 0:
            self._serial += 1
            atomic_write_bytes(
                self.directory / layout.versioned_checkpoint_name(self._serial),
                blob)
            self.gc()
        self.writes += 1
        self._last_write = time.monotonic()
        return out

    def gc(self, keep: Optional[int] = None) -> List[Path]:
        """Prune versioned ``.ipckp``/``.ipm`` history in this directory."""
        keep = self.keep_history if keep is None else keep
        if keep < 1:
            return []
        return layout.gc_versioned(self.directory, keep=keep)

    def due(self, now: Optional[float] = None) -> bool:
        """True when the checkpoint cadence has elapsed."""
        now = time.monotonic() if now is None else now
        return now - self._last_write >= self.interval

    # -- recovery ------------------------------------------------------
    def load(self) -> Optional[Dict[str, Any]]:
        """Read and validate the checkpoint payload.

        Returns ``None`` when no checkpoint exists; raises
        :class:`CheckpointError` when one exists but is unreadable (the
        caller decides whether to quarantine).
        """
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {self.path}: {exc}") from exc
        return read_artifact_payload(blob, CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA,
                                     "checkpoint", exc_type=CheckpointError)

    def quarantine(self) -> Optional[Path]:
        """Move a bad checkpoint aside (never delete evidence)."""
        if not self.path.exists():
            return None
        n = 0
        while True:
            target = self.path.with_name(f"{self.path.name}.quarantined-{n}")
            if not target.exists():
                break
            n += 1
        os.replace(self.path, target)
        self.quarantined.append(target)
        return target

    def load_or_quarantine(self) -> Tuple[Optional[Dict[str, Any]], Optional[Path]]:
        """Recovery entry point: ``(payload, quarantined_path)``.

        A valid checkpoint returns ``(payload, None)``; a missing one
        ``(None, None)``; a corrupt one is quarantined and returns
        ``(None, path-it-was-moved-to)`` so the daemon can start fresh
        while reporting what happened.
        """
        try:
            return self.load(), None
        except CheckpointError:
            return None, self.quarantine()
