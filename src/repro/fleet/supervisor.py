"""Worker supervision: spawn, watch, restart, evict, rebalance.

The supervisor owns the fleet's membership truth: it spawns N
``incprofd`` worker daemons as subprocesses (each with its own unix
socket, checkpoint directory, and worker id), installs the consistent-
hash ring on every worker, and keeps the fleet manifest on disk current.

Failure handling is two-tier, and deliberately asymmetric:

- **Restart** (cheap): a dead worker respawned under the *same* worker
  id keeps its ring position, so no stream moves; it recovers its own
  streams from its own checkpoint and publishers resume into it through
  the normal ``hello(resume=True)`` handshake.
- **Evict** (rebalance): after ``max_restarts`` failed revivals the
  worker is removed from the ring (generation bump), the new membership
  is pushed to every survivor, and the dead worker's checkpoint is read
  so each orphaned stream can be migrated to its new ring owner via the
  ``adopt-stream`` control.  Consistent hashing guarantees only the dead
  worker's streams move.

Both paths lose at most one checkpoint interval per stream: the adopt
payload is the dead worker's last checkpoint, and the publisher's resume
handshake rewinds to ``processed_seq + 1`` on the adopting worker.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.fleet.ring import DEFAULT_VIRTUAL_NODES, HashRing
from repro.service.checkpoint import (
    CheckpointManager,
    FleetManifest,
    worker_checkpoint_dir,
)
from repro.service.client import PhaseClient, RetryPolicy
from repro.service.protocol import Endpoint
from repro.store import layout
from repro.util.errors import (
    CheckpointError,
    ReproError,
    ServiceError,
    ValidationError,
)
from repro.util.jsonlog import JsonLogger

#: Control pushes to workers fail fast: a dead worker must be detected,
#: not waited on.
_LINK_RETRY = RetryPolicy(max_attempts=2, base_delay=0.05, max_delay=0.2,
                          request_timeout=10.0, connect_timeout=2.0)


@dataclass(frozen=True)
class FleetConfig:
    """Tunables of one worker fleet."""

    #: Fleet root directory: per-worker checkpoint dirs, unix sockets,
    #: and the topology manifest all live under here.
    root: str
    n_workers: int = 2
    #: Phase-model artifact every worker serves (None: ingest-only).
    model_path: Optional[str] = None
    queue_capacity: int = 64
    policy: str = "block"
    idle_timeout: float = 30.0
    checkpoint_interval: float = 0.5
    #: Liveness probe cadence for the monitor thread.
    ping_interval: float = 0.5
    #: How long one worker may take to come up before start() fails.
    startup_timeout: float = 20.0
    #: Revivals under the same identity before the worker is evicted
    #: from the ring (0 = evict on first death).
    max_restarts: int = 1
    virtual_nodes: int = DEFAULT_VIRTUAL_NODES
    log_level: str = "warning"
    refit_interval: Optional[float] = None
    refit_drift_threshold: float = 0.3
    #: Per-worker interval archives: each worker appends every
    #: classified snapshot into its own tiered segment store under
    #: ``worker-<id>/store`` (shared-nothing, like checkpoints), so any
    #: worker's history can be replayed with ``incprof replay`` — even
    #: after the worker is evicted.  Off by default.
    archive_intervals: bool = False

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValidationError("need at least one worker")
        if self.startup_timeout <= 0:
            raise ValidationError("startup timeout must be positive")
        if self.max_restarts < 0:
            raise ValidationError("max restarts must be non-negative")
        if self.ping_interval <= 0:
            raise ValidationError("ping interval must be positive")


@dataclass
class WorkerHandle:
    """One spawned worker daemon as the supervisor sees it."""

    worker_id: str
    endpoint: Endpoint
    checkpoint_dir: Path
    store_dir: Optional[Path] = None
    proc: Optional[subprocess.Popen] = None
    restarts: int = 0
    evicted: bool = False
    spawned_at: float = field(default_factory=time.monotonic)

    def process_alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


class WorkerSupervisor:
    """Spawns and supervises the worker fleet; owns the hash ring."""

    def __init__(self, config: FleetConfig,
                 logger: Optional[JsonLogger] = None) -> None:
        self.config = config
        self.root = Path(config.root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.log = (logger if logger is not None
                    else JsonLogger("fleet-supervisor",
                                    level=config.log_level))
        self.ring = HashRing(virtual_nodes=config.virtual_nodes)
        self.manifest = FleetManifest(self.root)
        self.workers: Dict[str, WorkerHandle] = {}
        self._links: Dict[str, PhaseClient] = {}
        #: One lock serializes every membership mutation (spawn, restart,
        #: evict): the monitor thread and router failure reports may race.
        self._lock = threading.RLock()
        self._monitor: Optional[threading.Thread] = None
        self._running = threading.Event()
        self.restarts_total = 0
        self.evictions_total = 0
        self.migrations_total = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> List[str]:
        """Spawn the fleet, install the ring everywhere; return worker ids."""
        with self._lock:
            if self.workers:
                raise ServiceError("fleet already started")
            for i in range(self.config.n_workers):
                worker_id = f"w{i}"
                handle = self._make_handle(worker_id)
                self._spawn(handle)
                self.workers[worker_id] = handle
            for handle in self.workers.values():
                self._wait_ready(handle)
                self.ring.add_worker(handle.worker_id)
            # Membership is complete before any worker enforces it: a
            # worker without a ring accepts everything, so pushing the
            # final ring once avoids a window of spurious refusals.
            self._push_ring()
            self._write_manifest()
        self.log.info("fleet-started", workers=sorted(self.workers),
                      generation=self.ring.generation)
        return sorted(self.workers)

    def start_monitor(self) -> None:
        """Run the liveness probe loop on a daemon thread."""
        if self._monitor is not None:
            return
        self._running.set()
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="fleet-monitor", daemon=True)
        self._monitor.start()

    def stop(self) -> None:
        """Shut every worker down (orderly first, then force)."""
        self._running.clear()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        with self._lock:
            for handle in self.workers.values():
                self._shutdown_worker(handle)
            for link in self._links.values():
                link.close()
            self._links.clear()
            self._write_manifest()
        self.log.info("fleet-stopped",
                      restarts=self.restarts_total,
                      evictions=self.evictions_total)

    def __enter__(self) -> "WorkerSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # spawning
    # ------------------------------------------------------------------
    def _make_handle(self, worker_id: str) -> WorkerHandle:
        sock = self.root / f"{worker_id}.sock"
        checkpoint_dir = worker_checkpoint_dir(self.root, worker_id)
        return WorkerHandle(
            worker_id=worker_id,
            endpoint=Endpoint.unix(str(sock)),
            checkpoint_dir=checkpoint_dir,
            store_dir=(checkpoint_dir / layout.WORKER_STORE_DIRNAME
                       if self.config.archive_intervals else None),
        )

    def _worker_command(self, handle: WorkerHandle) -> List[str]:
        cfg = self.config
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--unix", handle.endpoint.path,
            "--worker-id", handle.worker_id,
            "--checkpoint-dir", str(handle.checkpoint_dir),
            "--checkpoint-interval", str(cfg.checkpoint_interval),
            "--queue", str(cfg.queue_capacity),
            "--policy", cfg.policy,
            "--idle-timeout", str(cfg.idle_timeout),
            "--log-level", cfg.log_level,
        ]
        if handle.store_dir is not None:
            cmd += ["--store-dir", str(handle.store_dir)]
        if cfg.model_path:
            cmd += ["--model", cfg.model_path]
        if cfg.refit_interval is not None:
            cmd += ["--refit-interval", str(cfg.refit_interval),
                    "--refit-drift-threshold",
                    str(cfg.refit_drift_threshold)]
        return cmd

    def _spawn(self, handle: WorkerHandle) -> None:
        # A stale socket file from a previous life refuses the new bind.
        try:
            os.unlink(handle.endpoint.path)
        except OSError:
            pass
        handle.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = (src_dir + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src_dir)
        handle.proc = subprocess.Popen(
            self._worker_command(handle),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        handle.spawned_at = time.monotonic()
        self.log.info("worker-spawned", worker_id=handle.worker_id,
                      pid=handle.proc.pid, endpoint=str(handle.endpoint))

    def _wait_ready(self, handle: WorkerHandle) -> None:
        """Block until the worker answers a ping (or startup times out)."""
        deadline = time.monotonic() + self.config.startup_timeout
        last = "no attempt"
        while time.monotonic() < deadline:
            if not handle.process_alive():
                raise ServiceError(
                    f"worker {handle.worker_id!r} exited during startup "
                    f"(rc={handle.proc.returncode if handle.proc else '?'})")
            try:
                reply = self._link(handle).ping()
                if reply.ok:
                    return
                last = reply.error
            except (ReproError, OSError) as exc:
                last = str(exc)
                self._drop_link(handle.worker_id)
            time.sleep(0.05)
        raise ServiceError(
            f"worker {handle.worker_id!r} not ready after "
            f"{self.config.startup_timeout:g}s: {last}")

    # ------------------------------------------------------------------
    # control links
    # ------------------------------------------------------------------
    def _link(self, handle: WorkerHandle) -> PhaseClient:
        link = self._links.get(handle.worker_id)
        if link is None:
            link = PhaseClient(handle.endpoint, retry=_LINK_RETRY,
                               check=False)
            self._links[handle.worker_id] = link
        return link

    def _drop_link(self, worker_id: str) -> None:
        link = self._links.pop(worker_id, None)
        if link is not None:
            link.close()

    def endpoint_of(self, worker_id: str) -> Endpoint:
        with self._lock:
            handle = self.workers.get(worker_id)
            if handle is None or handle.evicted:
                raise ServiceError(f"no live worker {worker_id!r}")
            return handle.endpoint

    def live_workers(self) -> List[WorkerHandle]:
        with self._lock:
            return [h for h in self.workers.values() if not h.evicted]

    def _push_ring(self) -> None:
        """Install the current membership on every live worker."""
        ring_obj = self.ring.to_obj()
        for handle in list(self.workers.values()):
            if handle.evicted:
                continue
            try:
                reply = self._link(handle).control("ring-update",
                                                   ring=ring_obj)
                if not reply.ok:
                    self.log.warning("ring-push-refused",
                                     worker_id=handle.worker_id,
                                     error=reply.error)
            except (ReproError, OSError) as exc:
                # The monitor (or the next router failure report) will
                # deal with this worker; the push is retried on the next
                # membership change anyway.
                self.log.warning("ring-push-failed",
                                 worker_id=handle.worker_id, error=str(exc))
                self._drop_link(handle.worker_id)

    def _write_manifest(self) -> None:
        workers = {
            h.worker_id: {
                "endpoint": str(h.endpoint),
                "checkpoint_dir": str(h.checkpoint_dir),
                "store_dir": (str(h.store_dir)
                              if h.store_dir is not None else None),
                "evicted": h.evicted,
                "restarts": h.restarts,
            }
            for h in self.workers.values()
        }
        try:
            self.manifest.write(self.ring.to_obj(), workers)
        except OSError as exc:
            self.log.warning("manifest-write-failed", error=str(exc))

    # ------------------------------------------------------------------
    # liveness + failure handling
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while self._running.is_set():
            time.sleep(self.config.ping_interval)
            if not self._running.is_set():
                return
            self.check_once()

    def check_once(self) -> List[str]:
        """Probe every live worker; handle failures.  Returns events."""
        events: List[str] = []
        for handle in self.live_workers():
            if not self._probe(handle):
                events.append(self.handle_failure(handle.worker_id))
        return events

    def _probe(self, handle: WorkerHandle) -> bool:
        if not handle.process_alive():
            return False
        try:
            return bool(self._link(handle).ping().ok)
        except (ReproError, OSError):
            self._drop_link(handle.worker_id)
            # The process may just be busy; trust the process state for
            # the verdict and let the next probe retry the socket.
            return handle.process_alive()

    def handle_failure(self, worker_id: str) -> str:
        """React to a dead worker: restart under the same id, or evict.

        Idempotent and safe to call from the router's forwarding path:
        a worker that is actually alive (spurious report) is left alone.
        """
        with self._lock:
            handle = self.workers.get(worker_id)
            if handle is None or handle.evicted:
                return "ignored"
            if handle.process_alive() and self._probe(handle):
                return "alive"
            if handle.proc is not None and handle.proc.poll() is None:
                # Process exists but stopped answering: treat as dead.
                handle.proc.kill()
                handle.proc.wait(timeout=5.0)
            if handle.restarts < self.config.max_restarts:
                return self._restart(handle)
            return self._evict(handle)

    def _restart(self, handle: WorkerHandle) -> str:
        handle.restarts += 1
        self.restarts_total += 1
        self._drop_link(handle.worker_id)
        self.log.warning("worker-restarting", worker_id=handle.worker_id,
                         attempt=handle.restarts)
        self._spawn(handle)
        try:
            self._wait_ready(handle)
        except ServiceError as exc:
            self.log.warning("worker-restart-failed",
                             worker_id=handle.worker_id, error=str(exc))
            return self._evict(handle)
        # Same identity, same ring position: nothing moves, but the
        # revived worker needs the membership pushed again (its ring
        # died with the old process).
        self._push_ring()
        self._write_manifest()
        return f"restarted:{handle.worker_id}"

    def _evict(self, handle: WorkerHandle) -> str:
        """Remove a worker from the ring and migrate its streams away."""
        handle.evicted = True
        self.evictions_total += 1
        self._drop_link(handle.worker_id)
        if handle.worker_id in self.ring:
            self.ring.remove_worker(handle.worker_id)
        self.log.warning("worker-evicted", worker_id=handle.worker_id,
                         generation=self.ring.generation)
        # Survivors learn the new membership *before* orphans migrate,
        # so an adopting worker never refuses its own new streams.
        self._push_ring()
        migrated = self.migrate_orphans(handle)
        self._write_manifest()
        return f"evicted:{handle.worker_id}:migrated={len(migrated)}"

    def migrate_orphans(self, handle: WorkerHandle) -> List[str]:
        """Drive the dead worker's checkpointed streams to new owners.

        Reads the victim's last checkpoint and sends each stream record
        to its new ring owner via ``adopt-stream``.  A corrupt or absent
        checkpoint migrates nothing — publishers still recover through
        the resume handshake, they just restart their streams from the
        new owner's ``resume_from`` (0 for fresh state).
        """
        if len(self.ring) == 0:
            self.log.warning("no-survivors", worker_id=handle.worker_id)
            return []
        manager = CheckpointManager(handle.checkpoint_dir,
                                    interval=self.config.checkpoint_interval)
        try:
            payload = manager.load()
        except CheckpointError as exc:
            quarantined = manager.quarantine()
            self.log.warning("orphan-checkpoint-corrupt",
                             worker_id=handle.worker_id,
                             quarantined=str(quarantined), error=str(exc))
            return []
        if payload is None:
            return []
        migrated: List[str] = []
        for obj in payload.get("streams", []):
            if not isinstance(obj, dict) or not obj.get("stream_id"):
                continue
            stream_id = str(obj["stream_id"])
            owner = self.ring.lookup(stream_id)
            target = self.workers[owner]
            try:
                reply = self._link(target).control("adopt-stream", stream=obj)
            except (ReproError, OSError) as exc:
                self.log.warning("adopt-failed", stream_id=stream_id,
                                 worker_id=owner, error=str(exc))
                self._drop_link(owner)
                continue
            if reply.ok:
                migrated.append(stream_id)
                self.migrations_total += 1
                self.log.info("stream-migrated", stream_id=stream_id,
                              src=handle.worker_id, dst=owner,
                              adopted=reply.data.get("adopted"))
            else:
                self.log.warning("adopt-refused", stream_id=stream_id,
                                 worker_id=owner, error=reply.error)
        return migrated

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def kill_worker(self, worker_id: str,
                    sig: int = signal.SIGKILL) -> None:
        """Send a signal to a worker process (chaos testing hook)."""
        with self._lock:
            handle = self.workers.get(worker_id)
            if handle is None or handle.proc is None:
                raise ServiceError(f"no spawned worker {worker_id!r}")
            handle.proc.send_signal(sig)

    def _shutdown_worker(self, handle: WorkerHandle) -> None:
        if handle.proc is None:
            return
        if handle.process_alive() and not handle.evicted:
            try:
                self._link(handle).shutdown()
            except (ReproError, OSError):
                pass
        self._drop_link(handle.worker_id)
        try:
            handle.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            handle.proc.terminate()
            try:
                handle.proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                handle.proc.kill()
                handle.proc.wait(timeout=5.0)

    def orphan_stores(self) -> List[str]:
        """Interval archives whose owning worker was evicted.

        The archives are shared-nothing and append-only, so they outlive
        their worker: an operator (or ``incprof replay``) can still
        re-drive an evicted worker's history from the listed paths.
        """
        with self._lock:
            return sorted(
                str(h.store_dir) for h in self.workers.values()
                if h.evicted and h.store_dir is not None
                and h.store_dir.exists())

    def status(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "generation": self.ring.generation,
                "members": self.ring.members(),
                "workers": {
                    h.worker_id: {
                        "endpoint": str(h.endpoint),
                        "alive": h.process_alive(),
                        "evicted": h.evicted,
                        "restarts": h.restarts,
                        "store_dir": (str(h.store_dir)
                                      if h.store_dir is not None else None),
                    }
                    for h in self.workers.values()
                },
                "restarts_total": self.restarts_total,
                "evictions_total": self.evictions_total,
                "migrations_total": self.migrations_total,
                "orphan_stores": self.orphan_stores(),
            }
