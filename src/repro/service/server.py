"""``incprofd`` — the long-running phase-monitoring daemon.

Architecture (one box per thread group)::

    publishers ──TCP/unix──▶ reader threads ──▶ per-stream bounded queues
                                                        │
                                             scheduler (ready queue)
                                                        │
                                                 classify thread ──▶ per-stream
                                                                     OnlinePhaseTracker
    housekeeping thread: idle-stream expiry + LDMS sampler pulls

Each accepted connection gets a reader thread that decodes frames and
*enqueues* snapshots — classification happens on one classify thread,
so a slow stream cannot stall ingest for the others.  Per-stream
ordering is preserved by scheduling: a stream is in the ready queue at
most once, and the classify thread drains it in arrival order.

One classify thread, not a pool: differencing and classification are
Python and NumPy work that holds the interpreter lock, so a pool never
classified two streams at once; it only added lock handoffs and context
switches (docs/PERFORMANCE.md, "Daemon threads").  Scaling out across
cores is ``serve-fleet``'s job: shared-nothing daemon processes.

Backpressure when a stream's queue is full is explicit policy:

``block``        the reader thread waits for space, which stops reading
                 the connection and pushes back on the publisher via TCP
                 flow control (the default; lossless).
``drop-oldest``  evict the oldest queued snapshot to admit the new one
                 (bounded staleness; drop counters surface the loss).
``reject``       refuse the new snapshot and tell the publisher via a
                 failed reply (the publisher decides what to retry).
"""

from __future__ import annotations

import socket
import threading
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from queue import Empty, Queue
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from repro.core.incremental import AdaptiveConfig, DriftConfig
from repro.core.model_io import MODEL_MAGIC, MODEL_SCHEMA, pack_artifact
from repro.core.online import OnlinePhaseTracker, classify_across
from repro.gprof.gmon import GmonBlob
from repro.heartbeat.ldms import LDMSTransport
from repro.util.atomicio import atomic_write_bytes
from repro.fleet.ring import HashRing
from repro.service.checkpoint import (
    CheckpointManager,
    _stream_from_obj,
    restore_registry,
    snapshot_registry,
)
from repro.service.faults import (
    CLOSE,
    CORRUPT,
    CORRUPT_FRAME,
    DELAY,
    DROP,
    FaultInjector,
)
from repro.core.cohorts import CohortMatcher
from repro.service.exposition import CONTENT_TYPE, render_prometheus
from repro.service.metrics import ServiceMetrics, StageClock
from repro.service.protocol import (
    Bye,
    Control,
    Endpoint,
    Hello,
    HeartbeatMsg,
    Message,
    Reply,
    SnapshotMsg,
    FrameReader,
    decode_payload,
    enable_nodelay,
    encode_message,
    wrong_worker_reply,
)
from repro.service.registry import StreamRegistry, StreamState
from repro.service.selfekg import SelfInstrument
from repro.service.tracing import TraceStore, new_trace_id
from repro.store import layout
from repro.store.segments import SegmentStore
from repro.util.jsonlog import JsonLogger
from repro.util.errors import (
    BackpressureError,
    CheckpointError,
    CollectorError,
    ProtocolError,
    ReproError,
    ServiceError,
    StreamConflictError,
    ValidationError,
)

if TYPE_CHECKING:  # imported in start() only when an HTTP port is set
    from repro.service.webserver import DashboardServer, MetricsHTTPServer

#: Admission outcomes of one snapshot (also used on the wire in replies).
ACCEPTED = "accepted"
DROPPED_OLDEST = "dropped-oldest"
REJECTED = "rejected"

BACKPRESSURE_POLICIES = ("block", "drop-oldest", "reject")

#: One queued snapshot as the classify thread pops it: the reader's
#: ``(seq, gmon bytes, trace_id, put_start)`` and the queue's admission
#: time.
Entry = Tuple[Tuple[int, GmonBlob, str, float], float]


class BoundedStreamQueue:
    """A bounded FIFO with an explicit full-queue policy.

    ``put`` is called by reader threads, ``pop_batch`` by the classify
    thread; the condition variable couples them so the ``block`` policy
    gives real producer backpressure rather than buffering.  Each item
    is stored with its admission time, so the consumer can tell a wait
    for space from a wait in the queue.
    """

    def __init__(self, capacity: int, policy: str = "block") -> None:
        if capacity < 1:
            raise ValidationError("queue capacity must be positive")
        if policy not in BACKPRESSURE_POLICIES:
            raise ValidationError(
                f"unknown backpressure policy {policy!r} "
                f"(expected one of {BACKPRESSURE_POLICIES})")
        self.capacity = capacity
        self.policy = policy
        self._items: Deque[Any] = deque()
        self._cv = threading.Condition()
        self._closed = False

    def __len__(self) -> int:
        with self._cv:
            return len(self._items)

    def close(self) -> None:
        """Unblock every waiting producer; further puts fail."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()

    def put(self, item: Any, timeout: Optional[float] = None) -> str:
        """Admit one item under the queue's policy.

        Returns the admission outcome; ``block`` waits for space (up to
        ``timeout`` seconds, then :class:`ServiceError`).  An admitted
        item is stamped with ``time.perf_counter()`` as it is appended.
        """
        with self._cv:
            if self.policy == "block":
                deadline = None if timeout is None else time.monotonic() + timeout
                while len(self._items) >= self.capacity and not self._closed:
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        raise BackpressureError("backpressure timeout: queue stayed full")
                    self._cv.wait(remaining)
                if self._closed:
                    raise ServiceError("queue closed")
                self._items.append((item, time.perf_counter()))
                self._cv.notify_all()
                return ACCEPTED
            if self._closed:
                raise ServiceError("queue closed")
            if len(self._items) >= self.capacity:
                if self.policy == "drop-oldest":
                    self._items.popleft()
                    self._items.append((item, time.perf_counter()))
                    return DROPPED_OLDEST
                return REJECTED
            self._items.append((item, time.perf_counter()))
            return ACCEPTED

    def pop_batch(self, max_items: int) -> List[Tuple[Any, float]]:
        """Dequeue up to ``max_items`` ``(item, admitted_at)`` pairs (may
        be empty), waking producers."""
        with self._cv:
            batch = [self._items.popleft()
                     for _ in range(min(max_items, len(self._items)))]
            if batch:
                self._cv.notify_all()
            return batch


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one ``incprofd`` instance."""

    endpoint: Endpoint = field(default_factory=Endpoint.tcp)
    queue_capacity: int = 64
    policy: str = "block"
    #: Give up on a blocked put after this many seconds (a wedged
    #: classify thread must not hold reader threads hostage forever).
    block_timeout: float = 30.0
    idle_timeout: float = 30.0
    #: Housekeeping cadence (idle expiry + LDMS sampler pulls).
    housekeeping_interval: float = 0.5
    batch_size: int = 8
    #: Novelty gate parameters used when spawning per-stream trackers.
    quantile: float = 0.95
    slack: float = 1.5
    #: Online refit: wall-clock floor between per-stream model refits
    #: (``--refit-interval``); None disables live refitting entirely.
    refit_interval: Optional[float] = None
    #: Fraction of recent intervals that must be novel before a refit
    #: fires (``--refit-drift-threshold``); inertia degradation uses the
    #: shared :class:`~repro.core.incremental.DriftConfig` default.
    refit_drift_threshold: float = 0.3
    #: Refits train on this many most-recent interval profiles.
    refit_window: int = 128
    #: Durable-state directory; None disables checkpointing entirely.
    checkpoint_dir: Optional[str] = None
    #: Seconds between checkpoint writes (a crash loses at most this much).
    checkpoint_interval: float = 2.0
    #: Interval archive: when set, every classified snapshot's raw gmon
    #: bytes are appended to a tiered segment store rooted here, so
    #: historical windows can be replayed through ``incprof replay``
    #: (see ``docs/STORAGE.md``).  None disables archiving.
    store_dir: Optional[str] = None
    #: Background store maintenance cadence (flush + compact + gc).
    store_compact_interval: float = 30.0
    #: Versioned-artifact retention: newest N ``.ipm`` models per stream
    #: and rotated ``.ipckp`` checkpoints survive garbage collection.
    artifact_keep: int = 2
    #: Completed-trace ring size for the ``trace`` request.
    trace_capacity: int = 4096
    #: A submission whose spans sum past this many seconds is logged as a
    #: structured ``slow-op`` record.
    slow_op_threshold: float = 1.0
    #: Self-instrumentation: the daemon heartbeats its own pipeline
    #: stages on this collection interval (None disables dogfooding).
    self_heartbeat_interval: Optional[float] = 1.0
    #: Serve Prometheus text over plain HTTP on this port (None = off;
    #: 0 = ephemeral).  The wire ``metrics`` request works regardless.
    metrics_port: Optional[int] = None
    metrics_host: str = "127.0.0.1"
    #: Serve the live analytics dashboard (HTML + /analytics.json) on
    #: this port (None = off; 0 = ephemeral).  See ``docs/ANALYTICS.md``.
    dashboard_port: Optional[int] = None
    dashboard_host: str = "127.0.0.1"
    #: Threshold for the daemon's structured JSON log (stderr).
    log_level: str = "info"
    #: Fleet identity: non-empty when this daemon is one worker of a
    #: sharded fleet.  Enables ring-ownership enforcement and the
    #: fleet reply fields (``worker_id``, ``ring_generation``); the
    #: empty default keeps single-daemon wire replies exactly as before.
    worker_id: str = ""
    #: Finished-stream history ring size (drop-oldest beyond this, with
    #: evictions counted in ``finished_evicted``).
    finished_capacity: int = 64
    #: How many ready streams one classify tick coalesces into a single
    #: cross-stream vectorized classify call.  1 restores strictly
    #: per-stream ticks.
    coalesce_streams: int = 4

    def __post_init__(self) -> None:
        if self.policy not in BACKPRESSURE_POLICIES:
            raise ValidationError(f"unknown backpressure policy {self.policy!r}")
        if self.batch_size < 1:
            raise ValidationError("batch size must be positive")
        if self.checkpoint_interval <= 0:
            raise ValidationError("checkpoint interval must be positive")
        if self.trace_capacity < 1:
            raise ValidationError("trace capacity must be positive")
        if self.slow_op_threshold <= 0:
            raise ValidationError("slow-op threshold must be positive")
        if (self.self_heartbeat_interval is not None
                and self.self_heartbeat_interval <= 0):
            raise ValidationError("self-heartbeat interval must be positive")
        if self.refit_interval is not None and self.refit_interval < 0:
            raise ValidationError("refit interval must be non-negative")
        if not 0 < self.refit_drift_threshold <= 1:
            raise ValidationError("refit drift threshold must be in (0, 1]")
        if self.refit_window < 2:
            raise ValidationError("refit window needs at least two profiles")
        if self.finished_capacity < 1:
            raise ValidationError("finished capacity must be positive")
        if self.store_compact_interval <= 0:
            raise ValidationError("store compact interval must be positive")
        if self.artifact_keep < 1:
            raise ValidationError("artifact_keep must be positive")
        if self.coalesce_streams < 1:
            raise ValidationError("coalesce_streams must be positive")

    def adaptive_config(self) -> Optional[AdaptiveConfig]:
        """The per-stream refit policy, or None when refitting is off."""
        if self.refit_interval is None:
            return None
        return AdaptiveConfig(
            window=self.refit_window,
            min_refit_window=min(16, self.refit_window),
            drift=DriftConfig(novel_rate=self.refit_drift_threshold),
            cooldown_s=self.refit_interval,
            quantile=self.quantile,
            slack=self.slack,
        )


class PhaseMonitorServer:
    """The daemon: socket front end, classify thread, fleet state."""

    def __init__(
        self,
        tracker_template: Optional[OnlinePhaseTracker] = None,
        config: ServerConfig = ServerConfig(),
        faults: Optional[FaultInjector] = None,
        logger: Optional[JsonLogger] = None,
    ) -> None:
        self.template = tracker_template
        self.config = config
        self.adaptive = config.adaptive_config()
        self.registry = StreamRegistry(
            idle_timeout=config.idle_timeout,
            finished_capacity=config.finished_capacity)
        self.metrics = ServiceMetrics()
        #: Fleet membership as this worker last heard it (``ring-update``
        #: control); None until the supervisor pushes one.  Assignment is
        #: atomic and :class:`HashRing` is itself thread-safe, so request
        #: threads read it without a lock.
        self.ring: Optional[HashRing] = None
        #: Refit artifacts awaiting persistence: (stream_id, version,
        #: trained-state dict), captured atomically at swap time and
        #: written by the housekeeping thread (never under tracker locks).
        self._model_saves: Deque[Tuple[str, int, Dict[str, Any]]] = deque()
        self.faults = faults
        self.log = (logger if logger is not None
                    else JsonLogger("incprofd", level=config.log_level))
        #: Per-submission trace spans, queryable via the ``trace`` request.
        self.traces = TraceStore(capacity=config.trace_capacity)
        self.checkpoints: Optional[CheckpointManager] = None
        if config.checkpoint_dir is not None:
            self.checkpoints = CheckpointManager(
                config.checkpoint_dir, interval=config.checkpoint_interval,
                keep_history=config.artifact_keep)
        #: Interval archive (tiered segment store); every classified
        #: snapshot's raw bytes land here when ``store_dir`` is set.
        self.store: Optional[SegmentStore] = None
        if config.store_dir is not None:
            self.store = SegmentStore(config.store_dir)
        #: Recovery outcome of the last start(): stream ids restored from
        #: the checkpoint, and the path a corrupt one was quarantined to.
        self.restored_streams: List[str] = []
        self.quarantined_checkpoint = None
        #: Heartbeat rows are forwarded through the same pull-model
        #: transport the in-process examples use; the housekeeping thread
        #: plays the LDMS sampler.
        self.transport = LDMSTransport()
        #: Dogfooding: the daemon heartbeats its own pipeline stages into
        #: the same transport, so IncProf can analyse incprofd itself.
        self.selfekg: Optional[SelfInstrument] = None
        if config.self_heartbeat_interval is not None:
            self.selfekg = SelfInstrument(
                sink=self.transport, interval=config.self_heartbeat_interval)
        self.metrics_http: Optional[MetricsHTTPServer] = None
        self.dashboard_http: Optional[DashboardServer] = None
        #: Cross-stream analytics: cohort ids stay stable across
        #: successive ``fleet_analytics`` passes via one matcher, and
        #: the last pass's summary rides in stats()/Prometheus.
        self._analytics_matcher = CohortMatcher()
        self._analytics_lock = threading.Lock()
        self._analytics_summary: Optional[Dict[str, Any]] = None
        #: Final signatures of recently finished streams (orderly bye or
        #: idle expiry), so analytics still sees a publisher that just
        #: disconnected.  Bounded drop-oldest like the finished ring.
        self._retired_signatures: "OrderedDict[str, Any]" = OrderedDict()
        self._retired_lock = threading.Lock()
        self.registry.on_close = self._retire_signature
        self._listener: Optional[socket.socket] = None
        self._endpoint: Optional[Endpoint] = None
        self._running = threading.Event()
        self._stopped = threading.Event()
        self._ready: "Queue[Optional[StreamState]]" = Queue()
        self._sched_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        self._conns_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def endpoint(self) -> Endpoint:
        if self._endpoint is None:
            raise ServiceError("server is not started")
        return self._endpoint

    def start(self) -> Endpoint:
        """Bind, spawn the thread groups, and return the bound endpoint."""
        if self._running.is_set():
            raise ServiceError("server already started")
        self._recover()
        cfg = self.config
        if cfg.endpoint.kind == "unix":
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(cfg.endpoint.path)
            self._endpoint = cfg.endpoint
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((cfg.endpoint.host, cfg.endpoint.port))
            host, port = listener.getsockname()[:2]
            self._endpoint = replace(cfg.endpoint, host=host, port=port)
        listener.listen(128)
        # Closing a listener does not reliably wake a thread blocked in
        # accept(); a short timeout lets the accept loop re-check the
        # running flag instead.  (Accepted sockets stay blocking.)
        listener.settimeout(0.2)
        self._listener = listener
        self._running.set()
        self._stopped.clear()

        self._spawn(self._accept_loop, "incprofd-accept")
        self._spawn(self._classify_loop, "incprofd-classify")
        self._spawn(self._housekeeping_loop, "incprofd-housekeeping")
        if self.store is not None:
            # The store runs its own maintenance thread (flush pending
            # buffers into segments, tier migration, artifact GC) so a
            # slow compaction never stalls the housekeeping cadence.
            self.store.start_compactor(interval=cfg.store_compact_interval)
        if cfg.metrics_port is not None:
            from repro.service.webserver import MetricsHTTPServer

            self.metrics_http = MetricsHTTPServer(
                lambda: render_prometheus(self.stats()),
                host=cfg.metrics_host, port=cfg.metrics_port)
            self.metrics_http.start()
        if cfg.dashboard_port is not None:
            from repro.service.webserver import DashboardServer

            title = (f"incprofd {cfg.worker_id} analytics" if cfg.worker_id
                     else "incprofd analytics")
            self.dashboard_http = DashboardServer(
                self.fleet_analytics_report,
                host=cfg.dashboard_host, port=cfg.dashboard_port,
                title=title)
            self.dashboard_http.start()
        self.log.info(
            "server-started",
            endpoint=str(self._endpoint), policy=cfg.policy,
            restored_streams=len(self.restored_streams),
            metrics_url=(self.metrics_http.url
                         if self.metrics_http is not None else None))
        return self._endpoint

    def _recover(self) -> None:
        """Restore registry state from the checkpoint directory, if any.

        A corrupt checkpoint is quarantined (moved aside, never deleted)
        and the daemon starts fresh; the quarantine path is kept on the
        server for operators to inspect.
        """
        if self.checkpoints is None:
            return
        payload, quarantined = self.checkpoints.load_or_quarantine()
        self.quarantined_checkpoint = quarantined
        if quarantined is not None:
            self.log.warning("checkpoint-quarantined", path=str(quarantined))
        if payload is None:
            return
        restored = restore_registry(self.registry, payload, self.template,
                                    adaptive=self.adaptive)
        for state in restored:
            state.queue = BoundedStreamQueue(self.config.queue_capacity,
                                             self.config.policy)
            if state.tracker is not None:
                self._watch_refits(state, state.tracker)
        self.restored_streams = [s.stream_id for s in restored]
        # Traces survive restarts alongside the registry (extra payload
        # keys are ignored by older restore paths, so this is additive).
        self.traces.restore_rows(payload.get("traces", []))

    def checkpoint_now(self) -> None:
        """Write one checkpoint immediately (no-op without a directory)."""
        if self.checkpoints is not None:
            payload = snapshot_registry(self.registry)
            payload["traces"] = self.traces.export_rows()
            self.checkpoints.write(payload)

    def _spawn(self, target, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def stop(self) -> None:
        """Stop accepting, unblock everything, and join the thread groups."""
        if not self._running.is_set():
            return
        self._running.clear()
        if self.metrics_http is not None:
            self.metrics_http.stop()
        if self.dashboard_http is not None:
            self.dashboard_http.stop()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for state in self.registry.active():
            if state.queue is not None:
                state.queue.close()
        self._ready.put(None)
        current = threading.current_thread()
        for thread in self._threads:
            if thread is not current:
                thread.join(timeout=5.0)
        try:
            # Final checkpoint after the classify thread quiesces, so an
            # orderly shutdown persists exactly the classified state
            # (including any refit artifacts still queued for
            # persistence).
            self._flush_model_saves()
            self.checkpoint_now()
        except (CheckpointError, OSError) as exc:
            self.log.warning("final-checkpoint-failed", error=str(exc))
        if self.store is not None:
            try:
                # close() stops the compactor and flushes pending
                # buffers into final (partial) segments.
                self.store.close()
            except (ReproError, OSError) as exc:
                self.log.warning("store-close-failed", error=str(exc))
        self.log.info("server-stopped",
                      processed=self.metrics.processed,
                      streams=len(self.registry))
        self._stopped.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server stops (e.g. via a shutdown control)."""
        return self._stopped.wait(timeout)

    def __enter__(self) -> "PhaseMonitorServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # socket front end
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._running.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._conns_lock:
                self._conns.append(conn)
            self._spawn(lambda c=conn: self._handle_conn(c), "incprofd-conn")

    def _handle_conn(self, conn: socket.socket) -> None:
        self.metrics.note_connection()
        enable_nodelay(conn)
        reader = FrameReader(conn)
        fh = conn.makefile("wb")

        def send(reply: Reply) -> None:
            # Corked replies: under a pipelined submission window the
            # next request is usually already buffered, so defer the
            # flush and answer the whole burst with one send.  With a
            # single-shot client nothing is ever buffered and this
            # degenerates to flush-per-reply.
            fh.write(encode_message(reply))
            if not reader.buffered_frame():
                fh.flush()

        try:
            while self._running.is_set():
                try:
                    payload = reader.read_frame()
                except ProtocolError:
                    # Framing is broken: the byte stream lost sync, the
                    # connection cannot be trusted any further.
                    self.metrics.note_protocol_error()
                    break
                if payload is None:
                    break
                try:
                    # Lazy gmon: a snapshot is admitted on header
                    # validation alone; the classify thread pays the
                    # parse off this reader thread's critical path.
                    msg = decode_payload(payload, lazy_gmon=True)
                except ProtocolError as exc:
                    # The frame boundary held — reject the message, keep
                    # the connection.
                    self.metrics.note_protocol_error()
                    send(Reply(ok=False, error=str(exc)))
                    continue
                reply = self._dispatch(msg)
                action = (self.faults.on_reply(msg.TYPE)
                          if self.faults is not None else None)
                if action is not None:
                    self.metrics.note_fault_injected()
                    if action.kind == DELAY:
                        time.sleep(action.delay)
                    elif action.kind == DROP:
                        continue
                    elif action.kind == CORRUPT:
                        fh.flush()
                        fh.write(CORRUPT_FRAME)
                        fh.flush()
                        continue
                    elif action.kind == CLOSE:
                        break
                send(reply)
                if (reply.ok and isinstance(msg, Control)
                        and msg.command == "shutdown"):
                    fh.flush()
                    # The reply is flushed; now it is safe to tear the
                    # server down.  stop() joins reader threads, so it
                    # must run on a helper thread, not this one.
                    threading.Thread(target=self.stop,
                                     name="incprofd-stopper",
                                     daemon=True).start()
                    break
        except (OSError, ValueError):
            pass  # peer vanished mid-write; nothing to answer
        finally:
            try:
                fh.close()
            except (OSError, ValueError):
                pass
            try:
                conn.close()
            except OSError:
                pass
            with self._conns_lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, msg: Message) -> Reply:
        try:
            if isinstance(msg, Hello):
                return self._on_hello(msg)
            if isinstance(msg, SnapshotMsg):
                return self._on_snapshot(msg)
            if isinstance(msg, HeartbeatMsg):
                return self._on_heartbeat(msg)
            if isinstance(msg, Control):
                return self._on_control(msg)
            if isinstance(msg, Bye):
                return self._on_bye(msg)
        except ServiceError as exc:
            # Every service error carries a stable wire code so clients
            # can raise the matching typed exception from the reply.
            return Reply(ok=False, error=str(exc), data={"code": exc.code})
        return Reply(ok=False, error=f"unhandled message {type(msg).__name__}")

    # ------------------------------------------------------------------
    # fleet membership
    # ------------------------------------------------------------------
    def _fleet_fields(self, data: Dict[str, Any]) -> Dict[str, Any]:
        """Stamp fleet identity onto a reply (no-op outside fleet mode).

        Single-daemon deployments must keep byte-identical replies, so
        these keys only appear when a ``worker_id`` is configured.
        """
        if self.config.worker_id:
            data["worker_id"] = self.config.worker_id
            data["ring_generation"] = (self.ring.generation
                                       if self.ring is not None else 0)
        return data

    def _check_owner(self, stream_id: str) -> Optional[Reply]:
        """A ``wrong-worker`` reply when the ring assigns the stream away.

        Enforcement needs both a fleet identity and a pushed ring; a
        worker that never saw a ``ring-update`` accepts everything (the
        supervisor pushes the ring before admitting traffic).  The
        refusal means "not processed, safe to re-resolve and resend".
        """
        cfg = self.config
        ring = self.ring
        if not cfg.worker_id or ring is None:
            return None
        owner = ring.lookup_or_none(stream_id)
        if owner is None or owner == cfg.worker_id:
            return None
        # Note a worker *removed* from the installed ring refuses too:
        # a live-but-evicted worker silently accepting streams it no
        # longer owns is a split brain, not a convenience.
        self.metrics.note_wrong_worker()
        return wrong_worker_reply(owner, cfg.worker_id, ring.generation)

    def _misplaced_streams(self) -> List[str]:
        """Live streams the current ring assigns to some other worker."""
        cfg = self.config
        ring = self.ring
        if not cfg.worker_id or ring is None or len(ring) == 0:
            return []
        return sorted(
            state.stream_id for state in self.registry.active()
            if ring.lookup_or_none(state.stream_id) != cfg.worker_id)

    def _install_ring(self, args: Dict[str, Any]) -> Reply:
        """Handle a ``ring-update`` control: adopt new fleet membership.

        Stale pushes (lower generation than the installed ring) are
        refused so a delayed update can never roll the membership back.
        The reply names this worker's now-misplaced streams so the
        supervisor can migrate them.
        """
        ring_obj = args.get("ring")
        if not isinstance(ring_obj, dict):
            raise ServiceError("ring-update needs a 'ring' object")
        try:
            ring = HashRing.from_obj(ring_obj)
        except ValidationError as exc:
            raise ServiceError(str(exc)) from exc
        current = self.ring
        if current is not None and ring.generation < current.generation:
            return Reply(ok=False,
                         error=f"stale ring generation {ring.generation} "
                               f"(installed: {current.generation})",
                         data=self._fleet_fields({}))
        self.ring = ring
        self.log.info("ring-updated", generation=ring.generation,
                      members=ring.members())
        return Reply(ok=True, data=self._fleet_fields({
            "generation": ring.generation,
            "members": ring.members(),
            "misplaced": self._misplaced_streams(),
        }))

    def _adopt_stream(self, args: Dict[str, Any]) -> Reply:
        """Handle an ``adopt-stream`` control: install a migrated stream.

        The supervisor reads the dead worker's checkpoint and sends each
        orphaned stream record to its new ring owner.  Adoption is
        guarded against the race where the publisher reconnected first:
        live state that has already processed at least as far as the
        checkpoint wins (adopting would roll ``processed_seq`` back and
        reclassify intervals).
        """
        obj = args.get("stream")
        if not isinstance(obj, dict):
            raise ServiceError("adopt-stream needs a 'stream' object")
        try:
            state = _stream_from_obj(obj, self.template, adaptive=self.adaptive)
        except CheckpointError as exc:
            raise ServiceError(f"bad stream record: {exc}") from exc
        live = self.registry.get_or_none(state.stream_id)
        if live is not None and live.processed_seq >= state.processed_seq:
            return Reply(ok=True, data=self._fleet_fields({
                "stream_id": state.stream_id,
                "adopted": False,
                "reason": "live-state-newer",
                "resume_from": live.last_seq + 1,
            }))
        state.queue = BoundedStreamQueue(self.config.queue_capacity,
                                         self.config.policy)
        if state.tracker is not None:
            self._watch_refits(state, state.tracker)
        self.registry.adopt(state)
        self.log.info("stream-adopted", stream_id=state.stream_id,
                      processed_seq=state.processed_seq)
        return Reply(ok=True, data=self._fleet_fields({
            "stream_id": state.stream_id,
            "adopted": True,
            "resume_from": state.last_seq + 1,
        }))

    def _on_hello(self, msg: Hello) -> Reply:
        denial = self._check_owner(msg.stream_id)
        if denial is not None:
            return denial
        state = self.registry.get_or_none(msg.stream_id)
        resumed = False
        if state is not None:
            if not msg.resume:
                raise StreamConflictError(
                    f"stream {msg.stream_id!r} is already registered")
            # Reconnect-and-resume: re-attach to the live (or restored)
            # stream instead of rejecting the duplicate hello.
            if state.queue is None:
                state.queue = BoundedStreamQueue(self.config.queue_capacity,
                                                 self.config.policy)
            self.registry.touch(msg.stream_id)
            resumed = True
        else:
            tracker = None
            if self.template is not None:
                tracker = self.template.spawn(zero_start=True,
                                              adaptive=self.adaptive)
            state = self.registry.register(msg.stream_id, app=msg.app,
                                           rank=msg.rank, tracker=tracker)
            state.queue = BoundedStreamQueue(self.config.queue_capacity,
                                             self.config.policy)
            if tracker is not None:
                self._watch_refits(state, tracker)
        return Reply(ok=True, data=self._fleet_fields({
            "stream_id": msg.stream_id,
            "policy": self.config.policy,
            "queue_capacity": self.config.queue_capacity,
            "classifying": state.tracker is not None,
            "refitting": (state.tracker is not None
                          and self.adaptive is not None),
            "model_version": (state.tracker.model_version
                              if state.tracker is not None else None),
            "resumed": resumed,
            # The next sequence number the server wants: everything at or
            # below ``last_seq`` is admitted (or, after a restart,
            # classified-and-checkpointed) — the publisher rewinds or
            # fast-forwards to exactly this point.
            "resume_from": state.last_seq + 1,
        }))

    def _on_snapshot(self, msg: SnapshotMsg) -> Reply:
        denial = self._check_owner(msg.stream_id)
        if denial is not None:
            return denial
        state = self.registry.get(msg.stream_id)
        # One lock trip covers touch, duplicate check, and sequence
        # accounting.  The duplicate check is against ``last_seq``
        # (admitted) rather than ``processed_seq`` (classified): a
        # pipelined resend can race the old torn connection's handler,
        # which may still drain buffered frames after the resume hello
        # answered — the first copy sits in the queue, not yet
        # classified.  Checkpoints anchor ``last_seq`` at
        # ``processed_seq``, so after a restart or adoption nothing
        # pending is mistaken for admitted.
        if not state.admit_sequence(msg.seq, self.registry.now()):
            # A replay raced an adoption (the publisher resumed from an
            # older anchor than this worker's state) or a torn
            # connection's late drain.  The interval is already held
            # here — classified, or queued for exactly-once
            # classification — ack it without enqueuing so a resend can
            # never classify the same interval twice.
            data: Dict[str, Any] = {"outcome": "duplicate", "seq": msg.seq,
                                    "trace": msg.trace_id}
            if state.tracker is not None:
                data["model_version"] = state.tracker.model_version
            return Reply(ok=True, data=data)
        # Server-side minting keeps untraced publishers traceable: every
        # admitted interval has a trace id, client-supplied or not.
        trace_id = msg.trace_id or new_trace_id()
        self.traces.begin(trace_id, msg.stream_id, msg.seq)
        # Only a stamp here: the classify thread times an admitted
        # snapshot's enqueue and dequeue from this and the queue's
        # admission stamp.
        put_start = time.perf_counter()
        error = "queue full"
        try:
            outcome = state.queue.put(
                (msg.seq, msg.gmon, trace_id, put_start),
                timeout=self.config.block_timeout)
        except ServiceError as exc:
            outcome, error = REJECTED, str(exc)
        if outcome == REJECTED:
            self.traces.add_span(trace_id, "enqueue",
                                 time.perf_counter() - put_start)
            self.metrics.note_rejected()
            with state.lock:
                state.rejected += 1
            # Every snapshot reply echoes its sequence number so a
            # pipelined publisher can line acks up with sends.
            return Reply(ok=False, error=error,
                         data={"outcome": REJECTED, "seq": msg.seq,
                               "trace": trace_id,
                               "code": BackpressureError.code})
        self.metrics.note_ingested()
        with state.lock:
            state.enqueued += 1
        if outcome == DROPPED_OLDEST:
            self.metrics.note_dropped_oldest()
            with state.lock:
                state.dropped_oldest += 1
        self._schedule(state)
        data: Dict[str, Any] = {"outcome": outcome, "seq": msg.seq,
                                "trace": trace_id}
        if state.tracker is not None:
            # The stream's current model version rides on every snapshot
            # reply — versions only increase, so a publisher watching the
            # sequence sees each hot swap as a monotone step.
            data["model_version"] = state.tracker.model_version
        return Reply(ok=True, data=data)

    def _on_heartbeat(self, msg: HeartbeatMsg) -> Reply:
        denial = self._check_owner(msg.stream_id)
        if denial is not None:
            return denial
        state = self.registry.get(msg.stream_id)
        self.registry.touch(msg.stream_id)
        for record in msg.records:
            self.transport(record)
        self.metrics.note_heartbeats(len(msg.records))
        with state.lock:
            state.heartbeats += len(msg.records)
        return Reply(ok=True, data={"accepted": len(msg.records)})

    def _on_control(self, msg: Control) -> Reply:
        if msg.command == "ping":
            return Reply(ok=True, data=self._fleet_fields({"version": 1}))
        if msg.command == "stats":
            data = self.stats()
            if (msg.args or {}).get("latency_window"):
                # Raw window on request: lets a fleet router compute
                # *exact* merged percentiles instead of approximating
                # from per-worker quantiles.
                data["latency_window"] = self.metrics.classify_latency.values()
            return Reply(ok=True, data=data)
        if msg.command == "ring-update":
            return self._install_ring(msg.args or {})
        if msg.command == "adopt-stream":
            return self._adopt_stream(msg.args or {})
        if msg.command == "fleet-status":
            return Reply(ok=True, data=self.fleet_status())
        if msg.command == "metrics":
            return Reply(ok=True, data={
                "text": render_prometheus(self.stats()),
                "content_type": CONTENT_TYPE,
            })
        if msg.command == "trace":
            args = msg.args or {}
            wanted = args.get("trace_id")
            if wanted:
                row = self.traces.get(str(wanted))
                if row is None:
                    return Reply(ok=False,
                                 error=f"unknown trace id {wanted!r}")
                return Reply(ok=True, data={"traces": [row]})
            limit = int(args.get("limit", 50))
            rows = self.traces.rows(
                stream_id=args.get("stream_id"),
                limit=limit,
                completed_only=bool(args.get("completed_only", False)))
            return Reply(ok=True, data={"traces": rows,
                                        "stats": self.traces.stats()})
        if msg.command == "fleet_analytics":
            args = msg.args or {}
            if args.get("signatures_only"):
                # A fleet router merges raw signatures from every worker
                # and clusters once, fleet-wide; no local pass needed.
                return Reply(ok=True, data=self._fleet_fields({
                    "signatures": [s.to_obj()
                                   for s in self.stream_signatures()]}))
            kwargs: Dict[str, Any] = {}
            if "kmax" in args:
                kwargs["kmax"] = int(args["kmax"])
            if "drift_window" in args:
                kwargs["drift_window"] = int(args["drift_window"])
            return Reply(ok=True, data=self.fleet_analytics_report(**kwargs))
        if msg.command == "shutdown":
            # The connection handler triggers the actual stop *after*
            # flushing this reply, so the client always sees it.
            return Reply(ok=True, data={"stopping": True})
        return Reply(ok=False, error=f"unknown control command {msg.command!r}")

    def _on_bye(self, msg: Bye) -> Reply:
        denial = self._check_owner(msg.stream_id)
        if denial is not None:
            return denial
        state = self.registry.get(msg.stream_id)
        drained = self._drain(state, timeout=self.config.block_timeout)
        self.registry.close(msg.stream_id)
        data: Dict[str, Any] = {
            "drained": drained,
            "processed": state.processed,
            "novel": state.novel,
            "phase_sequence": state.phase_sequence(),
        }
        if state.tracker is not None:
            data["model_version"] = state.tracker.model_version
            # Which model classified each interval, parallel to
            # phase_sequence — the client-side record of every hot swap.
            data["model_versions"] = state.tracker.version_sequence()
            data["refits"] = [e.to_obj()
                              for e in state.tracker.refit_events]
        return Reply(ok=True, data=self._fleet_fields(data))

    def _drain(self, state: StreamState, timeout: float) -> bool:
        """Wait until every accepted snapshot of ``state`` is classified."""
        deadline = time.monotonic() + timeout
        while state.lag > 0:
            if time.monotonic() >= deadline or not self._running.is_set():
                return False
            time.sleep(0.002)
        return True

    # ------------------------------------------------------------------
    # live refits
    # ------------------------------------------------------------------
    def _watch_refits(self, state: StreamState,
                      tracker: OnlinePhaseTracker) -> None:
        """Observe a stream tracker's hot swaps (metrics, log, artifact).

        The listener runs under the tracker's lock, so it only captures
        cheap state: the trained-state dict is queued and the artifact
        write happens on the housekeeping thread.
        """
        def on_refit(trk: OnlinePhaseTracker, event) -> None:
            self.metrics.note_refit()
            with state.lock:
                state.refits += 1
            self.log.info(
                "model-refit", stream_id=state.stream_id,
                version=event.version, old_k=event.old_k, new_k=event.new_k,
                interval_index=event.interval_index, reason=event.reason)
            if self.checkpoints is not None:
                self._model_saves.append(
                    (state.stream_id, event.version, trk.trained_state()))

        tracker.add_refit_listener(on_refit)

    def _flush_model_saves(self) -> None:
        """Persist queued refit models as versioned ``.ipm`` artifacts."""
        if self.checkpoints is None:
            self._model_saves.clear()
            return
        while self._model_saves:
            stream_id, version, model_state = self._model_saves.popleft()
            payload = {
                "kind": "phase-model",
                "model": model_state,
                "meta": {"stream_id": stream_id, "model_version": version,
                         "source": "live-refit"},
            }
            path = (self.checkpoints.directory
                    / layout.versioned_model_name(stream_id, version))
            try:
                atomic_write_bytes(
                    path, pack_artifact(payload, MODEL_MAGIC, MODEL_SCHEMA))
            except OSError as exc:
                self.log.warning("model-artifact-failed", path=str(path),
                                 error=str(exc))

    # ------------------------------------------------------------------
    # classify thread + scheduler
    # ------------------------------------------------------------------
    def _schedule(self, state: StreamState) -> None:
        """Put a stream on the ready queue unless it is already there
        or being classified."""
        with self._sched_lock:
            if not state.scheduled:
                state.scheduled = True
                self._ready.put(state)

    def _classify_loop(self) -> None:
        while True:
            try:
                state = self._ready.get(timeout=0.5)
            except Empty:
                if not self._running.is_set():
                    return
                continue
            if state is None:
                return
            states = [state]
            # Cross-stream coalescing: take more ready streams so this
            # tick classifies all of them in one vectorized call.
            while len(states) < self.config.coalesce_streams:
                try:
                    extra = self._ready.get_nowait()
                except Empty:
                    break
                if extra is None:
                    # Shutdown: finish this tick, then stop.
                    self._ready.put(None)
                    break
                states.append(extra)
            work = [(st, st.queue.pop_batch(self.config.batch_size))
                    for st in states]
            work = [(st, batch) for st, batch in work if batch]
            if work:
                try:
                    self._classify_many(work)
                except Exception:
                    # The daemon's only classify thread must outlive
                    # any one tick, or every stream stops classifying.
                    self._fail_tick(work)
            with self._sched_lock:
                for st in states:
                    if len(st.queue):
                        self._ready.put(st)
                    else:
                        st.scheduled = False

    def _fail_tick(self, work: List[Tuple[StreamState, List[Entry]]]) -> None:
        """Account a classify tick that raised, from its ``except`` block.

        Every interval the tick had not committed counts as an ingest
        error, like a snapshot whose differencing failed: it is consumed
        (so ``bye`` drains and checkpoints move past it) but never
        classified, and its trace stays incomplete.
        """
        self.metrics.note_classify_failure()
        lost: Dict[str, int] = {}
        for state, batch in work:
            (last_seq, *_rest), _admitted = batch[-1]
            with state.lock:
                # A stream committed before the exception has already
                # advanced its resume anchor past this batch.
                if state.processed_seq >= last_seq:
                    continue
                state.processed += len(batch)
                state.processed_seq = last_seq
            lost[state.stream_id] = len(batch)
        self.metrics.note_ingest_error(sum(lost.values()))
        self.log.error("classify-tick-failed",
                       streams=[state.stream_id for state, _batch in work],
                       lost_intervals=lost,
                       traceback=traceback.format_exc())

    def _classify_batch(self, state: StreamState, batch: List[Entry]) -> None:
        """Classify one drained batch of a single stream's snapshots."""
        with state.work_lock:
            self._classify_work_locked([(state, batch)])

    def _classify_many(self, work: List[Tuple[StreamState, List[Entry]]]) -> None:
        """Classify drained batches of one or more streams in one tick.

        The single-stream case routes through :meth:`_classify_batch` so
        per-instance wrappers (tests, instrumentation) keep intercepting
        the classic path.  Holding several ``work_lock``\\ s at once is
        deadlock-free: only the classify thread takes more than one, and
        every other ``work_lock`` taker (the checkpointer) holds at most
        one at a time, so no cycle can form.
        """
        if len(work) == 1:
            self._classify_batch(work[0][0], work[0][1])
            return
        acquired: List[StreamState] = []
        try:
            for state, _batch in work:
                state.work_lock.acquire()
                acquired.append(state)
            self._classify_work_locked(work)
        finally:
            for state in reversed(acquired):
                state.work_lock.release()

    def _classify_work_locked(
        self, work: List[Tuple[StreamState, List[Entry]]],
    ) -> None:
        """Difference + classify + commit for one coalesced classify tick.

        Differencing stays per-snapshot (each delta depends on its
        predecessor and may fail independently), but classification of
        *every* stream's profiles happens in one cross-stream vectorized
        call — :func:`~repro.core.online.classify_across` pools streams
        whose trackers share an identical frozen model into a single
        NumPy distance computation.  Each batch runs under its stream's
        ``work_lock`` so a concurrent checkpoint never captures the
        differencer advanced past the recorded history.

        One :class:`StageClock` times the tick, and its totals feed
        every sink once: the stage ledger, one self-heartbeat beat per
        stage, and each interval's trace spans (its own ``enqueue`` and
        ``dequeue`` waits, and an equal share of the tick's laps).
        """
        clock = StageClock()
        n_items = sum(len(batch) for _state, batch in work)
        preps: List[Tuple[StreamState, List[Entry], List[Entry], List[Any]]] = []
        for state, batch in work:
            # Universe-projected delta vectors (see delta_vector) — the
            # classify pass consumes them without re-vectorizing.  Each
            # snapshot is differenced straight from its bytes.
            profiles: List[Any] = []
            # The entries differencing accepted: only these count as
            # classified work and reach the archive.
            kept = batch
            if state.tracker is not None:
                kept = []
                for entry in batch:
                    try:
                        profile = state.tracker.delta_vector(entry[0][1])
                    except ReproError:
                        # A single inconsistent snapshot (e.g. mismatched
                        # sample period) must not fail the whole tick;
                        # it leaves the stream's differencer as it was,
                        # and stays out of the archive, whose replay
                        # would stop at it.
                        self.metrics.note_ingest_error()
                        continue
                    kept.append(entry)
                    if profile is not None:
                        profiles.append(profile)
            preps.append((state, batch, kept, profiles))
        clock.lap("difference", n_items)
        groups = [(state.tracker, profiles)
                  for state, _batch, _kept, profiles in preps
                  if state.tracker is not None]
        tracked_groups = classify_across(groups)
        clock.lap("classify", sum(len(profiles) for _trk, profiles in groups))
        total_counted = sum(len(kept) for _s, _b, kept, _p in preps)
        per_item = ((clock.seconds["difference"] + clock.seconds["classify"])
                    / max(1, total_counted))
        tracked_iter = iter(tracked_groups)
        for state, batch, kept, _profiles in preps:
            tracked: List[Any] = (list(next(tracked_iter))
                                  if state.tracker is not None else [])
            counted = len(kept)
            novel_count = sum(1 for t in tracked if t.is_novel)
            # Primed first snapshots and tracker-less streams still
            # count as processed work, exactly as before batching.
            self.metrics.note_processed_batch(count=counted,
                                              novel=novel_count,
                                              latency=per_item)
            with state.lock:
                state.processed += len(batch)
                state.novel += novel_count
                # The resume anchor: the highest sequence number this
                # stream has actually consumed (checkpoints persist
                # exactly this).
                state.processed_seq = max(state.processed_seq,
                                          max(entry[0] for entry, _t in batch))
            clock.lap("aggregate", len(batch))
            if self.store is not None:
                clock.lap("archive", self._archive_batch(state, kept))
        # Every trace gets an equal share of each lap, so the spans of a
        # tick's traces sum to exactly what the other sinks receive.
        shares = [(stage, seconds / max(1, n_items))
                  for stage, seconds in clock.seconds.items()]
        enqueued = dequeued = 0.0
        closes: List[Tuple[str, List[Tuple[str, float]]]] = []
        origins: List[Tuple[StreamState, int]] = []
        for state, batch, _kept, _profiles in preps:
            for (seq, _gmon, trace_id, put_start), admitted in batch:
                enqueue = admitted - put_start
                dequeue = clock.start - admitted
                enqueued += enqueue
                dequeued += dequeue
                closes.append((trace_id, [("enqueue", enqueue),
                                          ("dequeue", dequeue), *shares]))
                origins.append((state, seq))
        clock.charge("enqueue", enqueued, n_items)
        clock.charge("dequeue", dequeued, n_items)
        self.metrics.note_stages(clock.seconds, clock.items)
        if self.selfekg is not None:
            self.selfekg.record(clock.seconds)
        for (state, seq), record in zip(origins,
                                        self.traces.finish_batch(closes)):
            if (record is not None
                    and record.total_seconds
                    >= self.config.slow_op_threshold):
                self.log.warning(
                    "slow-op", trace_id=record.trace_id,
                    stream_id=state.stream_id, seq=seq,
                    total_seconds=round(record.total_seconds, 6),
                    spans={k: round(v, 6)
                           for k, v in record.spans.items()})

    def _archive_batch(self, state: StreamState, batch: List[Entry]) -> int:
        """Append the raw gmon bytes of one batch's differenced entries
        to the archive; return how many intervals were appended.

        Runs under the stream's ``work_lock`` after commit, so per-stream
        interval order is preserved.  A sequence number at or below the
        store's last archived index (a resume overlap after a restart)
        is skipped — the bytes are already durable.  Every entry is a
        :class:`GmonBlob`, archived as its raw bytes under its header's
        timestamp, with no ``GmonData`` built.  Archive failures (a
        corrupt blob among them) are logged, never fatal: the store is
        an observability surface, not the classification path.
        """
        store = self.store
        if store is None:
            return 0
        archived = 0
        for (seq, gmon, _trace_id, _put), _admitted in batch:
            try:
                store.append(state.stream_id, seq, gmon)
                archived += 1
            except CollectorError:
                continue  # duplicate/rewound seq: already archived
            except (ReproError, OSError) as exc:
                self.log.warning("store-append-failed",
                                 stream_id=state.stream_id, seq=seq,
                                 error=str(exc))
        return archived

    # ------------------------------------------------------------------
    # housekeeping
    # ------------------------------------------------------------------
    def _housekeeping_loop(self) -> None:
        while self._running.is_set():
            if self._stopped.wait(self.config.housekeeping_interval):
                return
            if not self._running.is_set():
                return
            expired = self.registry.expire_idle()
            if expired:
                self.log.info("streams-expired", count=len(expired))
            if self.selfekg is not None:
                # Flush completed self-heartbeat intervals into the LDMS
                # transport before the sampler pull below picks them up.
                self.selfekg.tick()
            self.transport.sample()
            self._flush_model_saves()
            if self.checkpoints is not None and self.checkpoints.due():
                try:
                    self.checkpoint_now()
                    self.metrics.note_checkpoint()
                except (CheckpointError, OSError) as exc:
                    # A failed write must not kill housekeeping; the next
                    # cadence retries and the previous checkpoint file is
                    # still intact (writes are atomic).
                    self.log.warning("checkpoint-failed", error=str(exc))

    # ------------------------------------------------------------------
    # cross-stream analytics
    # ------------------------------------------------------------------
    def _retire_signature(self, state: StreamState) -> None:
        """Registry close hook: keep a finished stream's final signature."""
        if state.tracker is None or not state.processed:
            return
        from repro.fleet.analytics import PhaseSignature

        signature = PhaseSignature.from_tracker(
            state.stream_id, state.tracker,
            worker_id=self.config.worker_id)
        with self._retired_lock:
            self._retired_signatures.pop(state.stream_id, None)
            self._retired_signatures[state.stream_id] = signature
            while (len(self._retired_signatures)
                   > self.config.finished_capacity):
                self._retired_signatures.popitem(last=False)

    def stream_signatures(self) -> List[Any]:
        """Phase signatures of every live stream with a tracker, plus
        the retained final signatures of recently finished streams."""
        # Imported lazily: repro.fleet pulls the service layer in, so a
        # top-level import here would be circular.
        from repro.fleet.analytics import PhaseSignature

        out = []
        live = set()
        for state in self.registry.active():
            if state.tracker is None:
                continue
            live.add(state.stream_id)
            out.append(PhaseSignature.from_tracker(
                state.stream_id, state.tracker,
                worker_id=self.config.worker_id))
        with self._retired_lock:
            retired = [s for sid, s in self._retired_signatures.items()
                       if sid not in live]
        out.extend(retired)
        return out

    def fleet_analytics_report(self, *, kmax: Optional[int] = None,
                               drift_window: Optional[int] = None,
                               include_signatures: bool = True,
                               ) -> Dict[str, Any]:
        """One cross-stream analytics pass over this daemon's streams.

        Cohort ids are stable across calls (one matcher per daemon
        lifetime); the pass's summary is cached for stats()/Prometheus.
        """
        from repro.fleet.analytics import analyze_signatures

        signatures = self.stream_signatures()
        kwargs: Dict[str, Any] = {"include_signatures": include_signatures}
        if kmax is not None:
            kwargs["kmax"] = kmax
        if drift_window is not None:
            kwargs["drift_window"] = drift_window
        with self._analytics_lock:
            report = analyze_signatures(signatures,
                                        matcher=self._analytics_matcher,
                                        **kwargs)
            self._analytics_summary = {
                "streams": report["n_streams"],
                "cohorts": report["n_cohorts"],
                "anomalies": len(report["anomalies"]),
                "drift_events": len(report["drift_events"]),
                "cohort_sizes": {str(c["cohort"]): c["size"]
                                 for c in report["cohorts"]},
            }
        return self._fleet_fields(report)

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Service self-metrics plus live queue depths."""
        depths = {s.stream_id: len(s.queue) for s in self.registry.active()
                  if s.queue is not None}
        snap = self.metrics.snapshot()
        snap["queue_depths"] = depths
        snap["queued_total"] = sum(depths.values())
        snap["streams"] = len(self.registry)
        snap["policy"] = self.config.policy
        snap["ldms_delivered"] = self.transport.delivered
        snap["restored_streams"] = len(self.restored_streams)
        snap["finished_evicted"] = self.registry.finished_evicted
        snap["traces"] = self.traces.stats()
        self._fleet_fields(snap)
        if self.selfekg is not None:
            snap["self_heartbeats"] = {"events": self.selfekg.events}
        if self.metrics_http is not None:
            snap["metrics_url"] = self.metrics_http.url
        if self.dashboard_http is not None:
            snap["dashboard_url"] = self.dashboard_http.url
        with self._analytics_lock:
            if self._analytics_summary is not None:
                snap["analytics"] = dict(self._analytics_summary)
        if self.checkpoints is not None:
            snap["checkpoint"] = {
                "path": str(self.checkpoints.path),
                "interval": self.checkpoints.interval,
                "writes": self.checkpoints.writes,
                "quarantined": len(self.checkpoints.quarantined),
            }
        if self.store is not None:
            snap["store"] = self.store.describe()
        return snap

    def fleet_status(self) -> Dict[str, Any]:
        """Registry fleet view plus the service metrics snapshot."""
        status = self.registry.fleet_status()
        status["service"] = self.stats()
        return status


def serve(
    tracker_template: Optional[OnlinePhaseTracker],
    config: ServerConfig = ServerConfig(),
    faults: Optional[FaultInjector] = None,
) -> PhaseMonitorServer:
    """Start a daemon and return it (caller owns ``stop``/``wait``)."""
    server = PhaseMonitorServer(tracker_template, config, faults=faults)
    server.start()
    return server
