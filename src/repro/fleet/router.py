"""The fleet front end: one endpoint, many workers.

The router speaks the existing ``incprofd`` wire protocol, so every
publisher, ``incprof submit``, and dashboard works against a fleet
unchanged.  Per-stream requests (``hello``/``snapshot``/``heartbeat``/
``bye``) are proxied: a consistent-hash lookup names the owning worker,
the router forwards the request over a pooled per-worker connection
and relays the worker's reply, so publishers only ever know the
router's address.  Fleet-wide requests (``stats``/``fleet-status``/
``metrics``/``trace``) fan out across the live workers and merge the
replies.

When a forward fails, the router answers ``worker-unavailable`` (the
protocol's "not processed, resend later") and reports the worker to the
supervisor, which restarts or evicts it and rebalances the ring — the
publisher's retry/resume machinery does the rest.

Percentile merging is exact, not approximate: the stats fan-out asks
each worker for its raw latency window and computes percentiles over
the union (see :func:`repro.service.metrics.aggregate_worker_stats`).
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core.cohorts import CohortMatcher
from repro.fleet.analytics import PhaseSignature, analyze_signatures
from repro.fleet.supervisor import WorkerSupervisor
from repro.service.client import PhaseClient, RetryPolicy
from repro.service.exposition import CONTENT_TYPE, render_prometheus
from repro.service.metrics import aggregate_worker_stats
from repro.service.protocol import (
    Bye,
    Control,
    Endpoint,
    Hello,
    HeartbeatMsg,
    Message,
    Reply,
    binary_envelope,
    decode_payload,
    enable_nodelay,
    read_frame,
    worker_unavailable_reply,
    write_message,
)
from repro.util.errors import ProtocolError, ReproError, ServiceError
from repro.util.jsonlog import JsonLogger

if TYPE_CHECKING:  # imported in start() only when a dashboard port is set
    from repro.service.webserver import DashboardServer

#: Forwarding links fail fast; the publisher's own retry machinery (not
#: a blocked router thread) absorbs worker downtime.
_FORWARD_RETRY = RetryPolicy(max_attempts=2, base_delay=0.02, max_delay=0.1,
                             request_timeout=30.0, connect_timeout=2.0)


@dataclass(frozen=True)
class RouterConfig:
    """Tunables of one fleet router."""

    endpoint: Endpoint = field(default_factory=Endpoint.tcp)
    log_level: str = "info"
    #: Serve the merged fleet-analytics dashboard on this port
    #: (None = off; 0 = ephemeral).  See ``docs/ANALYTICS.md``.
    dashboard_port: Optional[int] = None
    dashboard_host: str = "127.0.0.1"


class FleetRouter:
    """Routes the incprofd wire protocol across a supervised fleet."""

    def __init__(self, supervisor: WorkerSupervisor,
                 config: RouterConfig = RouterConfig(),
                 logger: Optional[JsonLogger] = None) -> None:
        self.supervisor = supervisor
        self.config = config
        self.log = (logger if logger is not None
                    else JsonLogger("fleet-router", level=config.log_level))
        self._links: Dict[str, PhaseClient] = {}
        self._links_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._endpoint: Optional[Endpoint] = None
        self._running = threading.Event()
        self._stopped = threading.Event()
        self._threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        self._conns_lock = threading.Lock()
        self.routed = 0
        self.forward_failures = 0
        self.dashboard_http: Optional[DashboardServer] = None
        #: One matcher per router lifetime keeps cohort ids stable
        #: across successive fleet_analytics passes.
        self._analytics_matcher = CohortMatcher()
        self._analytics_lock = threading.Lock()
        self._analytics_summary: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def endpoint(self) -> Endpoint:
        if self._endpoint is None:
            raise ServiceError("router is not started")
        return self._endpoint

    @property
    def ring(self):
        return self.supervisor.ring

    def start(self) -> Endpoint:
        if self._running.is_set():
            raise ServiceError("router already started")
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
        listener.settimeout(0.2)
        self._listener = listener
        self._running.set()
        self._stopped.clear()
        self._spawn(self._accept_loop, "fleet-router-accept")
        if cfg.dashboard_port is not None:
            from repro.service.webserver import DashboardServer

            self.dashboard_http = DashboardServer(
                self.fleet_analytics_report,
                host=cfg.dashboard_host, port=cfg.dashboard_port,
                title="incprofd fleet analytics")
            self.dashboard_http.start()
        self.log.info("router-started", endpoint=str(self._endpoint),
                      workers=len(self.ring))
        return self._endpoint

    def _spawn(self, target, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def stop(self) -> None:
        if not self._running.is_set():
            return
        self._running.clear()
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
        current = threading.current_thread()
        for thread in self._threads:
            if thread is not current:
                thread.join(timeout=5.0)
        with self._links_lock:
            for link in self._links.values():
                link.close()
            self._links.clear()
        self.log.info("router-stopped", routed=self.routed,
                      forward_failures=self.forward_failures)
        self._stopped.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._stopped.wait(timeout)

    def __enter__(self) -> "FleetRouter":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # socket front end (same framing discipline as the worker daemon)
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
            self._spawn(lambda c=conn: self._handle_conn(c),
                        "fleet-router-conn")

    def _handle_conn(self, conn: socket.socket) -> None:
        enable_nodelay(conn)
        fh = conn.makefile("rwb")
        try:
            while self._running.is_set():
                try:
                    payload = read_frame(fh)
                except ProtocolError:
                    break
                if payload is None:
                    break
                try:
                    envelope = binary_envelope(payload)
                except ProtocolError as exc:
                    write_message(fh, Reply(ok=False, error=str(exc)))
                    continue
                if envelope is not None:
                    # A binary snapshot: the peeked header names the
                    # stream, so it routes without decoding the gmon
                    # payload and proxies to the owner byte for byte.
                    reply = self._dispatch_raw(envelope.stream_id, payload)
                    write_message(fh, reply)
                    continue
                try:
                    msg = decode_payload(payload)
                except ProtocolError as exc:
                    write_message(fh, Reply(ok=False, error=str(exc)))
                    continue
                reply = self._dispatch(msg)
                write_message(fh, reply)
                if (reply.ok and isinstance(msg, Control)
                        and msg.command == "shutdown"):
                    threading.Thread(target=self._shutdown_fleet,
                                     name="fleet-router-stopper",
                                     daemon=True).start()
                    break
        except (OSError, ValueError):
            pass
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

    def _shutdown_fleet(self) -> None:
        self.supervisor.stop()
        self.stop()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, msg: Message) -> Reply:
        try:
            if isinstance(msg, (Hello, HeartbeatMsg, Bye)):
                return self._forward_to_owner(msg.stream_id, msg)
            if isinstance(msg, Control):
                return self._on_control(msg)
        except ServiceError as exc:
            return Reply(ok=False, error=str(exc), data={"code": exc.code})
        return Reply(ok=False, error=f"unhandled message {type(msg).__name__}")

    def _dispatch_raw(self, stream_id: str, payload: bytes) -> Reply:
        """Dispatch an already-encoded binary frame by its peeked header."""
        try:
            return self._forward_to_owner(stream_id, None, payload=payload)
        except ServiceError as exc:
            return Reply(ok=False, error=str(exc), data={"code": exc.code})

    def _forward_to_owner(self, stream_id: str, msg: Optional[Message],
                          payload: Optional[bytes] = None) -> Reply:
        """Forward one request to the stream's owner over a pooled link.

        A raw ``payload`` (a binary snapshot) is relayed verbatim with no
        transcoding; JSON messages go through the normal encoder.
        """
        owner = self.ring.lookup_or_none(stream_id)
        if owner is None:
            return worker_unavailable_reply("", "ring has no workers")
        try:
            link = self._link(owner)
            if payload is not None:
                reply = link.request_raw(payload, check=False)
            else:
                reply = link.request(msg, check=False)
        except (ReproError, OSError) as exc:
            # The owning worker is gone.  Tell the supervisor (restart
            # or evict + rebalance happens off this thread) and give the
            # publisher the protocol's "not processed, resend" answer.
            self.forward_failures += 1
            self._drop_link(owner)
            self._report_failure(owner)
            return worker_unavailable_reply(owner, str(exc))
        self.routed += 1
        return reply

    def _report_failure(self, worker_id: str) -> None:
        threading.Thread(
            target=lambda: self.supervisor.handle_failure(worker_id),
            name=f"fleet-router-report-{worker_id}", daemon=True).start()

    # ------------------------------------------------------------------
    # worker links
    # ------------------------------------------------------------------
    def _link(self, worker_id: str) -> PhaseClient:
        endpoint = self.supervisor.endpoint_of(worker_id)
        with self._links_lock:
            link = self._links.get(worker_id)
            if link is not None and link.endpoint != endpoint:
                # The worker restarted on a new address; stale link.
                link.close()
                link = None
            if link is None:
                link = PhaseClient(endpoint, retry=_FORWARD_RETRY,
                                   check=False, follow_routing=False)
                self._links[worker_id] = link
            return link

    def _drop_link(self, worker_id: str) -> None:
        with self._links_lock:
            link = self._links.pop(worker_id, None)
        if link is not None:
            link.close()

    # ------------------------------------------------------------------
    # fleet-wide controls (fan out + merge)
    # ------------------------------------------------------------------
    def _fanout(self, command: str, **args) -> Dict[str, Reply]:
        """One control request to every live worker; missing = dead."""
        replies: Dict[str, Reply] = {}
        for handle in self.supervisor.live_workers():
            try:
                replies[handle.worker_id] = self._link(
                    handle.worker_id).control(command, **args)
            except (ReproError, OSError):
                self._drop_link(handle.worker_id)
                self._report_failure(handle.worker_id)
        return replies

    def merged_stats(self) -> Dict[str, Any]:
        """Fleet-wide stats: counters summed, latency merged *exactly*."""
        replies = self._fanout("stats", latency_window=True)
        merged = aggregate_worker_stats(
            {wid: r.data for wid, r in replies.items() if r.ok})
        merged["role"] = "router"
        merged["ring_generation"] = self.ring.generation
        merged["routed"] = self.routed
        merged["forward_failures"] = self.forward_failures
        supervisor = self.supervisor.status()
        merged["supervisor"] = supervisor
        merged["policy"] = self.supervisor.config.policy
        with self._analytics_lock:
            if self._analytics_summary is not None:
                merged["analytics"] = dict(self._analytics_summary)
        if self.dashboard_http is not None:
            merged["dashboard_url"] = self.dashboard_http.url
        return merged

    def merged_fleet_status(self) -> Dict[str, Any]:
        """The fleet-status view across every worker, stream rows tagged."""
        replies = self._fanout("fleet-status")
        streams: List[Dict[str, Any]] = []
        finished: List[Dict[str, Any]] = []
        occupancy: Dict[str, int] = {}
        registered = expired = lag = novel = 0
        for worker_id, reply in sorted(replies.items()):
            if not reply.ok:
                continue
            data = reply.data
            for row in data.get("streams", []):
                row = dict(row)
                row["worker_id"] = worker_id
                streams.append(row)
            for row in data.get("finished", []):
                row = dict(row)
                row["worker_id"] = worker_id
                finished.append(row)
            registered += int(data.get("registered_total", 0))
            expired += int(data.get("expired_total", 0))
            lag += int(data.get("total_lag", 0))
            novel += int(data.get("novel_total", 0))
            for phase, occ in data.get("phase_occupancy", {}).items():
                occupancy[phase] = (occupancy.get(phase, 0)
                                    + int(occ.get("intervals", 0)))
        total = sum(occupancy.values())
        return {
            "streams": sorted(streams, key=lambda r: r["stream_id"]),
            "n_streams": len(streams),
            "registered_total": registered,
            "expired_total": expired,
            "phase_occupancy": {
                phase: {"intervals": count,
                        "share": count / total if total else 0.0}
                for phase, count in sorted(occupancy.items())
            },
            "total_lag": lag,
            "novel_total": novel,
            "finished": finished,
            "service": self.merged_stats(),
            "workers": self.supervisor.status(),
        }

    def fleet_signatures(self) -> List[PhaseSignature]:
        """Every live stream's phase signature, fanned out fleet-wide."""
        signatures: List[PhaseSignature] = []
        for worker_id, reply in sorted(
                self._fanout("fleet_analytics", signatures_only=True).items()):
            if not reply.ok:
                continue
            for obj in reply.data.get("signatures", []):
                sig = PhaseSignature.from_obj(obj)
                if not sig.worker_id:
                    sig.worker_id = worker_id
                signatures.append(sig)
        return signatures

    def fleet_analytics_report(self, *, kmax: Optional[int] = None,
                               drift_window: Optional[int] = None,
                               include_signatures: bool = True,
                               ) -> Dict[str, Any]:
        """Merge worker signatures and cluster once, fleet-wide.

        Workers only extract signatures (``signatures_only``); the
        cohort structure is computed here so streams of one workload
        sharded across different workers still land in one cohort, with
        ids stable across calls via the router's matcher.
        """
        signatures = self.fleet_signatures()
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
        report["role"] = "router"
        report["ring_generation"] = self.ring.generation
        return report

    def _on_control(self, msg: Control) -> Reply:
        command = msg.command
        if command == "ping":
            return Reply(ok=True, data={
                "version": 1,
                "role": "router",
                "workers": len(self.ring),
                "ring_generation": self.ring.generation,
            })
        if command == "stats":
            return Reply(ok=True, data=self.merged_stats())
        if command == "fleet-status":
            return Reply(ok=True, data=self.merged_fleet_status())
        if command == "metrics":
            return Reply(ok=True, data={
                "text": render_prometheus(self.merged_stats()),
                "content_type": CONTENT_TYPE,
            })
        if command == "trace":
            replies = self._fanout("trace", **(msg.args or {}))
            rows: List[Dict[str, Any]] = []
            stats: Dict[str, Any] = {}
            any_ok = False
            for worker_id, reply in sorted(replies.items()):
                if not reply.ok:
                    continue
                any_ok = True
                rows.extend(reply.data.get("traces", []))
                for key, value in (reply.data.get("stats") or {}).items():
                    if isinstance(value, (int, float)):
                        stats[key] = stats.get(key, 0) + value
            if not any_ok:
                return Reply(ok=False, error="no worker answered the "
                                             "trace query")
            return Reply(ok=True, data={"traces": rows, "stats": stats})
        if command == "fleet_analytics":
            args = msg.args or {}
            kwargs: Dict[str, Any] = {}
            if "kmax" in args:
                kwargs["kmax"] = int(args["kmax"])
            if "drift_window" in args:
                kwargs["drift_window"] = int(args["drift_window"])
            if "include_signatures" in args:
                kwargs["include_signatures"] = bool(
                    args["include_signatures"])
            try:
                return Reply(ok=True,
                             data=self.fleet_analytics_report(**kwargs))
            except ReproError as exc:
                return Reply(ok=False, error=str(exc))
        if command == "shutdown":
            return Reply(ok=True, data={"stopping": True,
                                        "workers": len(self.ring)})
        if command in ("ring-update", "adopt-stream"):
            return Reply(ok=False,
                         error=f"{command!r} is a worker control; the "
                               "router owns the ring")
        return Reply(ok=False, error=f"unknown control command {command!r}")


def serve_fleet(supervisor: WorkerSupervisor,
                config: RouterConfig = RouterConfig()) -> FleetRouter:
    """Start a router over an already-started fleet; caller owns stop()."""
    router = FleetRouter(supervisor, config)
    router.start()
    return router
