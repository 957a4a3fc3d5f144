"""``incprofd``: the fleet-scale phase-monitoring service.

Offline discovery trains an :class:`~repro.core.online.OnlinePhaseTracker`;
this package serves it: a long-running daemon ingests gmon snapshot and
heartbeat streams from many concurrent publishers, classifies every
interval online, and exposes aggregated fleet state (phase occupancy,
novelty alerts, per-stream lag) plus its own self-metrics.

See ``docs/SERVICE.md`` for the wire protocol and deployment sketch.

Names resolve on first use (PEP 562): a publisher that imports
:class:`PhaseClient` loads no server code, and the daemon loads the HTTP
endpoints only when a port is set.
"""

from repro._lazy import lazy_attributes

__getattr__, __dir__, _names = lazy_attributes(__name__, {
    "checkpoint": ("CheckpointManager", "restore_registry", "snapshot_registry"),
    "client": ("NO_RETRY", "LoadResult", "PhaseClient", "PublishReport",
               "RetryPolicy", "ScenarioLoadGenerator", "SyntheticLoadGenerator",
               "publish_samples", "publish_session"),
    "dashboard": ("render_dashboard_html",),
    "exposition": ("CONTENT_TYPE", "parse_prometheus", "render_prometheus"),
    "faults": ("FaultAction", "FaultInjector", "FlakyEndpoint"),
    "metrics": ("STAGES", "LatencyWindow", "ServiceMetrics"),
    "protocol": ("BINARY_PROTOCOL_VERSION", "PROTOCOL_VERSION", "Bye",
                 "Control", "Endpoint", "Hello", "HeartbeatMsg", "Reply",
                 "SnapshotMsg", "decode_message", "encode_message",
                 "read_message", "write_message"),
    "registry": ("StreamRegistry", "StreamState"),
    "selfekg": ("SelfInstrument",),
    "server": ("BACKPRESSURE_POLICIES", "BoundedStreamQueue", "PhaseMonitorServer",
               "ServerConfig", "serve"),
    "tracing": ("TraceRecord", "TraceStore", "new_trace_id"),
    "webserver": ("DashboardServer", "MetricsHTTPServer"),
})

__all__ = sorted(_names)
