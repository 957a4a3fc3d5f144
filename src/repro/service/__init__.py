"""``incprofd``: the fleet-scale phase-monitoring service.

Offline discovery trains an :class:`~repro.core.online.OnlinePhaseTracker`;
this package serves it: a long-running daemon ingests gmon snapshot and
heartbeat streams from many concurrent publishers, classifies every
interval online, and exposes aggregated fleet state (phase occupancy,
novelty alerts, per-stream lag) plus its own self-metrics.

See ``docs/SERVICE.md`` for the wire protocol and deployment sketch.
"""

from repro.service.checkpoint import (
    CheckpointManager,
    restore_registry,
    snapshot_registry,
)
from repro.service.client import (
    NO_RETRY,
    LoadResult,
    PhaseClient,
    PublishReport,
    RetryPolicy,
    ScenarioLoadGenerator,
    SyntheticLoadGenerator,
    publish_samples,
    publish_session,
)
from repro.service.dashboard import DashboardServer, render_dashboard_html
from repro.service.exposition import (
    CONTENT_TYPE,
    MetricsHTTPServer,
    parse_prometheus,
    render_prometheus,
)
from repro.service.faults import (
    FaultAction,
    FaultInjector,
    FlakyEndpoint,
)
from repro.service.metrics import STAGES, LatencyWindow, ServiceMetrics
from repro.service.protocol import (
    BINARY_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOLS,
    Bye,
    Control,
    Endpoint,
    Hello,
    HeartbeatMsg,
    Reply,
    SnapshotMsg,
    decode_message,
    encode_message,
    negotiate,
    read_message,
    write_message,
)
from repro.service.registry import StreamRegistry, StreamState
from repro.service.selfekg import SelfInstrument
from repro.service.tracing import TraceRecord, TraceStore, new_trace_id
from repro.service.server import (
    BACKPRESSURE_POLICIES,
    BoundedStreamQueue,
    PhaseMonitorServer,
    ServerConfig,
    serve,
)

__all__ = [
    "BINARY_PROTOCOL_VERSION",
    "PROTOCOL_VERSION",
    "SUPPORTED_PROTOCOLS",
    "BACKPRESSURE_POLICIES",
    "CONTENT_TYPE",
    "DashboardServer",
    "NO_RETRY",
    "STAGES",
    "BoundedStreamQueue",
    "Bye",
    "CheckpointManager",
    "Control",
    "Endpoint",
    "FaultAction",
    "FaultInjector",
    "FlakyEndpoint",
    "Hello",
    "HeartbeatMsg",
    "LatencyWindow",
    "LoadResult",
    "MetricsHTTPServer",
    "PhaseClient",
    "PhaseMonitorServer",
    "PublishReport",
    "Reply",
    "RetryPolicy",
    "SelfInstrument",
    "ServerConfig",
    "ServiceMetrics",
    "SnapshotMsg",
    "StreamRegistry",
    "StreamState",
    "ScenarioLoadGenerator",
    "SyntheticLoadGenerator",
    "TraceRecord",
    "TraceStore",
    "decode_message",
    "encode_message",
    "negotiate",
    "new_trace_id",
    "parse_prometheus",
    "publish_samples",
    "publish_session",
    "read_message",
    "render_dashboard_html",
    "render_prometheus",
    "restore_registry",
    "serve",
    "snapshot_registry",
    "write_message",
]
