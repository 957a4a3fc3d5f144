"""The stable public surface of the IncProf reproduction.

Everything an application author needs lives here under one import:

    from repro import api

    session = api.Session(app, api.SessionConfig(ranks=1))
    analysis = api.analyze_snapshots(session.run().samples(rank=0))
    api.save_model(analysis, "app.ipmdl")

    tracker = api.load_model("app.ipmdl")          # later, elsewhere
    phases = tracker.classify_batch(new_samples)

Names exported from this module follow the deprecation policy in
``docs/API.md``: they are stable across minor versions, removals go
through a deprecation cycle, and anything *not* exported here (module
internals, helper functions reached by deep imports) may change without
notice.  Prefer ``repro.api`` over deep imports in application code.

The surface groups into five layers:

- **offline analysis** — :func:`analyze_snapshots` over a snapshot
  series; :class:`AnalysisConfig` / :class:`AnalysisResult`.
- **streaming analysis** — :class:`IncrementalAnalyzer` ingests the
  same cumulative snapshots one at a time, emitting live phase
  assignments and :class:`RefitEvent` model swaps; its ``finalize()``
  reproduces :func:`analyze_snapshots` exactly (see
  ``docs/STREAMING.md``).
- **collection** — :class:`Session` (simulated app runs) and the
  cumulative-profile snapshot format (:class:`GmonData`).
- **storage** — :class:`IntervalStore` (the unified append/scan/window/
  compact/gc/replay interface), its two backends :class:`LooseStore`
  (legacy loose gmon files) and :class:`SegmentStore` (tiered columnar
  segments with :class:`CompactionPolicy` retention), :func:`open_store`
  (backend auto-detection), and :class:`ReplayResult` (the time-travel
  replay outcome).  See ``docs/STORAGE.md``.
- **model artifacts** — :func:`save_model` / :func:`load_model`
  round-trip a trained phase model through one durable, checksummed
  file with bit-identical classification.
- **online monitoring** — :class:`OnlinePhaseTracker` in-process;
  :class:`PhaseClient` + :class:`RetryPolicy` against an ``incprofd``
  daemon (see ``docs/SERVICE.md``).
- **fleet analytics** — :class:`PhaseSignature` per-stream behaviour
  summaries, :func:`analyze_signatures` cohort/anomaly/drift reports,
  and :func:`analyze_fleet_dir` over a fleet run's per-worker archives
  (see ``docs/ANALYTICS.md``).
- **errors** — the :class:`ReproError` hierarchy; every exception this
  package raises deliberately derives from it.
"""

from __future__ import annotations

# -- offline analysis --------------------------------------------------
from repro.core import (
    AnalysisConfig,
    AnalysisResult,
    analyze_snapshots,
)

# -- streaming analysis ------------------------------------------------
from repro.core.incremental import (
    AdaptiveConfig,
    DriftConfig,
    IncrementalAnalyzer,
    IncrementalUpdate,
    RefitEvent,
)

# -- model artifacts ---------------------------------------------------
from repro.core.model_io import (
    MODEL_SCHEMA,
    dumps_model,
    load_model,
    loads_model,
    model_meta,
    save_model,
)

# -- online monitoring -------------------------------------------------
from repro.core.online import NOVEL, OnlinePhaseTracker, TrackedInterval

# -- collection --------------------------------------------------------
from repro.gprof.gmon import GmonData, read_gmon, write_gmon
from repro.incprof import Session, SessionConfig, SessionResult

# -- storage -----------------------------------------------------------
from repro.store.interface import IntervalStore, ReplayResult
from repro.store.loose import LooseStore
from repro.store.segments import CompactionPolicy, SegmentStore, open_store

# -- fleet analytics ---------------------------------------------------
from repro.core.cohorts import CohortMatcher, signature_distance
from repro.fleet.analytics import (
    PhaseSignature,
    analyze_fleet_dir,
    analyze_signatures,
)

# -- service client ----------------------------------------------------
from repro.service import (
    Endpoint,
    PhaseClient,
    PublishReport,
    RetryPolicy,
    publish_samples,
    publish_session,
)

# -- errors ------------------------------------------------------------
from repro.util.errors import (
    BackpressureError,
    CheckpointError,
    ClusteringError,
    CollectorError,
    ConnectionLostError,
    FormatError,
    ModelFormatError,
    ProfileDataError,
    ProtocolError,
    ReproError,
    RequestError,
    RetryExhaustedError,
    SampleFileError,
    SegmentManifestError,
    ServiceError,
    StreamConflictError,
    UnknownStreamError,
    ValidationError,
)

__all__ = [
    # offline analysis
    "AnalysisConfig",
    "AnalysisResult",
    "analyze_snapshots",
    # streaming analysis
    "AdaptiveConfig",
    "DriftConfig",
    "IncrementalAnalyzer",
    "IncrementalUpdate",
    "RefitEvent",
    # collection
    "GmonData",
    "read_gmon",
    "write_gmon",
    "Session",
    "SessionConfig",
    "SessionResult",
    # storage
    "IntervalStore",
    "LooseStore",
    "SegmentStore",
    "CompactionPolicy",
    "ReplayResult",
    "open_store",
    # model artifacts
    "MODEL_SCHEMA",
    "save_model",
    "load_model",
    "dumps_model",
    "loads_model",
    "model_meta",
    # fleet analytics
    "CohortMatcher",
    "PhaseSignature",
    "analyze_fleet_dir",
    "analyze_signatures",
    "signature_distance",
    # online monitoring
    "NOVEL",
    "OnlinePhaseTracker",
    "TrackedInterval",
    "Endpoint",
    "PhaseClient",
    "PublishReport",
    "RetryPolicy",
    "publish_samples",
    "publish_session",
    # errors
    "ReproError",
    "ValidationError",
    "FormatError",
    "ProfileDataError",
    "ClusteringError",
    "CollectorError",
    "ProtocolError",
    "SampleFileError",
    "ModelFormatError",
    "CheckpointError",
    "SegmentManifestError",
    "ServiceError",
    "RequestError",
    "UnknownStreamError",
    "StreamConflictError",
    "BackpressureError",
    "ConnectionLostError",
    "RetryExhaustedError",
]
