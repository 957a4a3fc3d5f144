"""IncProf: the incremental profile collector.

The paper's tool is a preloaded library whose background thread wakes once
per interval, invokes glibc's hidden gmon write function, and renames the
dump to a unique per-interval sample file.  This package reproduces that
collection loop in both execution modes:

- :class:`~repro.incprof.collector.VirtualSnapshotCollector` hooks the
  simulated clock (exact 1 s wake-ups, dump cost charged to the timeline);
- :class:`~repro.incprof.collector.LiveCollector` is a real daemon thread
  snapshotting a :class:`~repro.profiler.tracing.TracingProfiler`.

:class:`~repro.incprof.session.Session` orchestrates a full collection run
of a workload across simulated MPI ranks; the per-interval sample files
live in :mod:`repro.store` (:class:`~repro.store.loose.LooseStore`).
"""

from repro.incprof.collector import VirtualSnapshotCollector, LiveCollector
from repro.incprof.session import Session, SessionConfig, SessionResult
from repro.incprof.script_runner import ScriptProfile, profile_callable, profile_script

__all__ = [
    "VirtualSnapshotCollector",
    "LiveCollector",
    "Session",
    "SessionConfig",
    "SessionResult",
    "ScriptProfile",
    "profile_callable",
    "profile_script",
]
