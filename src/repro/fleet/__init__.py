"""Fleet-of-daemons: shard ``incprofd`` across worker processes.

One threaded ``incprofd`` caps classify throughput at a single
interpreter.  This package scales the profiling plane *out* instead of
up, shared-nothing:

- :mod:`repro.fleet.ring` — a consistent-hash ring with virtual nodes
  maps every ``stream_id`` to exactly one worker; membership changes
  move only the dead worker's streams.
- :mod:`repro.fleet.supervisor` — spawns N ``incprofd`` worker daemons
  as subprocesses (own checkpoint dir, model artifact, unix socket,
  metrics port each), monitors liveness over the existing ping
  machinery, restarts crashed workers, and evicts repeat offenders.
- :mod:`repro.fleet.router` — a thin front end speaking the existing
  wire protocol: proxies ``hello``/``snapshot``/``bye`` to the owner a
  ring lookup names, fans ``fleet-status``/``stats``/
  ``metrics``/``trace`` out across workers and merges the replies, and
  on worker death rebalances the ring and drives orphaned streams
  through checkpoint-restore + ``resume_from``.
- :mod:`repro.fleet.analytics` — cross-stream phase intelligence:
  per-stream :class:`PhaseSignature` extraction (live trackers or
  store replay), cohort clustering over signature vectors, anomaly
  flagging, and fleet-wide drift-event detection, merged at the router
  via the ``fleet_analytics`` control verb.

See ``docs/FLEET.md`` for the architecture and failure model, and
``docs/ANALYTICS.md`` for the analytics layer.
"""

from repro._lazy import lazy_attributes

# Names resolve on first use: a daemon that imports ``repro.fleet.ring``
# for its ownership check loads no router, supervisor or analytics code.
__getattr__, __dir__, _names = lazy_attributes(__name__, {
    "analytics": ("PhaseSignature", "analyze_fleet_dir", "analyze_signatures",
                  "cluster_signatures", "detect_drift", "flag_anomalies"),
    "ring": ("HashRing",),
    "router": ("FleetRouter", "RouterConfig"),
    "supervisor": ("FleetConfig", "WorkerHandle", "WorkerSupervisor"),
})

__all__ = sorted(_names)
