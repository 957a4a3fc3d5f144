"""Prometheus text exposition for ``incprofd`` self-metrics.

Renders a :meth:`~repro.service.server.PhaseMonitorServer.stats` snapshot
in the Prometheus text format (version 0.0.4): counters as ``*_total``,
gauges as-is, the pipeline stage accounting as labelled totals, and the
classify-latency window as a summary with ``quantile`` labels.

Two transports serve the same text:

- the wire protocol's ``metrics`` control request (``incprof metrics``),
- a tiny stdlib HTTP endpoint
  (:class:`~repro.service.webserver.MetricsHTTPServer`, enabled with
  ``incprof serve --metrics-port``) so an off-the-shelf Prometheus
  scraper needs no knowledge of the incprofd framing.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

from repro.util.errors import ValidationError

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: stats() counter keys exposed as monotone ``*_total`` counters.
_COUNTERS = (
    ("ingested", "Snapshots admitted into a stream queue."),
    ("processed", "Intervals classified by the classify thread."),
    ("novel", "Classified intervals flagged as novel behaviour."),
    ("dropped_oldest", "Snapshots evicted by the drop-oldest policy."),
    ("rejected", "Snapshots refused by backpressure."),
    ("protocol_errors", "Malformed frames or messages."),
    ("ingest_errors", "Snapshots that failed differencing or were lost "
                      "to a failed classify tick."),
    ("classify_failures", "Classify ticks that raised; the classify "
                          "thread logged them and carried on."),
    ("heartbeats", "Application heartbeat rows accepted."),
    ("connections", "Connections accepted."),
    ("faults_injected", "Fault-injector actions taken."),
    ("checkpoints_written", "Checkpoints written."),
    ("refits", "Live model refits hot-swapped across all streams."),
    ("wrong_worker", "Requests refused because the ring assigns the "
                     "stream to another worker."),
    ("finished_evicted",
     "Finished-stream rows evicted by the bounded history ring."),
)

#: stats() keys exposed as gauges (instantaneous values).
_GAUGES = (
    ("streams", "Live registered streams."),
    ("queued_total", "Snapshots queued across all streams."),
    ("ingest_rate", "Processed intervals per second since first ingest."),
    ("ldms_delivered", "Heartbeat rows delivered through the LDMS sampler."),
    ("restored_streams", "Streams restored from the last checkpoint."),
)


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _fmt(value: float) -> str:
    # Prometheus wants plain decimal floats; integers render without ".0".
    if isinstance(value, bool):
        return "1" if value else "0"
    value = float(value)
    # Non-finite values are legal Prometheus samples ("NaN", "+Inf",
    # "-Inf"); int() on them raises, which used to turn one bad stat
    # into a failed scrape of *everything*.
    if not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(stats: Dict[str, Any], prefix: str = "incprofd") -> str:
    """One stats snapshot as Prometheus exposition text."""
    lines: List[str] = []

    def emit(name: str, kind: str, help_text: str,
             samples: List[Tuple[str, float]]) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            lines.append(f"{name}{labels} {_fmt(value)}")

    for key, help_text in _COUNTERS:
        if key in stats:
            emit(f"{prefix}_{key}_total", "counter", help_text,
                 [("", float(stats[key]))])
    for key, help_text in _GAUGES:
        if key in stats:
            emit(f"{prefix}_{key}", "gauge", help_text,
                 [("", float(stats[key]))])

    depths = stats.get("queue_depths") or {}
    if depths:
        emit(f"{prefix}_queue_depth", "gauge",
             "Queued snapshots per stream.",
             [(f'{{stream="{_escape_label(sid)}"}}', float(depth))
              for sid, depth in sorted(depths.items())])

    stages = stats.get("stages") or {}
    if stages:
        for field, help_text in (
            ("seconds", "Wall seconds spent in each pipeline stage."),
            ("items", "Items processed by each pipeline stage."),
            ("calls", "Classify ticks that measured each pipeline stage."),
        ):
            emit(f"{prefix}_stage_{field}_total", "counter", help_text,
                 [(f'{{stage="{_escape_label(stage)}"}}', float(rec[field]))
                  for stage, rec in sorted(stages.items())])

    latency = stats.get("classify_latency") or {}
    if latency:
        name = f"{prefix}_classify_latency_seconds"
        samples = []
        for key in sorted(latency, key=lambda k: float(k[1:])):
            quantile = float(key[1:]) / 100.0
            samples.append((f'{{quantile="{quantile:g}"}}',
                            float(latency[key])))
        emit(name, "summary",
             "Per-interval classification latency over the recent window.",
             samples)

    traces = stats.get("traces") or {}
    for key in ("started", "finished", "evicted"):
        if key in traces:
            emit(f"{prefix}_traces_{key}_total", "counter",
                 f"Traces {key}.", [("", float(traces[key]))])

    store = stats.get("store") or {}
    tiers = store.get("tiers") or {}
    if tiers:
        for field, help_text in (
            ("bytes", "On-disk bytes per interval-archive retention tier."),
            ("segments", "Segments per interval-archive retention tier."),
            ("intervals", "Intervals held per interval-archive tier."),
        ):
            emit(f"{prefix}_store_tier_{field}", "gauge", help_text,
                 [(f'{{tier="{_escape_label(str(tier))}"}}',
                   float(rec.get(field, 0)))
                  for tier, rec in sorted(tiers.items())])
    for key, help_text in (
        ("appends", "Snapshots appended to the interval archive."),
        ("flushes", "Interval-archive flushes that wrote segments."),
        ("commits", "Interval-archive manifest commits."),
        ("flush_seconds", "Wall seconds spent in interval-archive flushes."),
        ("compactor_failures", "Interval-archive maintenance passes that "
                               "raised; the compactor retries next tick."),
        ("conversion_failures", "Interval-archive segments a compaction "
                                "pass could not convert; they stay at "
                                "their tier."),
    ):
        if key in store:
            emit(f"{prefix}_store_{key}_total", "counter", help_text,
                 [("", float(store[key]))])

    analytics = stats.get("analytics") or {}
    if analytics:
        for key, help_text in (
            ("streams", "Streams covered by the last fleet-analytics pass."),
            ("cohorts", "Stream cohorts found by the last "
                        "fleet-analytics pass."),
            ("anomalies", "Streams flagged anomalous against their "
                          "cohort's signature spread."),
            ("drift_events", "Fleet-wide drift events (refit waves, "
                             "novel bursts) in the last pass."),
        ):
            if key in analytics:
                emit(f"{prefix}_analytics_{key}", "gauge", help_text,
                     [("", float(analytics[key]))])
        sizes = analytics.get("cohort_sizes") or {}
        if sizes:
            emit(f"{prefix}_analytics_cohort_size", "gauge",
                 "Streams per cohort (label: stable cohort id).",
                 [(f'{{cohort="{_escape_label(str(cid))}"}}', float(n))
                  for cid, n in sorted(sizes.items())])

    selfhb = stats.get("self_heartbeats") or {}
    if "events" in selfhb:
        emit(f"{prefix}_self_heartbeats_total", "counter",
             "Self-instrumentation heartbeat events (daemon dogfooding).",
             [("", float(selfhb["events"]))])

    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse exposition text back to ``{name{labels}: value}``.

    A deliberately strict mini-parser (used by tests and ``incprof
    metrics --json``): every non-comment line must be ``name[{labels}]
    value``; anything else raises :class:`ValidationError`.  The
    Prometheus spellings of non-finite samples (``NaN``, ``+Inf``,
    ``-Inf``) parse back to the matching floats — exactly the strings
    :func:`render_prometheus` emits for them.
    """
    out: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, value = line.rpartition(" ")
        if not sep or not name:
            raise ValidationError(f"line {lineno}: not 'name value': {line!r}")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise ValidationError(
                f"line {lineno}: bad sample value {value!r}") from exc
    return out
