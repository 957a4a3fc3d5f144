"""Minimal live dashboard for fleet analytics: the HTML renderer.

:class:`~repro.service.webserver.DashboardServer` serves three routes:

- ``/`` — server-rendered HTML: cohort summary, per-stream phase
  timeline strips, anomaly and drift-event tables.  No javascript
  beyond a ``<meta http-equiv=refresh>``; every render is a fresh
  analytics pass, so the page is the report.
- ``/analytics.json`` — the same report as JSON for tooling.
- ``/healthz`` — liveness.

Enabled with ``incprof serve --dashboard-port`` (one daemon's own
streams) and ``incprof serve-fleet --dashboard-port`` (the router's
merged fleet view).
"""

from __future__ import annotations

import html
from typing import Any, Dict, List

from repro.core.online import NOVEL

__all__ = ["render_dashboard_html"]

#: Glyph per phase id for the timeline strips (NOVEL renders as ``!``).
_PHASE_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyz"

_STYLE = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       background: #101418; color: #d8dee9; margin: 2em; }
h1, h2 { color: #88c0d0; font-weight: 600; }
table { border-collapse: collapse; margin: 0.6em 0 1.4em; }
th, td { border: 1px solid #2e3440; padding: 0.25em 0.7em;
         text-align: left; }
th { color: #81a1c1; }
.timeline { letter-spacing: 1px; }
.novel { color: #bf616a; font-weight: bold; }
.muted { color: #616e7c; }
.warn { color: #ebcb8b; }
"""


def _glyph(phase_id: int) -> str:
    if phase_id == NOVEL:
        return '<span class="novel">!</span>'
    if 0 <= phase_id < len(_PHASE_GLYPHS):
        return _PHASE_GLYPHS[phase_id]
    return "?"


def _timeline_html(timeline: List[int], width: int = 96) -> str:
    tail = timeline[-width:]
    if not tail:
        return '<span class="muted">(warmup)</span>'
    return "".join(_glyph(int(p)) for p in tail)


def render_dashboard_html(report: Dict[str, Any],
                          title: str = "incprofd fleet analytics",
                          refresh: int = 5) -> str:
    """One analytics report as a self-contained HTML page."""
    sig_by_stream = {s["stream_id"]: s
                     for s in report.get("signatures", [])}
    parts: List[str] = [
        "<!doctype html><html><head>",
        f"<title>{html.escape(title)}</title>",
        f'<meta http-equiv="refresh" content="{int(refresh)}">',
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f"<p>{report.get('n_streams', 0)} stream(s) in "
        f"{report.get('n_cohorts', 0)} cohort(s) &middot; "
        f"{len(report.get('anomalies', []))} anomalie(s) &middot; "
        f"{len(report.get('drift_events', []))} drift event(s)</p>",
    ]
    for cohort in report.get("cohorts", []):
        parts.append(
            f"<h2>cohort {cohort['cohort']} "
            f'<span class="muted">({cohort["size"]} stream(s), '
            f"transition rate {cohort['mean_transition_rate']:.2f}, "
            f"novel {cohort['mean_novel_share']:.1%})</span></h2>")
        parts.append("<table><tr><th>stream</th><th>worker</th>"
                     "<th>intervals</th><th>phases</th><th>novel</th>"
                     "<th>timeline (newest right, ! = novel)</th></tr>")
        for stream_id in cohort.get("streams", []):
            sig = sig_by_stream.get(stream_id, {})
            parts.append(
                "<tr>"
                f"<td>{html.escape(stream_id)}</td>"
                f"<td>{html.escape(str(sig.get('worker_id', '') or '-'))}</td>"
                f"<td>{sig.get('n_intervals', '?')}</td>"
                f"<td>{sig.get('n_phases', '?')}</td>"
                f"<td>{float(sig.get('novel_share', 0.0)):.1%}</td>"
                f'<td class="timeline">'
                f"{_timeline_html(sig.get('timeline', []))}</td>"
                "</tr>")
        parts.append("</table>")
    anomalies = report.get("anomalies", [])
    if anomalies:
        parts.append("<h2>anomalous streams</h2>")
        parts.append("<table><tr><th>stream</th><th>cohort</th>"
                     "<th>distance</th><th>cohort mean &plusmn; std</th></tr>")
        for a in anomalies:
            parts.append(
                "<tr>"
                f'<td class="warn">{html.escape(a["stream_id"])}</td>'
                f"<td>{a['cohort']}</td>"
                f"<td>{a['distance']:.3f}</td>"
                f"<td>{a['cohort_mean']:.3f} &plusmn; "
                f"{a['cohort_std']:.3f}</td></tr>")
        parts.append("</table>")
    drift = report.get("drift_events", [])
    if drift:
        parts.append("<h2>drift events</h2>")
        parts.append("<table><tr><th>cohort</th><th>kind</th>"
                     "<th>streams</th><th>window</th><th>share</th></tr>")
        for event in drift:
            parts.append(
                "<tr>"
                f"<td>{event['cohort']}</td>"
                f'<td class="warn">{html.escape(event["kind"])}</td>'
                f"<td>{html.escape(', '.join(event['streams']))}</td>"
                f"<td>last {event['window']} intervals</td>"
                f"<td>{event['share']:.0%}</td></tr>")
        parts.append("</table>")
    if not report.get("cohorts"):
        parts.append('<p class="muted">no streams yet — publish some '
                     "traffic and refresh</p>")
    parts.append('<p class="muted">auto-refreshes every '
                 f"{int(refresh)}s &middot; "
                 '<a href="/analytics.json">analytics.json</a></p>')
    parts.append("</body></html>")
    return "".join(parts)
