"""The daemon's and the router's HTTP endpoints.

Two endpoints serve text over one stdlib
:class:`~http.server.ThreadingHTTPServer` each:

- :class:`MetricsHTTPServer` — Prometheus ``/metrics`` (``incprof serve
  --metrics-port``), so an off-the-shelf scraper needs no knowledge of
  the incprofd framing;
- :class:`DashboardServer` — the fleet-analytics page ``/`` and its
  JSON ``/analytics.json`` (``incprof serve --dashboard-port`` and
  ``incprof serve-fleet --dashboard-port``).

Both also answer ``/healthz``.  Each runs on one daemon thread and
serves each request on its own, so a stalled client cannot block the
next one.  The renderers live in :mod:`repro.service.exposition` and
:mod:`repro.service.dashboard`; the daemon and the router import this
module only when a port is set.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple

from repro.service.dashboard import render_dashboard_html
from repro.service.exposition import CONTENT_TYPE

__all__ = ["DashboardServer", "MetricsHTTPServer"]

#: A route renders ``(body, content type)``.
Route = Callable[[], Tuple[str, str]]


class _Handler(BaseHTTPRequestHandler):
    server_version = "incprofd/1"

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        endpoint: _Endpoint = self.server.endpoint  # type: ignore[attr-defined]
        route = endpoint.routes.get(self.path.split("?", 1)[0])
        if route is None:
            self.send_error(404, f"only {', '.join(endpoint.routes)} are served")
            return
        try:
            text, content_type = route()
        except Exception as exc:  # pragma: no cover - defensive
            self.send_error(500, str(exc))
            return
        body = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args: Any) -> None:
        # Requests stay silent on stderr; the daemon's own structured
        # logger covers lifecycle events.
        pass


class _Endpoint:
    """One HTTP server thread over a table of routes."""

    #: Path of :attr:`url`, and the serving thread's name.
    path = "/"
    thread_name = "incprofd-http"

    def __init__(self, routes: Dict[str, Route], host: str, port: int) -> None:
        self.routes = {**routes,
                       "/healthz": lambda: ("ok\n", "text/plain; charset=utf-8")}
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.endpoint = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}{self.path}"

    def start(self):
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name=self.thread_name, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class MetricsHTTPServer(_Endpoint):
    """``/metrics`` (and ``/``) over a render callable.

    ``render_fn`` returns the exposition text; typically
    ``lambda: render_prometheus(server.stats())``.
    """

    path = "/metrics"
    thread_name = "incprofd-metrics-http"

    def __init__(self, render_fn: Callable[[], str], host: str = "127.0.0.1",
                 port: int = 0) -> None:
        def metrics() -> Tuple[str, str]:
            return render_fn(), CONTENT_TYPE

        super().__init__({"/metrics": metrics, "/": metrics}, host, port)


class DashboardServer(_Endpoint):
    """The analytics page ``/`` and ``/analytics.json`` over a report
    callable.

    ``report_fn`` returns the JSON-ready report dict (typically a fresh
    ``fleet_analytics`` pass); each GET renders it server-side.
    """

    thread_name = "incprofd-dashboard-http"

    def __init__(self, report_fn: Callable[[], Dict[str, Any]],
                 host: str = "127.0.0.1", port: int = 0,
                 title: str = "incprofd fleet analytics") -> None:
        def page() -> Tuple[str, str]:
            return (render_dashboard_html(report_fn(), title=title),
                    "text/html; charset=utf-8")

        def report() -> Tuple[str, str]:
            return (json.dumps(report_fn(), sort_keys=True),
                    "application/json; charset=utf-8")

        super().__init__({"/": page, "/analytics.json": report}, host, port)
