"""The web access interface.

A deliberately small HTTP server (stdlib only) over the Grid API:

====================  ==========================================
Path                  Content
====================  ==========================================
``/``                 HTML overview (sites, nodes, tunnels)
``/api/summary``      JSON grid summary
``/api/status``       JSON compiled global status
``/api/topology``     JSON sites/proxies/tunnels
``/api/station?node`` JSON single station state
``/api/obs``          JSON compiled telemetry (``?trace=<id>`` filters)
====================  ==========================================

Read-only by design: mutating operations go through the authenticated
proxy paths, not the status page.
"""

from __future__ import annotations

import html
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from repro.control.api import GridApi
from repro.core.grid import Grid, GridError

__all__ = ["GridWebServer"]

#: Seconds ``serve_forever`` waits between shutdown checks: ``stop`` waits
#: up to this long (the stdlib default is 0.5 s).
_POLL_INTERVAL = 0.02


class GridWebServer:
    """Serves the grid's status pages on localhost."""

    def __init__(self, grid: Grid, host: str = "127.0.0.1", port: int = 0):
        self.api = GridApi(grid)
        handler = self._make_handler()
        self._server = ThreadingHTTPServer((host, port), handler)
        self.host, self.port = self._server.server_address
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(  # gridlint: disable=GL102 -- stdlib HTTPServer.serve_forever needs a dedicated thread; stop() shuts it down
            target=self._server.serve_forever, args=(_POLL_INTERVAL,), daemon=True,
            name="grid-web",
        )
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self) -> "GridWebServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------

    def _make_handler(self):
        api = self.api

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # silence request logs
                pass

            def _send(self, code: int, content_type: str, body: bytes) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _json(self, payload, code: int = 200) -> None:
                self._send(
                    code,
                    "application/json",
                    json.dumps(payload, indent=2).encode("utf-8"),
                )

            def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
                parsed = urlparse(self.path)
                try:
                    if parsed.path == "/":
                        self._send(200, "text/html", _render_overview(api))
                    elif parsed.path == "/api/summary":
                        self._json(api.summary())
                    elif parsed.path == "/api/status":
                        self._json(api.grid_state())
                    elif parsed.path == "/api/topology":
                        self._json(api.topology())
                    elif parsed.path == "/api/station":
                        query = parse_qs(parsed.query)
                        node = query.get("node", [""])[0]
                        self._json(api.station_state(node))
                    elif parsed.path == "/api/obs":
                        query = parse_qs(parsed.query)
                        trace = query.get("trace", [None])[0]
                        raw_max = query.get("max_spans", [None])[0]
                        self._json(
                            api.observability(
                                trace_id=trace,
                                max_spans=int(raw_max) if raw_max else None,
                            )
                        )
                    else:
                        self._json({"error": "not found"}, code=404)
                except GridError as exc:
                    self._json({"error": str(exc)}, code=404)
                except Exception as exc:  # pragma: no cover - defensive
                    self._json({"error": str(exc)}, code=500)

        return Handler


def _render_overview(api: GridApi) -> bytes:
    summary = api.summary()
    topology = api.topology()["sites"]
    rows = []
    for site, info in topology.items():
        rows.append(
            "<tr><td>{site}</td><td>{proxy}</td><td>{nodes}</td>"
            "<td>{tunnels}</td></tr>".format(
                site=html.escape(site),
                proxy=html.escape(info["proxy"]),
                nodes=", ".join(html.escape(n) for n in info["nodes"]),
                tunnels=", ".join(html.escape(t) for t in info["tunnels"]),
            )
        )
    page = f"""<!DOCTYPE html>
<html><head><title>Proxy Grid</title>
<style>
 body {{ font-family: sans-serif; margin: 2em; }}
 table {{ border-collapse: collapse; }}
 td, th {{ border: 1px solid #999; padding: 0.3em 0.8em; }}
</style></head>
<body>
<h1>Computational Grid — proxy architecture</h1>
<p>{summary['sites']} sites, {summary['nodes']} nodes
({summary['alive_nodes']} alive), {summary['users']} users.</p>
<table>
<tr><th>Site</th><th>Proxy</th><th>Nodes</th><th>Tunnels</th></tr>
{''.join(rows)}
</table>
<p>JSON: <a href="/api/summary">summary</a> ·
<a href="/api/status">status</a> ·
<a href="/api/topology">topology</a> ·
<a href="/api/obs">observability</a></p>
</body></html>"""
    return page.encode("utf-8")
