"""The daemon: HTTP and unix-socket fronts over one :class:`ServeApp`.

``python -m repro serve`` builds a :class:`Daemon`, which owns the app
and up to two listeners — a TCP :class:`ThreadingHTTPServer` and an
``AF_UNIX`` variant speaking the same HTTP — and runs them until a
signal arrives.  Shutdown is a **graceful drain**: SIGTERM/SIGINT flips
readiness off (load balancers stop routing), in-flight requests finish
(``block_on_close`` joins the handler threads), the solver store
flushes, and only then does the process exit.  A second signal forces
immediate shutdown.

Endpoints (both transports):

=================  =====================================================
``GET /healthz``   liveness — 200 while the process serves at all
``GET /readyz``    readiness — 200 until drain starts, then 503
``GET /stats``     the full layered stats snapshot, as JSON
``POST /analyze``  an ``op: analyze`` request (op filled in if missing)
``POST /query``    an ``op: query`` request
``POST /drain``    begin draining (also available as an op)
``POST /``         a raw protocol envelope (any op)
=================  =====================================================
"""

from __future__ import annotations

import json
import pathlib
import signal
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .app import ServeApp
from .protocol import invalid

__all__ = ["Daemon", "build_http_server", "build_unix_server"]

#: Cap on request bodies (a corpus program is a few KB; 8 MB is beyond
#: generous and bounds memory per connection).
MAX_BODY_BYTES = 8 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """One request — translation between HTTP and the protocol layer."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"

    # The app is attached to the server object by the builders below.
    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the metrics registry (/stats) is the access log

    def address_string(self) -> str:
        # AF_UNIX peers have no (host, port); never reverse-resolve.
        if isinstance(self.client_address, (bytes, str)) or not self.client_address:
            return "unix"
        return str(self.client_address[0])

    def _send(self, status: int, payload: dict, retry_after_ms=None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_ms is not None:
            # HTTP Retry-After is whole seconds; round up, floor 1.
            self.send_header(
                "Retry-After", str(max(1, int(retry_after_ms / 1000.0 + 0.999)))
            )
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, payload) -> None:
        status, envelope = self.app.handle(payload)
        retry = envelope.get("retry_after_ms") if status == 429 else None
        self._send(status, envelope, retry)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            self._send(200, {"status": "ok", "alive": True})
        elif self.path == "/readyz":
            ready = self.app.ready()
            self._send(
                200 if ready else 503, {"status": "ok", "ready": ready}
            )
        elif self.path == "/stats":
            self._dispatch({"op": "stats"})
        else:
            self._send(404, invalid(None, f"unknown path {self.path}"))

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._send(400, invalid(None, "bad or oversized Content-Length"))
            return
        raw = self.rfile.read(length) if length else b"{}"
        op = {"/analyze": "analyze", "/query": "query", "/drain": "drain"}.get(
            self.path
        )
        if op is None and self.path != "/":
            self._send(404, invalid(None, f"unknown path {self.path}"))
            return
        try:
            payload = json.loads(raw.decode("utf-8")) if raw.strip() else {}
        except (ValueError, UnicodeDecodeError) as failure:
            self._send(400, invalid(None, f"request is not JSON: {failure}"))
            return
        if op is not None and isinstance(payload, dict):
            payload.setdefault("op", op)
        self._dispatch(payload)


class _HTTPServer(ThreadingHTTPServer):
    # Graceful drain: server_close() joins the non-daemon handler
    # threads, so in-flight requests finish before the process exits.
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True


class _UnixHTTPServer(_HTTPServer):
    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        path = pathlib.Path(self.server_address)
        if path.exists():
            path.unlink()
        path.parent.mkdir(parents=True, exist_ok=True)
        super().server_bind()

    def client_address_string(self) -> str:  # pragma: no cover - cosmetic
        return "unix"


def build_http_server(app: ServeApp, host: str, port: int) -> _HTTPServer:
    """A TCP front bound to ``host:port`` (port 0 picks a free port)."""

    server = _HTTPServer((host, port), _Handler)
    server.app = app  # type: ignore[attr-defined]
    return server


def build_unix_server(app: ServeApp, path) -> _UnixHTTPServer:
    """An ``AF_UNIX`` front bound to a socket file (stale files replaced)."""

    server = _UnixHTTPServer(str(path), _Handler)
    server.app = app  # type: ignore[attr-defined]
    return server


class Daemon:
    """The app plus its listeners, with lifecycle management."""

    def __init__(
        self,
        app: ServeApp,
        *,
        host: str | None = "127.0.0.1",
        port: int = 8177,
        unix_socket=None,
    ):
        self.app = app
        self.servers: list[_HTTPServer] = []
        self.unix_socket = (
            pathlib.Path(unix_socket) if unix_socket is not None else None
        )
        if host is not None:
            self.servers.append(build_http_server(app, host, port))
        if self.unix_socket is not None:
            self.servers.append(build_unix_server(app, self.unix_socket))
        if not self.servers:
            raise ValueError("daemon needs a TCP host or a unix socket")
        self._threads: list[threading.Thread] = []
        self._stopping = threading.Lock()
        self.stopped = threading.Event()

    @property
    def port(self) -> int | None:
        """The bound TCP port (after start), or None for unix-only."""

        for server in self.servers:
            if server.address_family != socket.AF_UNIX:
                return server.server_address[1]
        return None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Serve on background threads (the test/embedding entry)."""

        for server in self.servers:
            thread = threading.Thread(
                target=server.serve_forever,
                kwargs={"poll_interval": 0.05},
                name=f"repro-serve-{server.server_address}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Drain and shut down (idempotent, thread-safe)."""

        if not self._stopping.acquire(blocking=False):
            self.stopped.wait()
            return
        try:
            self.app.drain()
            for server in self.servers:
                # shutdown() stops the accept loop; server_close() joins
                # the in-flight handler threads (block_on_close).
                server.shutdown()
                server.server_close()
            for thread in self._threads:
                thread.join(timeout=10.0)
            self.app.close()
            if self.unix_socket is not None and self.unix_socket.exists():
                self.unix_socket.unlink()
        finally:
            self.stopped.set()
            self._stopping.release()

    def run(self, install_signals: bool = True) -> None:
        """Foreground mode: serve until SIGTERM/SIGINT, then drain."""

        stop_requested = threading.Event()

        def on_signal(signum, frame):  # noqa: ARG001 - signal signature
            if stop_requested.is_set():
                raise SystemExit(1)  # second signal: force exit
            stop_requested.set()

        if install_signals:
            signal.signal(signal.SIGTERM, on_signal)
            signal.signal(signal.SIGINT, on_signal)
        self.start()
        try:
            while not stop_requested.wait(timeout=0.2):
                pass
        finally:
            self.stop()
