"""A minimal client for the serve protocol (stdlib only).

Used by the CLI smoke paths and the tests; real
deployments can speak the protocol with any HTTP client.  The unix
variant subclasses :class:`http.client.HTTPConnection` with a socket
override — same wire bytes, different transport.
"""

from __future__ import annotations

import http.client
import json
import socket

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """A transport-level client failure (connection refused, bad JSON)."""


class _UnixConnection(http.client.HTTPConnection):
    def __init__(self, path: str, timeout: float):
        super().__init__("localhost", timeout=timeout)
        self._unix_path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self._unix_path)
        self.sock = sock


class ServeClient:
    """One request per call; connections are not reused (keep it dumb)."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int | None = None,
        unix_socket=None,
        timeout: float = 30.0,
    ):
        if (port is None) == (unix_socket is None):
            raise ValueError("give exactly one of port or unix_socket")
        self.host = host
        self.port = port
        self.unix_socket = str(unix_socket) if unix_socket else None
        self.timeout = timeout

    def _connection(self) -> http.client.HTTPConnection:
        if self.unix_socket is not None:
            return _UnixConnection(self.unix_socket, self.timeout)
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def request(
        self, payload: dict, *, path: str = "/", method: str = "POST"
    ) -> tuple[int, dict]:
        """``(http_status, response envelope)`` for one protocol request."""

        connection = self._connection()
        try:
            body = json.dumps(payload).encode("utf-8") if method == "POST" else None
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            raw = connection.getresponse()
            text = raw.read().decode("utf-8")
            try:
                envelope = json.loads(text)
            except ValueError as failure:
                raise ServeError(
                    f"non-JSON response ({raw.status}): {text[:200]}"
                ) from failure
            return raw.status, envelope
        except (OSError, http.client.HTTPException) as failure:
            raise ServeError(f"transport failure: {failure}") from failure
        finally:
            connection.close()

    # -- convenience wrappers -------------------------------------------

    def ping(self) -> dict:
        return self.request({"op": "ping"})[1]

    def stats(self) -> dict:
        return self.request({"op": "stats"})[1]

    def drain(self) -> dict:
        return self.request({"op": "drain"})[1]

    def healthz(self) -> tuple[int, dict]:
        return self.request({}, path="/healthz", method="GET")

    def readyz(self) -> tuple[int, dict]:
        return self.request({}, path="/readyz", method="GET")

    def analyze(
        self,
        program: str,
        *,
        name: str = "request",
        options: dict | None = None,
        deadline_ms: float | None = None,
        request_id: str | None = None,
    ) -> tuple[int, dict]:
        payload: dict = {"op": "analyze", "program": program, "name": name}
        if options:
            payload["options"] = options
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if request_id is not None:
            payload["request_id"] = request_id
        return self.request(payload)

    def query(
        self,
        program: str,
        pair: tuple[str, str],
        *,
        name: str = "request",
        options: dict | None = None,
    ) -> tuple[int, dict]:
        payload: dict = {
            "op": "query",
            "program": program,
            "name": name,
            "pair": list(pair),
        }
        if options:
            payload["options"] = options
        return self.request(payload)
