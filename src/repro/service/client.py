"""Synchronous client for the EAR service tier.

A deliberately boring stdlib-socket client: the server is asyncio, but
submitters (the ``repro-ear submit``/``status`` CLI, tests, batch
scripts) are plain synchronous code.  One :class:`ServiceClient` opens
one connection per request — the protocol is a single JSON line each
way, so connection reuse buys nothing and per-request connections make
the client trivially safe to share across threads.
"""

from __future__ import annotations

import socket
import time

from ..errors import ExperimentError
from .protocol import decode, encode

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(ExperimentError):
    """The server answered with an error envelope."""

    def __init__(self, code: str, message: str, payload: dict | None = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.payload = payload or {}


class ServiceClient:
    """Talk JSON lines (and raw HTTP) to a running ``repro-ear serve``."""

    def __init__(
        self,
        socket_path: str | None = None,
        *,
        host: str = "127.0.0.1",
        port: int | None = None,
        timeout: float = 10.0,
    ) -> None:
        if socket_path is None and port is None:
            raise ExperimentError("client needs a unix socket path or a TCP port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport ------------------------------------------------------------

    def _connect(self) -> socket.socket:
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.socket_path)
        else:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        return sock

    def request(self, op: str, **payload) -> dict:
        """One op round-trip; raise :class:`ServiceError` on failure."""
        with self._connect() as sock:
            sock.sendall(encode({"op": op, **payload}))
            line = _read_line(sock)
        if not line:
            raise ExperimentError("server closed the connection without replying")
        response = decode(line)
        if not response.get("ok"):
            raise ServiceError(
                str(response.get("error", "unknown")),
                str(response.get("message", "")),
                response,
            )
        return response

    def http_get(self, path: str) -> tuple[int, str]:
        """Raw one-shot HTTP GET against the same endpoint."""
        with self._connect() as sock:
            sock.sendall(
                f"GET {path} HTTP/1.1\r\nHost: repro\r\nConnection: close\r\n\r\n".encode()
            )
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        raw = b"".join(chunks).decode()
        head, _, body = raw.partition("\r\n\r\n")
        status_line = head.split("\r\n", 1)[0]
        try:
            status = int(status_line.split()[1])
        except (IndexError, ValueError):
            raise ExperimentError(f"malformed HTTP response: {status_line!r}") from None
        return status, body

    # -- ops ------------------------------------------------------------------

    def ping(self) -> dict:
        """Liveness + protocol handshake."""
        return self.request("ping")

    def submit(self, workload: str, **spec) -> dict:
        """Submit one (or ``count``) jobs; returns the admission receipt."""
        return self.request("submit", workload=workload, **spec)

    def status(self) -> dict:
        """Full service status payload."""
        return self.request("status")

    def tail(self, n: int = 100) -> list[str]:
        """The most recent ``n`` telemetry event lines (JSONL)."""
        return self.request("tail", n=n)["events"]

    def metrics(self) -> str:
        """The Prometheus exposition text, over the JSON dialect."""
        return self.request("metrics")["text"]

    def drain(self) -> dict:
        """Block until everything submitted so far has simulated."""
        return self.request("drain")

    def shutdown(self, *, drain: bool = True) -> dict:
        """Ask the server to stop (gracefully by default)."""
        return self.request("shutdown", drain=drain)

    # -- convenience ----------------------------------------------------------

    def wait_ready(self, timeout: float = 10.0, interval: float = 0.05) -> dict:
        """Poll ``ping`` until the server answers (startup races)."""
        deadline = time.monotonic() + timeout
        last_err: Exception | None = None
        while time.monotonic() < deadline:
            try:
                return self.ping()
            except (OSError, ExperimentError) as err:
                last_err = err
                time.sleep(interval)
        raise ExperimentError(f"service not ready after {timeout}s: {last_err}")


def _read_line(sock: socket.socket) -> bytes:
    """Read up to the first newline (responses are one JSON line)."""
    buf = bytearray()
    while True:
        chunk = sock.recv(4096)
        if not chunk:
            break
        buf.extend(chunk)
        if b"\n" in chunk:
            break
    line, _, _ = bytes(buf).partition(b"\n")
    return line

