"""A small blocking client for the serve daemon — stdlib sockets only.

Used by the CI smoke test, the daemon lifecycle suite, and
``benchmarks/bench_serve.py``; also a reference implementation of the
wire protocol for anyone pointing their own tooling at the daemon.
One request per connection (the server closes after responding), so
the read loop is simply "until EOF".
"""

from __future__ import annotations

import json
import socket
import time
from typing import Dict, List, Optional


class ServeClientError(RuntimeError):
    """Transport-level failure talking to the daemon."""


class ServeResponse:
    """Status + decoded JSON body of one exchange."""

    def __init__(self, status: int, body: Dict,
                 headers: Dict[str, str]):
        self.status = status
        self.body = body
        self.headers = headers

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def retry_after_s(self) -> Optional[float]:
        raw = self.headers.get("retry-after")
        try:
            return float(raw) if raw is not None else None
        except ValueError:
            return None


class ServeClient:
    """Blocking HTTP client over a Unix socket or TCP."""

    def __init__(self, socket_path: Optional[str] = None,
                 host: str = "127.0.0.1",
                 port: Optional[int] = None,
                 timeout: float = 60.0):
        if not socket_path and port is None:
            raise ValueError("need socket_path or port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------

    def _connect(self) -> socket.socket:
        if self.socket_path:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self.timeout)
                sock.connect(self.socket_path)
            except BaseException:
                sock.close()  # e.g. polling a daemon not yet listening
                raise
        else:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
        return sock

    def request(self, method: str, path: str,
                payload: Optional[Dict] = None) -> ServeResponse:
        body = b""
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode()
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: repro-serve\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n")
        try:
            with self._connect() as sock:
                sock.sendall(head.encode("latin-1") + body)
                raw = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    raw += chunk
        except OSError as exc:
            raise ServeClientError(f"{type(exc).__name__}: {exc}")
        return self._parse(raw)

    @staticmethod
    def _parse(raw: bytes) -> ServeResponse:
        if not raw:
            raise ServeClientError("empty response (connection reset)")
        head, sep, payload = raw.partition(b"\r\n\r\n")
        if not sep:
            raise ServeClientError("truncated response head")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ", 2)
        try:
            status = int(parts[1])
        except (IndexError, ValueError):
            raise ServeClientError(f"bad status line: {lines[0]!r}")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, hsep, value = line.partition(":")
            if hsep:
                headers[name.strip().lower()] = value.strip()
        try:
            body = json.loads(payload.decode("utf-8")) if payload \
                else {}
        except ValueError:
            raise ServeClientError("response body is not JSON")
        return ServeResponse(status, body, headers)

    # ------------------------------------------------------------------

    def profile(self, blocks: List[str], uarch: str = "haswell",
                seed: int = 0, client: str = "default",
                deadline_ms: Optional[float] = None) -> ServeResponse:
        payload: Dict = {"blocks": blocks, "uarch": uarch,
                         "seed": seed, "client": client}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        return self.request("POST", "/v1/profile", payload)

    def health(self) -> ServeResponse:
        return self.request("GET", "/v1/health")

    def stats(self) -> ServeResponse:
        return self.request("GET", "/v1/stats")

    def wait_ready(self, deadline_s: float = 15.0,
                   interval_s: float = 0.05) -> ServeResponse:
        """Poll health until the daemon answers (startup helper)."""
        deadline = time.monotonic() + deadline_s
        last: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                return self.health()
            except ServeClientError as exc:
                last = exc
                time.sleep(interval_s)
        raise ServeClientError(f"daemon never became ready: {last}")
