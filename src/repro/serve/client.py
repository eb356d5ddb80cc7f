"""A small blocking client for the serve daemon — stdlib sockets only.

Used by the CI smoke test, the daemon lifecycle suite, and
``benchmarks/bench_serve.py``; also a reference implementation of the
wire protocol for anyone pointing their own tooling at the daemon.

Connections persist (HTTP/1.1 keep-alive): a request takes an idle
connection or opens a new one, reads its response by
``Content-Length`` (to EOF only when there is none), and hands the
connection back unless the response said ``Connection: close``.
Concurrent callers each get their own connection.  An idle connection
the daemon has closed in the meantime fails before the first response
byte; the request then goes once more over a fresh connection, which
is safe because the GET routes only read and a repeated profile
request gets the same results.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import weakref
from typing import Dict, List, Optional, Tuple


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


class _Stale(Exception):
    """A kept connection failed before the first response byte."""


def _close_all(sockets: List[socket.socket],
               lock: threading.Lock) -> None:
    with lock:
        while sockets:
            sockets.pop().close()


class ServeClient:
    """Blocking HTTP client over a Unix socket or TCP.

    Thread-safe; ``close()`` (or leaving a ``with`` block) closes the
    idle connections, and so does garbage collection of a client that
    was never closed.
    """

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
        self._idle: List[socket.socket] = []
        self._lock = threading.Lock()
        self._closer = weakref.finalize(self, _close_all, self._idle,
                                        self._lock)

    def close(self) -> None:
        """Close every idle connection; a request still in flight
        closes its own when it ends, and later requests keep none."""
        self._closer()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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

    def _release(self, sock: socket.socket) -> None:
        with self._lock:
            if self._closer.alive:
                self._idle.append(sock)
                return
        sock.close()

    def request(self, method: str, path: str,
                payload: Optional[Dict] = None) -> ServeResponse:
        body = b""
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode()
        message = (f"{method} {path} HTTP/1.1\r\n"
                   f"Host: repro-serve\r\n"
                   f"Content-Type: application/json\r\n"
                   f"Content-Length: {len(body)}\r\n\r\n"
                   ).encode("latin-1") + body
        with self._lock:
            sock = self._idle.pop() if self._idle else None
        while True:
            reused = sock is not None
            try:
                if sock is None:
                    sock = self._connect()
                response, keep = self._exchange(sock, message, reused)
            except _Stale:
                sock.close()
                sock = None
                continue  # once: the next connection is fresh
            except OSError as exc:
                if sock is not None:
                    sock.close()
                raise ServeClientError(f"{type(exc).__name__}: {exc}")
            except BaseException:
                if sock is not None:
                    sock.close()
                raise
            if keep:
                self._release(sock)
            else:
                sock.close()
            return response

    def _exchange(self, sock: socket.socket, message: bytes,
                  reused: bool) -> Tuple[ServeResponse, bool]:
        """Send one request and read its response; whether the
        connection may carry the next one.  A kept connection that
        fails before the first response byte raises :class:`_Stale`
        (a timeout is no such failure: the daemon is slow, not gone)."""
        try:
            sock.sendall(message)
            raw = sock.recv(65536)
        except TimeoutError:
            raise
        except OSError:
            if reused:
                raise _Stale()
            raise
        if not raw:
            if reused:
                raise _Stale()
            raise ServeClientError("empty response (connection reset)")
        while b"\r\n\r\n" not in raw:
            chunk = sock.recv(65536)
            if not chunk:
                raise ServeClientError("truncated response head")
            raw += chunk
        head, _, payload = raw.partition(b"\r\n\r\n")
        status, headers = self._parse_head(head)
        length = headers.get("content-length")
        if length is None:
            while True:  # no framing: the body ends at EOF
                chunk = sock.recv(65536)
                if not chunk:
                    break
                payload += chunk
            keep = False
        else:
            try:
                length = int(length)
            except ValueError:
                raise ServeClientError(
                    f"bad Content-Length: {length!r}")
            while len(payload) < length:
                chunk = sock.recv(max(65536, length - len(payload)))
                if not chunk:
                    raise ServeClientError("truncated response body")
                payload += chunk
            # Bytes past the body would belong to no request.
            keep = len(payload) == length and \
                headers.get("connection", "").lower() != "close"
            payload = payload[:length]
        try:
            body = json.loads(payload.decode("utf-8")) if payload \
                else {}
        except ValueError:
            raise ServeClientError("response body is not JSON")
        return ServeResponse(status, body, headers), keep

    @staticmethod
    def _parse_head(head: bytes) -> Tuple[int, Dict[str, str]]:
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
        return status, headers

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
