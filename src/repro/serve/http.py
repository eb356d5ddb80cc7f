"""A deliberately minimal HTTP/1.1 layer — stdlib only.

The daemon speaks just enough HTTP for curl, the bundled client, and
load generators: request line + headers + ``Content-Length`` body in,
one JSON response out, on persistent connections.  No chunked
encoding, no TLS — a profiling daemon behind a Unix socket or
loopback port does not need them, and every feature left out is an
attack/robustness surface that cannot fail.

Connections persist under the HTTP/1.1 rules
(``HttpRequest.keep_alive``), and every response names its choice in
its ``Connection`` header: setting up and tearing down a connection
per request was more than half of a journal-memo answer's cost (a
client-side p50 of 0.65 ms against 0.28 ms kept, on a 2-core host;
docs/service.md, "Persistent connections, measured").

Parsing is hardened where it matters: header block and body sizes are
capped, Content-Length must be a sane integer, and any malformed input
maps to a clean 400 instead of an exception escaping into the accept
loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

MAX_HEADER_BYTES = 16384
MAX_BODY_BYTES = 8 * 1024 * 1024

STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """Malformed request; carries the status to answer with."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HttpRequest:
    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """Whether the connection may carry another request after
        this one: HTTP/1.1 unless the client sent ``Connection:
        close``, HTTP/1.0 only with ``Connection: keep-alive``.  A
        body framed by ``Transfer-Encoding`` is not read, so its
        bytes would be taken for the next request: such a connection
        closes too."""
        if "transfer-encoding" in self.headers:
            return False
        options = {option.strip().lower() for option in
                   self.headers.get("connection", "").split(",")}
        if "close" in options:
            return False
        return self.version != "HTTP/1.0" or "keep-alive" in options

    def json(self):
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise HttpError(400, "request body is not valid JSON")


def parse_head(head: bytes) -> Tuple[str, str, str, Dict[str, str]]:
    """Parse the request line + headers (everything before the body):
    method, path, HTTP version and lower-cased header names."""
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "header block too large")
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:
        raise HttpError(400, "undecodable request head")
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, path, version = parts[0].upper(), parts[1], parts[2]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header: {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method, path, version, headers


def content_length(headers: Dict[str, str]) -> int:
    raw = headers.get("content-length", "0")
    try:
        length = int(raw)
    except ValueError:
        raise HttpError(400, f"bad Content-Length: {raw!r}")
    if length < 0:
        raise HttpError(400, "negative Content-Length")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, "request body too large")
    return length


def format_response(status: int, body: Dict,
                    extra_headers: Optional[Dict[str, str]] = None,
                    connection: str = "close") -> bytes:
    """One complete JSON response; ``connection`` is its
    ``Connection`` header: ``keep-alive`` or ``close``."""
    payload = json.dumps(body, sort_keys=True).encode("utf-8")
    reason = STATUS_TEXT.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             "Content-Type: application/json",
             f"Content-Length: {len(payload)}",
             f"Connection: {connection}"]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + payload


def error_body(status: int, message: str, **extra) -> Dict:
    body = {"error": STATUS_TEXT.get(status, "error").lower()
            .replace(" ", "_"), "detail": message}
    body.update(extra)
    return body
