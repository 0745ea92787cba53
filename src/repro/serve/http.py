"""Minimal HTTP/1.1 framing over asyncio streams — no web framework.

The service's transport needs are small enough that stdlib ``asyncio``
streams plus ~150 lines of framing beat a framework dependency: parse a
request line, fold headers, read a ``Content-Length`` body, and write a
correctly framed response with keep-alive.  Anything the parser does not
understand is a clean 400, never an exception escaping to the
connection loop.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

#: Upper bounds keeping one bad client from holding the process hostage.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_COUNT = 100
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class BadRequest(ValueError):
    """A request the framing layer refuses (malformed or oversized)."""


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""
    _json: object = field(default=None, repr=False)

    def json(self) -> object:
        """The body parsed as JSON (:class:`BadRequest` when invalid)."""
        if self._json is None:
            if not self.body:
                raise BadRequest("expected a JSON body")
            try:
                self._json = json.loads(self.body)
            except json.JSONDecodeError as error:
                raise BadRequest(f"invalid JSON body: {error}") from None
        return self._json

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


async def read_request(
    reader: asyncio.StreamReader,
    max_body: int = MAX_BODY_BYTES,
) -> Optional[Request]:
    """Read one request off the stream; ``None`` on a clean EOF.

    Raises :class:`BadRequest` for anything malformed — the connection
    loop answers 400 and closes.
    """
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise BadRequest("truncated request line") from None
    except asyncio.LimitOverrunError:
        raise BadRequest("request line too long") from None
    if len(line) > MAX_REQUEST_LINE:
        raise BadRequest("request line too long")
    parts = line.decode("latin-1").rstrip("\r\n").split()
    if len(parts) != 3:
        raise BadRequest(f"malformed request line: {line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise BadRequest(f"unsupported protocol {version!r}")

    headers: Dict[str, str] = {}
    while True:
        try:
            raw = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise BadRequest("truncated headers") from None
        if raw in (b"\r\n", b"\n"):
            break
        if len(headers) >= MAX_HEADER_COUNT:
            raise BadRequest("too many headers")
        text = raw.decode("latin-1").rstrip("\r\n")
        name, separator, value = text.partition(":")
        if not separator:
            raise BadRequest(f"malformed header line: {text!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        # ``1*DIGIT`` (RFC 9110, 8.6): ``int()`` alone would also take a
        # sign, underscores and non-ASCII digits.
        try:
            if not (length_text.isascii() and length_text.isdigit()):
                raise ValueError(length_text)
            length = int(length_text)
        except ValueError:
            raise BadRequest(f"invalid Content-Length {length_text!r}") from None
        if length > max_body:
            raise BadRequest(f"body of {length} bytes exceeds {max_body}")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise BadRequest("truncated body") from None
    elif headers.get("transfer-encoding"):
        raise BadRequest("chunked requests are not supported")

    split = urlsplit(target)
    query = {
        key: value for key, value in parse_qsl(split.query, keep_blank_values=True)
    }
    return Request(
        method=method.upper(),
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
        body=body,
    )


def response_bytes(
    status: int,
    body: object = None,
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    """A full HTTP/1.1 response; dict/list bodies are JSON-encoded."""
    if body is None:
        payload = b""
    elif isinstance(body, bytes):
        payload = body
    elif isinstance(body, str):
        payload = body.encode("utf-8")
        if content_type == "application/json":
            content_type = "text/plain; charset=utf-8"
    else:
        payload = (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + payload


def error_body(message: str, **extra: object) -> Dict[str, object]:
    """The uniform error payload every non-2xx response carries."""
    body: Dict[str, object] = {"error": message}
    body.update(extra)
    return body


Address = Tuple[str, int]
