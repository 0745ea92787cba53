"""Unit tests for the stdlib HTTP/1.1 framing layer.

Every malformed or oversized input must surface as :class:`BadRequest`
(the connection loop's clean 400), never as a stray exception — these
feed crafted byte streams straight into :func:`read_request` without a
socket in sight.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.http import (
    BadRequest,
    Request,
    error_body,
    read_request,
    response_bytes,
)


def _read(raw: bytes, **kwargs):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return asyncio.run(run())


def test_parses_request_line_headers_query_and_body():
    payload = json.dumps({"side": "left"}).encode()
    raw = (
        b"POST /ingest?debug=1&empty= HTTP/1.1\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: " + str(len(payload)).encode() + b"\r\n"
        b"\r\n" + payload
    )
    request = _read(raw)
    assert request.method == "POST"
    assert request.path == "/ingest"
    assert request.query == {"debug": "1", "empty": ""}
    assert request.headers["content-type"] == "application/json"
    assert request.json() == {"side": "left"}
    assert request.keep_alive


def test_clean_eof_returns_none():
    assert _read(b"") is None


def test_connection_close_header():
    request = _read(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert not request.keep_alive


def test_percent_encoded_path_is_decoded():
    request = _read(b"GET /query/1%2F2 HTTP/1.1\r\n\r\n")
    assert request.path == "/query/1/2"


@pytest.mark.parametrize(
    "raw, fragment",
    [
        (b"GET /\r\n\r\n", "malformed request line"),
        (b"GET / SPDY/3\r\n\r\n", "unsupported protocol"),
        (b"GET / HTTP/1.1", "truncated request line"),
        (b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n", "malformed header"),
        (b"GET / HTTP/1.1\r\nHost: x", "truncated headers"),
        (
            b"POST / HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
            "invalid Content-Length",
        ),
        (
            b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            "invalid Content-Length",
        ),
        (
            b"POST / HTTP/1.1\r\nContent-Length: +10\r\n\r\n0123456789",
            "invalid Content-Length",
        ),
        (
            b"POST / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789",
            "invalid Content-Length",
        ),
        (
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            "truncated body",
        ),
        (
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "chunked requests are not supported",
        ),
    ],
)
def test_malformed_requests_are_bad_requests(raw, fragment):
    with pytest.raises(BadRequest, match=fragment):
        _read(raw)


def test_content_length_past_ints_digit_limit_is_a_bad_request():
    """``int()`` refuses more than 4 300 digits with a ``ValueError``."""
    with pytest.raises(BadRequest, match="invalid Content-Length"):
        _read(b"POST / HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n")


def test_oversized_request_line_rejected():
    raw = b"GET /" + b"a" * (9 * 1024) + b" HTTP/1.1\r\n\r\n"
    with pytest.raises(BadRequest, match="request line too long"):
        _read(raw)


def test_too_many_headers_rejected():
    headers = b"".join(
        b"X-Header-%d: v\r\n" % index for index in range(101)
    )
    with pytest.raises(BadRequest, match="too many headers"):
        _read(b"GET / HTTP/1.1\r\n" + headers + b"\r\n")


def test_body_over_limit_rejected_before_reading_it():
    raw = b"POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n" + b"x" * 1000
    with pytest.raises(BadRequest, match="exceeds"):
        _read(raw, max_body=100)


def test_json_of_empty_or_invalid_body_is_bad_request():
    with pytest.raises(BadRequest, match="expected a JSON body"):
        Request("POST", "/", {}, {}).json()
    with pytest.raises(BadRequest, match="invalid JSON body"):
        Request("POST", "/", {}, {}, body=b"{nope").json()


def test_response_bytes_frames_json_text_and_bytes():
    framed = response_bytes(200, {"ok": 1})
    head, _, payload = framed.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK\r\n")
    assert b"Content-Type: application/json" in head
    assert json.loads(payload) == {"ok": 1}

    text = response_bytes(503, "down", keep_alive=False)
    assert b"Content-Type: text/plain; charset=utf-8" in text
    assert b"Connection: close" in text
    assert text.endswith(b"down")

    raw = response_bytes(200, b"\x00\x01", content_type="application/octet-stream")
    assert raw.endswith(b"\x00\x01")
    assert response_bytes(200).endswith(b"\r\n\r\n")  # empty body

    with_extra = response_bytes(
        429, error_body("full", retry_after=2), extra_headers={"Retry-After": "2"}
    )
    assert b"Retry-After: 2" in with_extra
    assert b"HTTP/1.1 429 Too Many Requests" in with_extra

    unknown = response_bytes(418, None)
    assert unknown.startswith(b"HTTP/1.1 418 Unknown\r\n")


def test_error_body_merges_extras():
    assert error_body("nope", code=7) == {"error": "nope", "code": 7}
