"""Shared helpers for the service test suites.

Everything here keeps one invariant front and center: what the HTTP
service does must be *bit-identical* to the offline ``Workspace`` path.
The suites compare stores with ``store_state.state`` (the surface the
backend differential suite uses too); the helpers here add the spec
builder, wire-shape records and a tiny synchronous HTTP client (stdlib ``http.client``) so tests drive the real wire protocol,
not a shortcut into the handler functions.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
from typing import Dict, Optional, Tuple

from repro.api import Workspace
from repro.core.schema import LEFT
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.serve import ResolutionServer, ServerThread

_DATASETS: Dict[Tuple[int, int], object] = {}


def dataset(size: int = 120, seed: int = 11):
    """A cached test dataset (generation is the slow part)."""
    key = (size, seed)
    if key not in _DATASETS:
        _DATASETS[key] = generate_dataset(size, seed=seed)
    return _DATASETS[key]


def builder(dataset, backend: str = "hash"):
    """The suite's spec builder: hash blocking (the batched-chase path)."""
    return (
        Workspace.builder()
        .pair(dataset.pair)
        .target(dataset.target)
        .mds(extended_mds(dataset.pair))
        .blocking(backend)
        .execution(top_k=5)
    )


def event_record(event) -> Dict[str, object]:
    """A stream event as the wire-shape ``/ingest`` record."""
    return {
        "side": "left" if event.side == LEFT else "right",
        "values": dict(event.values),
        "tid": event.tid,
    }


class ServeClient:
    """A keep-alive JSON client over stdlib ``http.client``."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.connection = http.client.HTTPConnection(
            host, port, timeout=timeout
        )

    def request(
        self, method: str, path: str, body: Optional[object] = None
    ) -> Tuple[int, object, Dict[str, str]]:
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body)
            headers["Content-Type"] = "application/json"
        self.connection.request(method, path, body=payload, headers=headers)
        response = self.connection.getresponse()
        raw = response.read()
        response_headers = {
            name.lower(): value for name, value in response.getheaders()
        }
        if response_headers.get("content-type", "").startswith(
            "application/json"
        ):
            parsed: object = json.loads(raw) if raw else None
        else:
            parsed = raw.decode("utf-8")
        return response.status, parsed, response_headers

    def close(self) -> None:
        self.connection.close()


def start_server(spec) -> Tuple[ServerThread, str, int]:
    """A running server on an ephemeral port; caller stops the thread."""
    server = ResolutionServer(dataclasses.replace(spec, serve_port=0))
    thread = ServerThread(server)
    host, port = thread.start()
    return thread, host, port
