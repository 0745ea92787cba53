"""`repro serve`: the asyncio resolution service over :class:`Workspace`.

Endpoints (all JSON unless noted):

- ``POST /ingest`` — one record (``{"side", "values", "tid"?}``) or a
  list (``{"records": [...]}``); each event rides a per-tenant
  micro-batch (what is queued when the engine comes free; per-record
  ingest and one commit per batch) and resolves to its
  ``seq``/``tid``/``matches``.  A full queue answers **429** with
  ``Retry-After`` — backpressure, never silent loss — and is counted
  (``serve.ingest.shed`` requests, ``serve.ingest.shed_records``).
- ``POST /match`` — batch matching over inline rows
  (``{"left": [...], "right": [...]}``); the CLI's report shape.
- ``GET /query/<tid>?side=left|right`` — the record's live cluster.
- ``GET /explain`` — the compiled plan, human-readable (text/plain).
- ``GET /healthz`` — liveness + tenant roster (never opens stores).
- ``GET /metrics`` — per-endpoint latency summaries (p50/p95/p99) and
  request counters, plus each tenant's engine/plan/store/queue counters.
- ``POST /admin/reload`` — hot spec swap: a document with a *new*
  fingerprint becomes a fresh tenant (lazily opening its store) and
  takes over serving; the old tenant drains its queue, commits, and
  closes in the background.  Same fingerprint → no-op (deployment-only
  sections never enter the fingerprint).
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Optional

from repro.api.spec import ResolutionSpec, SpecError
from repro.api.workspace import Workspace
from repro.engine.store import check_tid
from repro.obs.metrics import MetricsRegistry

from .batching import QueueFull
from .http import (
    BadRequest,
    Request,
    error_body,
    read_request,
    response_bytes,
)
from .tenants import Tenant, TenantClosed, parse_side

#: What a 429 says to wait; a full queue drains at the engine's pace.
RETRY_AFTER_SECONDS = 1


class ResolutionServer:
    """One listening socket, one primary tenant, any number draining."""

    def __init__(self, spec: ResolutionSpec) -> None:
        # The spec's ``serve`` section is the whole deployment shape; the
        # CLI lowers its flags into the spec before it gets here.  (A
        # reload swaps the rules, not the shape: later tenants keep it.)
        self.host = spec.serve_host
        self.port = spec.serve_port
        self.max_batch = spec.serve_max_batch
        self.queue_limit = spec.serve_queue_limit
        self.metrics = MetricsRegistry()
        self.tenants: Dict[str, Tenant] = {}
        self.primary: str = ""
        self._adopt(Workspace(spec))
        self._server: Optional["asyncio.base_events.Server"] = None
        self._reload_lock: Optional["asyncio.Lock"] = None
        self._background: set = set()
        self._connections: set = set()

    def _adopt(self, workspace: Workspace) -> Tenant:
        tenant = Tenant(
            workspace, max_batch=self.max_batch, queue_limit=self.queue_limit
        )
        self.tenants[tenant.fingerprint] = tenant
        self.primary = tenant.fingerprint
        return tenant

    @property
    def tenant(self) -> Tenant:
        """The primary (serving) tenant."""
        return self.tenants[self.primary]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the primary tenant's consumer."""
        self._reload_lock = asyncio.Lock()
        self.tenant.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.host, self.port = sock.getsockname()[:2]
            break

    @property
    def address(self):
        """The bound ``(host, port)`` — resolved after :meth:`start`."""
        return self.host, self.port

    async def stop(self, abort: bool = False) -> None:
        """Stop listening, then stop every tenant.

        Graceful (default): every accepted ingest is processed and
        durably committed before the stores close.  ``abort=True``
        models a crash (the fault suite's kill): queued events fail,
        only batches that already committed survive.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._background):
            await task
        for tenant in list(self.tenants.values()):
            await tenant.close(abort=abort)
        self.tenants.clear()
        # Reap connection handlers: in-flight responses (resolved while
        # the tenants drained above) get a beat to flush, then lingering
        # keep-alive connections are cancelled so no coroutine outlives
        # the loop.
        if self._connections:
            done, pending = await asyncio.wait(
                set(self._connections), timeout=1.0
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        self._connections.clear()

    # ------------------------------------------------------------------
    # Connection loop
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except BadRequest as error:
                    writer.write(
                        response_bytes(
                            400, error_body(str(error)), keep_alive=False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                payload = await self._dispatch(request)
                writer.write(payload)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: Request) -> bytes:
        endpoint, handler = self._route(request)
        started = time.perf_counter()
        try:
            status, body, extra = await handler(request)
        except BadRequest as error:
            status, body, extra = 400, error_body(str(error)), None
        except SpecError as error:
            # Before the ValueError clause: SpecError IS a ValueError,
            # and its structured errors list must reach the client.
            status, body, extra = (
                400,
                error_body("invalid spec", errors=list(error.errors)),
                None,
            )
        except (KeyError, ValueError) as error:
            status, body, extra = 400, error_body(str(error)), None
        except QueueFull:
            status, body, extra = (
                429,
                error_body(
                    "ingest queue full",
                    retry_after=RETRY_AFTER_SECONDS,
                    queue_limit=self.queue_limit,
                ),
                {"Retry-After": str(RETRY_AFTER_SECONDS)},
            )
        except (TenantClosed, RuntimeError) as error:
            status, body, extra = (
                503,
                error_body(f"tenant unavailable: {error}"),
                None,
            )
        except Exception as error:  # pragma: no cover - last-resort guard
            status, body, extra = (
                500,
                error_body(f"{type(error).__name__}: {error}"),
                None,
            )
        elapsed = time.perf_counter() - started
        self.metrics.count("serve.requests")
        self.metrics.count(f"serve.{endpoint}.requests")
        self.metrics.count(f"serve.status.{status // 100}xx")
        self.metrics.observe(f"serve.{endpoint}.seconds", elapsed)
        content_type = (
            "text/plain; charset=utf-8"
            if isinstance(body, str)
            else "application/json"
        )
        return response_bytes(
            status, body, content_type=content_type, extra_headers=extra
        )

    def _route(self, request: Request):
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return "healthz", self._handle_healthz
        if path == "/metrics" and method == "GET":
            return "metrics", self._handle_metrics
        if path == "/explain" and method == "GET":
            return "explain", self._handle_explain
        if path == "/ingest" and method == "POST":
            return "ingest", self._handle_ingest
        if path == "/match" and method == "POST":
            return "match", self._handle_match
        if path.startswith("/query/") and method == "GET":
            return "query", self._handle_query
        if path == "/admin/reload" and method == "POST":
            return "reload", self._handle_reload
        return "unrouted", self._handle_unrouted

    # ------------------------------------------------------------------
    # Handlers (each returns (status, body, extra_headers))
    # ------------------------------------------------------------------

    async def _handle_unrouted(self, request: Request):
        known = (
            "/healthz", "/metrics", "/explain", "/ingest", "/match",
            "/query/<tid>", "/admin/reload",
        )
        return (
            404,
            error_body(
                f"no route for {request.method} {request.path}",
                routes=list(known),
            ),
            None,
        )

    async def _handle_healthz(self, request: Request):
        return (
            200,
            {
                "status": "ok",
                "fingerprint": self.primary,
                "tenants": {
                    fingerprint: {
                        "draining": tenant.draining,
                        "opened": tenant.opened,
                        "pending": tenant.queue.pending,
                    }
                    for fingerprint, tenant in self.tenants.items()
                },
            },
            None,
        )

    async def _handle_metrics(self, request: Request):
        tenants = {
            fingerprint: await asyncio.to_thread(tenant.stats)
            for fingerprint, tenant in self.tenants.items()
        }
        return (
            200,
            {"server": self.metrics.as_dict(), "tenants": tenants},
            None,
        )

    async def _handle_explain(self, request: Request):
        text = await asyncio.to_thread(self.tenant.explain)
        return 200, text, None

    async def _handle_ingest(self, request: Request):
        document = request.json()
        if not isinstance(document, dict):
            raise BadRequest("expected a JSON object body")
        if "records" in document:
            records = document["records"]
            if not isinstance(records, list) or not records:
                raise BadRequest("records: expected a non-empty list")
        else:
            records = [document]
        tenant = self.tenant
        spec = tenant.workspace.spec
        schemas = (
            (spec.left_name, spec.left_attributes),
            (spec.right_name, spec.right_attributes),
        )
        futures = []
        named = set()
        for position, record in enumerate(records):
            if not isinstance(record, dict):
                raise BadRequest(f"records[{position}]: expected an object")
            side = parse_side(record.get("side"))
            values = record.get("values")
            if not isinstance(values, dict):
                raise BadRequest(
                    f"records[{position}].values: expected an object"
                )
            name, attributes = schemas[side]
            unknown = set(values).difference(attributes)
            if unknown:
                raise BadRequest(
                    f"records[{position}].values: attributes {sorted(unknown)} "
                    f"not in schema {name!r}"
                )
            tid = record.get("tid")
            if tid is not None:
                try:
                    check_tid(tid)
                except ValueError as error:
                    raise BadRequest(f"records[{position}].tid: {error}") from None
                if (side, tid) in named:
                    raise BadRequest(
                        f"records[{position}].tid: tuple id {tid} appears "
                        "twice in this request"
                    )
                named.add((side, tid))
            futures.append((side, values, tid))
        # All-or-nothing admission: a record the store would refuse for
        # its own shape is a 400 above, and either every record of the
        # request fits the queue or QueueFull sheds the whole request — a
        # client retries the request as a unit, so nothing is
        # half-applied on 400 or 429.  (A tid already stored or queued
        # still fails its batch.)  The capacity check and the submits run
        # without an await in between, so no other handler can take the
        # headroom first.
        if len(futures) > tenant.queue.limit - tenant.queue.pending:
            self.metrics.count("serve.ingest.shed")
            self.metrics.count("serve.ingest.shed_records", len(futures))
            raise QueueFull()
        enqueued = [
            tenant.submit(side, values, tid) for side, values, tid in futures
        ]
        outcomes = await asyncio.gather(*enqueued)
        results = []
        for seq, result in outcomes:
            results.append(
                {
                    "seq": seq,
                    "side": "left" if result.side == 0 else "right",
                    "tid": result.tid,
                    "candidates": len(result.candidates),
                    "matches": [list(pair) for pair in result.matches],
                    "merged": result.merged,
                }
            )
        self.metrics.count("serve.ingested", len(results))
        return 200, {"results": results}, None

    async def _handle_match(self, request: Request):
        document = request.json()
        if not isinstance(document, dict):
            raise BadRequest("expected a JSON object body")
        left = document.get("left", [])
        right = document.get("right", [])
        for name, rows in (("left", left), ("right", right)):
            if not isinstance(rows, list) or not all(
                isinstance(row, dict) for row in rows
            ):
                raise BadRequest(f"{name}: expected a list of row objects")
        report = await asyncio.to_thread(self.tenant.match_batch, left, right)
        return 200, report, None

    async def _handle_query(self, request: Request):
        tail = request.path[len("/query/"):]
        try:
            tid = int(tail)
        except ValueError:
            raise BadRequest(f"query tid must be an integer, got {tail!r}")
        side = parse_side(request.query.get("side", "left"))
        cluster = await asyncio.to_thread(
            self.tenant.query_cluster, side, tid
        )
        if cluster is None:
            return (
                404,
                error_body(
                    f"no {request.query.get('side', 'left')} record with "
                    f"tid {tid}"
                ),
                None,
            )
        return 200, cluster, None

    async def _handle_reload(self, request: Request):
        document = request.json()
        spec = ResolutionSpec.from_dict(document)  # SpecError → 400
        async with self._reload_lock:
            fingerprint = spec.fingerprint()
            if fingerprint == self.primary:
                return (
                    200,
                    {"reloaded": False, "fingerprint": fingerprint},
                    None,
                )
            previous = self.tenant
            tenant = self._adopt(Workspace(spec))
            tenant.start()
            # The old tenant drains in the background: accepted ingests
            # still process and commit, then its store closes and it
            # drops off /healthz.
            task = asyncio.get_running_loop().create_task(
                self._retire(previous)
            )
            self._background.add(task)
            task.add_done_callback(self._background.discard)
            self.metrics.count("serve.reloads")
            return (
                200,
                {
                    "reloaded": True,
                    "fingerprint": fingerprint,
                    "draining": previous.fingerprint,
                },
                None,
            )

    async def _retire(self, tenant: Tenant) -> None:
        try:
            await tenant.close(abort=False)
        finally:
            existing = self.tenants.get(tenant.fingerprint)
            if existing is tenant:
                del self.tenants[tenant.fingerprint]
