"""Tenants: one workspace + streaming matcher + micro-batch queue each.

A tenant is keyed by its spec fingerprint (deployment-only sections —
``observability``, ``persistence``, ``serve`` — never enter the
fingerprint, so retuning a deployment keeps the tenant).  Its durable
store opens *lazily* on first use through ``Workspace.stream()``: the
exact path audited for connection leaks on fingerprint rejection, so a
reload against a mismatched store fails without holding a handle.

All engine work — ingest batches, batch matches, cluster queries — runs
in worker threads (``asyncio.to_thread``) serialized by one per-tenant
lock, keeping the event loop free to accept connections while a chase
runs.  The drain task is the queue's single consumer: it takes what is
queued (at most ``max_batch`` events, never waiting for more), ingests
it record by record under one commit, assigns each event a
monotonically increasing ``seq`` in processing order (what the
differential suite replays offline), resolves the waiting futures and
goes straight back to the queue — whatever arrived while the engine was
busy is the next batch.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, Optional

from repro.core.schema import LEFT, RIGHT
from repro.relations.relation import Relation

from .batching import MicroBatchQueue


class TenantClosed(Exception):
    """The tenant stopped before the event was processed (HTTP 503)."""


def parse_side(value: object) -> int:
    """``"left"``/``"right"``/0/1 → the schema-side constant."""
    if value in (LEFT, "left", str(LEFT)):
        return LEFT
    if value in (RIGHT, "right", str(RIGHT)):
        return RIGHT
    raise ValueError(f"side must be 'left' or 'right', got {value!r}")


def side_name(side: int) -> str:
    return "left" if side == LEFT else "right"


class Tenant:
    """One spec's serving state: workspace, matcher, queue, drain task."""

    def __init__(self, workspace, max_batch: int, queue_limit: int) -> None:
        self.workspace = workspace
        self.fingerprint: str = workspace.fingerprint
        self.queue: MicroBatchQueue = MicroBatchQueue(
            max_batch=max_batch, limit=queue_limit
        )
        self._matcher = None
        self._lock = threading.Lock()
        self._seq = 0
        self._drain_task: Optional["asyncio.Task"] = None
        self.draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the queue's single consumer on the running loop."""
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain()
            )

    @property
    def matcher(self):
        """The streaming matcher, opened lazily on first use.

        For a durable spec this opens (or resumes) the SQLite store;
        a failure — fingerprint mismatch, foreign blocking semantics —
        propagates *without* leaking the connection
        (``Workspace.stream()`` closes self-opened stores on every
        rejection path).
        """
        if self._matcher is None:
            self._matcher = self.workspace.stream()
        return self._matcher

    @property
    def opened(self) -> bool:
        """Whether the matcher (and any durable store) is open yet."""
        return self._matcher is not None

    async def close(self, abort: bool = False) -> None:
        """Stop the tenant.

        Graceful (default): the queue stops accepting, every already
        accepted event is processed and committed, then the store
        closes.  ``abort=True`` models a crash for the fault suite:
        accepted-but-unprocessed events fail with :class:`TenantClosed`
        and the store closes without a further commit — batches that
        finished keep their durable commits, nothing else lands.
        """
        self.draining = True
        self.queue.close()
        if abort:
            self.queue.abort_pending(TenantClosed())
        if self._drain_task is not None:
            await self._drain_task
            self._drain_task = None
        if self._matcher is not None:
            await asyncio.to_thread(self._close_store, not abort)

    def _close_store(self, commit: bool) -> None:
        with self._lock:
            self._matcher.store.close(commit=commit)

    # ------------------------------------------------------------------
    # Ingest (producer + consumer sides)
    # ------------------------------------------------------------------

    def submit(self, side: int, values: Dict[str, object], tid) -> "asyncio.Future":
        """Queue one ingest event; resolves to ``(seq, IngestResult)``."""
        return self.queue.submit((side, values, tid))

    async def _drain(self) -> None:
        while True:
            batch = await self.queue.next_batch()
            if batch is None:
                return
            events = [entry.item for entry in batch]
            try:
                numbered = await asyncio.to_thread(self._ingest_batch, events)
            except Exception as error:  # engine failure: fail this batch
                for entry in batch:
                    if not entry.future.done():
                        entry.future.set_exception(error)
                continue
            for entry, outcome in zip(batch, numbered):
                if not entry.future.done():
                    entry.future.set_result(outcome)

    def _ingest_batch(self, events):
        with self._lock:
            matcher = self.matcher
            results = matcher.ingest_batch(events)
            first = self._seq
            self._seq += len(results)
        return [(first + offset, result) for offset, result in enumerate(results)]

    # ------------------------------------------------------------------
    # Queries (worker-thread bodies; call via asyncio.to_thread)
    # ------------------------------------------------------------------

    def query_cluster(self, side: int, tid: int) -> Optional[Dict[str, object]]:
        """The cluster containing ``(side, tid)``; ``None`` when absent."""
        with self._lock:
            store = self.matcher.store
            if tid not in store.relation(side):
                return None
            cluster = store.cluster_of(side, tid)
            return {
                "side": side_name(side),
                "tid": tid,
                "left_tids": sorted(cluster.left_tids),
                "right_tids": sorted(cluster.right_tids),
            }

    def match_batch(self, left_rows, right_rows) -> Dict[str, object]:
        """One batch match over inline rows; the CLI's report shape."""
        pair = self.workspace.plan.pair
        left = Relation(pair.left)
        for values in left_rows:
            left.insert(values)
        right = Relation(pair.right)
        for values in right_rows:
            right.insert(values)
        with self._lock:
            report = self.workspace.match(left, right)
        return report.to_dict()

    def stats(self) -> Dict[str, object]:
        """This tenant's metrics/plan/store counters for ``/metrics``."""
        out: Dict[str, object] = {
            "fingerprint": self.fingerprint,
            "draining": self.draining,
            "queue": {
                "pending": self.queue.pending,
                "limit": self.queue.limit,
                "max_batch": self.queue.max_batch,
                "wait_seconds": self.queue.wait_seconds.summary(),
            },
            "processed": self._seq,
            "metrics": self.workspace.metrics.as_dict(),
        }
        if self._matcher is not None:
            with self._lock:
                out["plan"] = self.workspace.plan.stats.as_dict()
                out["store"] = self._matcher.store.stats()
        return out

    def explain(self) -> str:
        return self.workspace.explain()
