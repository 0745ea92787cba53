"""The per-tenant ingest micro-batch queue.

One producer side (HTTP handlers) submits single ingest events and gets
back futures; one consumer (the tenant's drain task) pulls *batches*:
the first event is awaited, the rest of the batch is whatever is already
queued behind it, up to ``max_batch`` — nothing here waits on a clock.
The consumer returns as soon as the engine has committed the previous
batch, so batches grow exactly when the engine is the bottleneck (one
commit of :meth:`repro.engine.matcher.IncrementalMatcher.ingest_batch`
then covers everything that piled up) and are one event long when it is
not.

The queue is bounded: past ``limit`` pending events :meth:`submit`
raises :class:`QueueFull` and the HTTP layer answers 429 with a
``Retry-After`` — backpressure instead of unbounded memory.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Generic, List, Optional, TypeVar

from repro.obs.metrics import Histogram

T = TypeVar("T")

#: Sentinel closing the queue; the consumer drains then stops.
_CLOSE = object()


class QueueFull(Exception):
    """The bounded ingest queue is at capacity — shed load (HTTP 429)."""


@dataclass
class _Entry(Generic[T]):
    item: T
    future: "asyncio.Future"
    submitted: float  # perf_counter() at submit


class MicroBatchQueue(Generic[T]):
    """Bounded single-consumer queue that hands out micro-batches."""

    def __init__(self, max_batch: int, limit: int) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.max_batch = max_batch
        self.limit = limit
        # Unbounded at the asyncio level; the limit is enforced in
        # submit() so producers get QueueFull synchronously instead of
        # blocking (the HTTP layer needs to answer 429 immediately).
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self._pending = 0
        self._taken = 0
        self._closed = False
        #: Submit → handed to the consumer, per event (``/metrics`` shows
        #: it beside ``engine.batch_seconds``: time queued vs time worked).
        self.wait_seconds = Histogram()

    @property
    def pending(self) -> int:
        """Events submitted but not yet handed to the consumer."""
        return self._pending

    @property
    def taken(self) -> int:
        """Total events ever handed to the consumer in batches.

        Monotone, so an observer can distinguish "the queue is empty
        because the consumer took the event" from "the queue is empty
        because the event never arrived" — ``pending`` alone cannot.
        """
        return self._taken

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, item: T) -> "asyncio.Future":
        """Enqueue one event; the future resolves to its ingest result.

        Raises :class:`QueueFull` at capacity and :class:`RuntimeError`
        after :meth:`close` (the HTTP layer maps that to 503).
        """
        if self._closed:
            raise RuntimeError("queue is closed")
        if self._pending >= self.limit:
            raise QueueFull()
        future = asyncio.get_running_loop().create_future()
        self._pending += 1
        self._queue.put_nowait(_Entry(item, future, time.perf_counter()))
        return future

    def close(self) -> None:
        """Stop accepting events; the consumer drains what is queued."""
        if not self._closed:
            self._closed = True
            self._queue.put_nowait(_CLOSE)

    async def next_batch(self) -> Optional[List["_Entry[T]"]]:
        """The next micro-batch, or ``None`` when closed and drained.

        Waits for the first event only; the rest of the batch is what
        is queued behind it right now, up to ``max_batch``.
        """
        first = await self._queue.get()
        if first is _CLOSE:
            return None
        batch: List[_Entry[T]] = [first]
        while len(batch) < self.max_batch:
            try:
                entry = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if entry is _CLOSE:
                # Keep the sentinel for the next call so the consumer
                # still sees the close after this batch.
                self._queue.put_nowait(_CLOSE)
                break
            batch.append(entry)
        self._pending -= len(batch)
        self._taken += len(batch)
        now = time.perf_counter()
        for entry in batch:
            self.wait_seconds.observe(now - entry.submitted)
        return batch

    def abort_pending(self, error: BaseException) -> int:
        """Fail every queued event (abortive shutdown); returns count."""
        failed = 0
        saw_close = False
        while True:
            try:
                entry = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if entry is _CLOSE:
                # Put the sentinel back after the sweep: the consumer's
                # next get() must still observe the close, or it waits
                # forever on a queue nothing will ever feed again.
                saw_close = True
                continue
            if not entry.future.done():
                entry.future.set_exception(error)
            failed += 1
        if saw_close:
            self._queue.put_nowait(_CLOSE)
        self._pending -= failed
        return failed
