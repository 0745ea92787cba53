"""The per-tenant ingest micro-batch queue.

One producer side (HTTP handlers) submits single ingest events and gets
back futures; one consumer (the tenant's drain task) pulls *batches*:
the first event is awaited, then the batch grows until ``max_batch``
events are in hand or ``max_delay`` seconds have passed since the first
— whichever comes first.  The engine then amortizes one pooled
screening chase over the whole batch
(:meth:`repro.engine.matcher.IncrementalMatcher.ingest_batch`), which
is where the service's throughput over per-record ingest comes from.

The queue is bounded: past ``limit`` pending events :meth:`submit`
raises :class:`QueueFull` and the HTTP layer answers 429 with a
``Retry-After`` — backpressure instead of unbounded memory.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Generic, List, Optional, TypeVar

T = TypeVar("T")

#: Sentinel closing the queue; the consumer drains then stops.
_CLOSE = object()


class QueueFull(Exception):
    """The bounded ingest queue is at capacity — shed load (HTTP 429)."""


@dataclass
class _Entry(Generic[T]):
    item: T
    future: "asyncio.Future"


class MicroBatchQueue(Generic[T]):
    """Bounded single-consumer queue that hands out micro-batches."""

    def __init__(self, max_batch: int, max_delay: float, limit: int) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.max_batch = max_batch
        self.max_delay = max(0.0, max_delay)
        self.limit = limit
        # Unbounded at the asyncio level; the limit is enforced in
        # submit() so producers get QueueFull synchronously instead of
        # blocking (the HTTP layer needs to answer 429 immediately).
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self._pending = 0
        self._taken = 0
        self._closed = False

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
        self._queue.put_nowait(_Entry(item, future))
        return future

    def close(self) -> None:
        """Stop accepting events; the consumer drains what is queued."""
        if not self._closed:
            self._closed = True
            self._queue.put_nowait(_CLOSE)

    async def next_batch(self) -> Optional[List["_Entry[T]"]]:
        """The next micro-batch, or ``None`` when closed and drained.

        Waits for the first event, then collects greedily (whatever is
        already queued) and patiently (up to ``max_delay`` seconds from
        the first event) until ``max_batch`` events are in hand.
        """
        first = await self._queue.get()
        if first is _CLOSE:
            return None
        batch: List[_Entry[T]] = [first]
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.max_delay
        while len(batch) < self.max_batch:
            # Greedy phase: take whatever is already there.
            try:
                entry = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                # Patient phase: wait out the rest of the delay budget.
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    entry = await asyncio.wait_for(
                        self._queue.get(), timeout=remaining
                    )
                except asyncio.TimeoutError:
                    break
            if entry is _CLOSE:
                # Keep the sentinel for the next call so the consumer
                # still sees the close after this batch.
                self._queue.put_nowait(_CLOSE)
                break
            batch.append(entry)
        self._pending -= len(batch)
        self._taken += len(batch)
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
