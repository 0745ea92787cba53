"""The micro-batch queue, on its own: natural batching, no clock.

``next_batch`` awaits the first event and then takes what is *already
queued*, up to ``max_batch`` — it never waits for company.  Every test
runs on an event loop whose timer entry points raise, so a deadline or
a sleep anywhere on the path fails the test instead of slowing it; none
of them sleeps either, the interleavings are forced by submitting
before (or while) the consumer is parked on its first ``get``.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools

import pytest

from repro.serve import batching
from repro.serve.batching import MicroBatchQueue, QueueFull


def run(coroutine):
    """Run ``coroutine`` on a loop that refuses to schedule a timer."""

    def no_timers(*args, **kwargs):
        raise AssertionError("the ingest path must not schedule a timer")

    loop = asyncio.new_event_loop()
    loop.call_later = no_timers
    loop.call_at = no_timers
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()


def items(batch):
    return [entry.item for entry in batch]


def test_one_event_is_a_batch_of_one_without_a_timer():
    async def scenario():
        queue = MicroBatchQueue(max_batch=16, limit=64)
        future = queue.submit("only")
        batch = await queue.next_batch()
        assert items(batch) == ["only"]
        assert batch[0].future is future and not future.done()
        assert (queue.pending, queue.taken) == (0, 1)

    run(scenario())


def test_the_module_has_no_timer_to_reach_for():
    source = inspect.getsource(batching)
    assert "wait_for" not in source
    assert "sleep" not in source


@pytest.mark.parametrize("count", [1, 3, 4, 5, 9])
def test_events_queued_while_the_consumer_is_held_are_one_batch(count):
    """The consumer is parked on an empty queue; ``count`` submits land
    before it runs again (a bulk request's submits have no await between
    them, and so do events that pile up behind a running batch)."""
    max_batch = 4

    async def scenario():
        queue = MicroBatchQueue(max_batch=max_batch, limit=64)
        consumer = asyncio.ensure_future(queue.next_batch())
        await asyncio.sleep(0)  # a bare yield, not a timer: park it on get()
        assert not consumer.done()
        for item in range(count):
            queue.submit(item)
            assert (queue.pending, queue.taken) == (item + 1, 0)
        first = await consumer
        taken = min(count, max_batch)
        assert items(first) == list(range(taken))
        assert (queue.pending, queue.taken) == (count - taken, taken)
        # The remainder is the next batches, still in submission order.
        seen = items(first)
        while queue.pending:
            batch = await queue.next_batch()
            assert 1 <= len(batch) <= max_batch
            seen.extend(items(batch))
        assert seen == list(range(count))
        assert (queue.pending, queue.taken) == (0, count)

    run(scenario())


def test_close_met_mid_take_ends_the_batch_and_the_next_call_sees_it():
    async def scenario():
        queue = MicroBatchQueue(max_batch=4, limit=64)
        queue.submit("a")
        queue.submit("b")
        queue.close()
        assert queue.closed
        with pytest.raises(RuntimeError):
            queue.submit("late")
        assert items(await queue.next_batch()) == ["a", "b"]
        assert (queue.pending, queue.taken) == (0, 2)
        assert await queue.next_batch() is None
        queue.close()  # idempotent: no second sentinel to trip over

    run(scenario())


def test_abort_after_a_partial_take_fails_exactly_the_untaken():
    async def scenario():
        queue = MicroBatchQueue(max_batch=2, limit=64)
        futures = [queue.submit(item) for item in range(5)]
        taken = await queue.next_batch()
        assert items(taken) == [0, 1]
        assert (queue.pending, queue.taken) == (3, 2)
        queue.close()
        error = RuntimeError("tenant stopped")
        assert queue.abort_pending(error) == 3
        assert (queue.pending, queue.taken) == (0, 2)
        assert not any(future.done() for future in futures[:2])
        for future in futures[2:]:
            assert future.exception() is error
        # The sweep kept the close: the consumer stops instead of
        # waiting on a queue nothing will feed again.
        assert await queue.next_batch() is None
        assert queue.abort_pending(error) == 0

    run(scenario())


def test_the_limit_sheds_synchronously_and_frees_up_as_batches_leave():
    async def scenario():
        queue = MicroBatchQueue(max_batch=2, limit=3)
        for item in range(3):
            queue.submit(item)
        with pytest.raises(QueueFull):
            queue.submit("over")
        assert queue.pending == 3  # the shed event left no trace
        await queue.next_batch()
        queue.submit("fits now")
        assert (queue.pending, queue.taken) == (2, 2)

    run(scenario())


def test_wait_is_observed_once_per_event_at_hand_over(monkeypatch):
    clock = itertools.count(100)
    monkeypatch.setattr(batching.time, "perf_counter", lambda: float(next(clock)))

    async def scenario():
        queue = MicroBatchQueue(max_batch=2, limit=64)
        for item in "abc":  # stamped 100, 101, 102
            queue.submit(item)
        assert queue.wait_seconds.count == 0
        await queue.next_batch()  # handed over at 103
        assert queue.wait_seconds.values == [3.0, 2.0]
        await queue.next_batch()  # handed over at 104
        assert queue.wait_seconds.values == [3.0, 2.0, 2.0]
        assert queue.wait_seconds.count == queue.taken == 3

    run(scenario())


def test_there_is_no_delay_to_configure():
    with pytest.raises(TypeError):
        MicroBatchQueue(max_batch=4, max_delay=0.01, limit=64)
    for bad in ({"max_batch": 0, "limit": 1}, {"max_batch": 1, "limit": 0}):
        with pytest.raises(ValueError):
            MicroBatchQueue(**bad)
