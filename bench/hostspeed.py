"""How fast the host is running, measured where and while the work runs.

This sandbox is two virtual CPUs of a shared host.  The speed of each
moves by tens of per cent from one second to the next and stays low for
minutes at a time (measured: a fixed loop takes 1.0x to 1.8x its best
time, second by second); the two CPUs move *separately* (correlation of
1 s windows pinned to different CPUs: -0.2 to 0.5), while unrelated
pure-Python loops on one CPU move together (0.98).  No steal time is
reported.  A 20 s run cannot average that out, so the benchmark measures
it: it pins the program under test to one CPU and itself to the other,
runs a fixed pure-Python **unit** on each CPU beside the work, and
divides every end-to-end timing by the **slowdown** of the interval and
CPU it was taken on — the mean unit time there over
:data:`REFERENCE_UNIT_S`.  A compensated timing is the time the same
work takes on a host where the unit takes the reference time.

Two timelines of unit times:

* ``host.program`` — the CPU of the CLI and server children.  A sampler
  child pinned there runs the unit at a tenth of the CPU and logs each
  run to a file the benchmark reads back.
* ``host.local`` — the benchmark's own CPU, where the in-process stream
  and the set-ups run.  The benchmark runs the unit itself, between
  timed operations (``tick``), never inside one.

The clock is ``time.perf_counter`` — ``CLOCK_MONOTONIC`` on Linux, one
epoch for every process — so the child's stamps index the benchmark's
intervals directly.
"""

from __future__ import annotations

import os
import statistics
import struct
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Tuple

#: Iterations of the unit's loop: about half a millisecond on this sandbox.
UNIT_LOOPS = 3000
#: The unit's time on the reference host: about this sandbox's median
#: over quiet and busy phases when the benchmark was defined.  Only a
#: scale — compensated values read like this sandbox's typical raw ones.
REFERENCE_UNIT_S = 0.0005
#: Share of the program's CPU the sampler child uses.
DUTY = 0.1
#: An interval is widened until it holds this many samples.
MIN_SAMPLES = 25
#: A sample counts for at most this many times the interval's median.
#: Twice: on identical CLI runs the compensated walls spread 1.3 % with
#: it, 4.3 % capped at four medians, 8.6 % uncapped (3.6 % as measured).
CAP = 2.0
_RECORD = struct.Struct("dd")


def unit() -> int:
    """Integer arithmetic, string building and dictionary inserts: the
    mix the program under test is made of."""
    table = {}
    x = 0
    for i in range(UNIT_LOOPS):
        x = (x * 31 + i) & 0xFFFF
        table[str(x)] = i
    return len(table)


def cpus() -> Tuple[int, int]:
    """``(program CPU, benchmark CPU)``: the first and the last CPU this
    process may run on (the same one where there is only one)."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


def pin(pid: int, cpu: int) -> None:
    """Keep process ``pid`` (0: this one) and its future threads on ``cpu``."""
    os.sched_setaffinity(pid, {cpu})


class Timeline:
    """Unit times in the order they were taken on one CPU."""

    def __init__(self) -> None:
        self.began: List[float] = []
        self.took: List[float] = []

    def tick(self, times: int = 1) -> float:
        """Run the unit here and now; returns the seconds it used, for
        the caller to take off a wall that spans the call."""
        start = time.perf_counter()
        for _ in range(times):
            began = time.perf_counter()
            unit()
            self.began.append(began)
            self.took.append(time.perf_counter() - began)
        return time.perf_counter() - start

    def refresh(self) -> None:
        """Nothing to fetch: ``tick`` appends in place."""

    def slowdown(self, start: float, end: float) -> float:
        """Mean unit time of the samples begun in ``[start, end]``
        (widened to :data:`MIN_SAMPLES`) over the reference unit time.

        The mean, because a CPU that is slow for part of the interval
        slows the work by its share of the time, which a median of two
        modes does not follow; each sample capped at :data:`CAP` medians,
        because a unit that lost the CPU for 5 ms — to the very program
        it runs beside, or to the host — stands for a loss of 5 ms, not
        of 5 ms per sample."""
        if not self.began or self.began[-1] < end:
            self.refresh()
        low = bisect_left(self.began, start)
        high = bisect_right(self.began, end)
        short = MIN_SAMPLES - (high - low)
        if short > 0:
            low = max(0, low - (short + 1) // 2)
            high = min(len(self.began), high + (short + 1) // 2)
        took = self.took[low:high]
        cap = CAP * statistics.median(took)
        return statistics.fmean(min(t, cap) for t in took) / REFERENCE_UNIT_S

    def slowdown_at(self, instant: float, width: float = 1.0) -> float:
        """The slowdown of the ``width`` seconds around ``instant``."""
        return self.slowdown(instant - width / 2.0, instant + width / 2.0)

    def samples(self) -> List[List[float]]:
        """Every ``[began, took]`` so far, for ``--out``."""
        self.refresh()
        return [list(pair) for pair in zip(self.began, self.took)]


class SampledTimeline(Timeline):
    """A timeline fed by the sampler child's log."""

    def __init__(self, path: Path) -> None:
        super().__init__()
        self.path = path

    def refresh(self) -> None:
        with self.path.open("rb") as source:
            source.seek(len(self.began) * _RECORD.size)
            data = source.read()
        whole = len(data) // _RECORD.size * _RECORD.size
        for began, took in _RECORD.iter_unpack(data[:whole]):
            self.began.append(began)
            self.took.append(took)


def sample_forever(path: str, cpu: int) -> None:
    """The sampler child: log ``(began, took)`` per unit until the
    benchmark is gone (it is normally terminated first)."""
    pin(0, cpu)
    parent = os.getppid()
    with open(path, "ab", buffering=0) as sink:
        while os.getppid() == parent:
            began = time.perf_counter()
            unit()
            took = time.perf_counter() - began
            sink.write(_RECORD.pack(began, took))
            time.sleep(took * (1.0 / DUTY - 1.0))


class HostSpeed:
    """Pins the benchmark, runs the sampler child, holds both timelines."""

    def __init__(self, workdir: Path) -> None:
        self.allowed = os.sched_getaffinity(0)
        self.program_cpu, self.own_cpu = cpus()
        pin(0, self.own_cpu)
        self.local = Timeline()
        path = workdir / "hostspeed.bin"
        path.unlink(missing_ok=True)
        self.program = SampledTimeline(path)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "bench.hostspeed", str(path), str(self.program_cpu)],
            cwd=Path(__file__).resolve().parent.parent,
        )
        try:
            deadline = time.perf_counter() + 30.0
            while not path.exists() or path.stat().st_size < _RECORD.size:
                if self.process.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError("the host-speed sampler did not start")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        self.process.wait()

    @contextmanager
    def unpinned(self) -> Iterator[None]:
        """Every CPU for this process and what it forks, for in-process
        work that is meant to use them (the parallel-chase probe)."""
        os.sched_setaffinity(0, self.allowed)
        try:
            yield
        finally:
            pin(0, self.own_cpu)


class AsMeasured:
    """Stands in for a :class:`Timeline` to get the uncompensated numbers."""

    @staticmethod
    def slowdown(start: float, end: float) -> float:
        return 1.0

    @staticmethod
    def slowdown_at(instant: float, width: float = 1.0) -> float:
        return 1.0


if __name__ == "__main__":
    sample_forever(sys.argv[1], int(sys.argv[2]))
