"""What a workload pass hands back to the command line."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .common import summarise


@dataclass
class Measure:
    """One metric of one workload.

    ``value`` is what ``BENCHMARK.json`` gates (a median where there are
    samples); ``None`` means the workload does not exercise the layer or
    a probed knob is gone, and ``note`` says which.
    """

    value: Optional[float]
    samples: Optional[List[float]] = None
    note: Optional[str] = None

    def summary(self) -> Dict[str, object]:
        if self.value is None:
            return {"value": None, "note": self.note}
        spread = summarise(self.samples if self.samples else [self.value])
        out: Dict[str, object] = {"value": self.value, **spread}
        if self.note:
            out["note"] = self.note
        return out


def median_of(samples: Sequence[float], note: Optional[str] = None) -> Measure:
    samples = list(samples)
    return Measure(summarise(samples)["median"], samples, note)


def uncompensated(timings: Dict[str, Measure]) -> Dict[str, float]:
    """The values of timings computed with ``hostspeed.AsMeasured``."""
    return {name: measure.value for name, measure in timings.items()}


BYPASSED = "not exercised or not probed on this workload"


def bypassed() -> Measure:
    return Measure(None, note=BYPASSED)


@dataclass
class PassResult:
    """One pass (end-to-end or traced) of one workload."""

    metrics: Dict[str, Measure]
    attempted: int
    #: Operations that failed, were refused, or returned a wrong answer.
    failed_ops: int
    #: Human-readable correctness failures; empty means correct.
    problems: List[str] = field(default_factory=list)
    #: Raw samples and facts for ``--out``.
    raw: Dict[str, object] = field(default_factory=dict)
    spans: List[Dict[str, object]] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def failed(self) -> int:
        """Failed operations; a failed cross-check with every operation
        answered still counts as one."""
        return max(self.failed_ops, int(bool(self.problems)))
