"""Shared experiment infrastructure: timed runs, specs, table rendering.

Each ``exp_*`` module computes one figure of Section 6 and returns plain
record lists; this harness renders them as the aligned text tables that
EXPERIMENTS.md records and ``examples/run_all_experiments.py`` prints.
It also builds the :class:`repro.api.ResolutionSpec` documents the
experiments execute through (:func:`resolution_spec_document`), so an
experiment configuration is the same kind of artifact a user would pass
to ``repro match --spec``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.parser import format_md


def resolution_spec_document(
    pair,
    target,
    sigma,
    rcks=None,
    blocking: Optional[Dict[str, object]] = None,
    execution: Optional[Dict[str, object]] = None,
    top_k: int = 5,
) -> Dict[str, object]:
    """An experiment configuration as a raw ResolutionSpec document.

    ``sigma`` is a sequence of parsed MDs (serialized back to text) and
    ``rcks`` an optional sequence of :class:`~repro.core.rck.RelativeKey`
    to pin explicitly — experiments deduce keys with dataset-specific
    cost models, which the spec then records verbatim.  The result is a
    plain dict; validate/realize it with
    :meth:`repro.api.ResolutionSpec.from_dict`.
    """
    document: Dict[str, object] = {
        "version": 1,
        "schema": {
            "left": {
                "name": pair.left.name,
                "attributes": list(pair.left.attribute_names),
            },
            "right": {
                "name": pair.right.name,
                "attributes": list(pair.right.attribute_names),
            },
        },
        "target": {
            "left": list(target.left_list),
            "right": list(target.right_list),
        },
        "rules": {
            "mds": [format_md(dependency) for dependency in sigma],
            "top_k": top_k,
        },
    }
    if rcks is not None:
        document["rules"]["rcks"] = [
            [[atom.left, atom.right, atom.operator.name] for atom in key.atoms]
            for key in rcks
        ]
    if blocking is not None:
        document["blocking"] = dict(blocking)
    if execution is not None:
        document["execution"] = dict(execution)
    return document


@dataclass
class Timer:
    """Wall-clock stopwatch usable as a context manager."""

    seconds: float = 0.0

    @contextmanager
    def measure(self) -> Iterator["Timer"]:
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.seconds += time.perf_counter() - start


def timed(callable_, *args, **kwargs):
    """Run ``callable_`` and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = callable_(*args, **kwargs)
    return result, time.perf_counter() - start


@dataclass
class Table:
    """An aligned text table with a caption (one per paper artefact)."""

    caption: str
    columns: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)

    def add(self, *values: object) -> None:
        """Append one row; must match the column count."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, table has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(values)

    def render(self) -> str:
        """The table as aligned text."""
        cells = [list(self.columns)] + [
            [_format(value) for value in row] for row in self.rows
        ]
        widths = [
            max(len(row[index]) for row in cells)
            for index in range(len(self.columns))
        ]
        lines = [self.caption]
        header = "  ".join(
            name.ljust(width) for name, width in zip(cells[0], widths)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells[1:]:
            lines.append(
                "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _format(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def records_to_table(
    caption: str, records: Sequence[Dict[str, object]]
) -> Table:
    """Build a table from homogeneous dict records (keys become columns)."""
    if not records:
        return Table(caption, [])
    columns = list(records[0])
    table = Table(caption, columns)
    for record in records:
        table.add(*(record[column] for column in columns))
    return table
