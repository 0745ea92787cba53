"""The chase state holds no int object per candidate pair.

:class:`~repro.plan.executor.ChaseState` keeps its positions as a
``range`` and every selection of them — the per-rule firing histories,
the join hits, the dirty listing — as an ``array('i')``, its per-position
masks as :func:`~repro.plan.executor.rule_masks` arrays, its per-pair
tuple position columns as ``array('i')`` and ``last_write`` in the narrowest
unsigned type the round budget fits.  A list of positions would cost 8
bytes a pair for the reference and about 32 more for the int it points
at.  Also here: the tuple-facing :meth:`ChaseState.cell` names no tuple
for a tid that is not one.
"""

from __future__ import annotations

import gc
import tracemalloc
from array import array
from pathlib import Path

import pytest

from repro.api import Workspace
from repro.core.schema import LEFT, RIGHT
from repro.core.semantics import InstancePair
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.plan import CandidateSet
from repro.relations.csvio import load_relation

REPO_ROOT = Path(__file__).resolve().parents[2]

#: What the per-position structures may cost after ``run``, per pair.
BYTES_PER_PAIR = 16

#: Everything the state holds once per candidate position.
PER_POSITION = (
    "everything", "fresh", "left_positions", "right_positions",
    "fired", "fired_in", "_dirty",
)


def _hash_chase(size: int, **run):
    """A chase of the benchmark's dense shape (hash blocking on one
    leading character, seed 7) at ``size`` tuples a side."""
    data = generate_dataset(size, seed=7)
    workspace = (
        Workspace.builder()
        .pair(data.pair)
        .target(data.target)
        .mds(extended_mds(data.pair))
        .blocking("hash", key_length=1)
        .execution(top_k=5)
        .workspace()
    )
    instance = InstancePair(data.pair, data.credit, data.billing)
    candidates = CandidateSet.of(workspace.candidates(data.credit, data.billing))
    return workspace, instance, candidates


def test_the_per_position_structures_cost_at_most_16_bytes_a_pair():
    """Dropping every per-position structure of a finished seed-7 hash
    chase frees at most 16 bytes a pair under tracemalloc: two tuple
    position columns of 4, a mask byte and the fired selections.  A list
    of positions with an int object each, and position columns as lists,
    cost about 55."""
    workspace, instance, candidates = _hash_chase(2000)
    tracemalloc.start()
    try:
        result = workspace.plan.enforce(instance, candidate_pairs=candidates)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for name in PER_POSITION:
            setattr(result, name, None)
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    pairs = len(candidates)
    assert pairs > 10_000 and result.rounds > 2 and result.applications > 0
    # At least the two position columns, so the drop did release them ...
    assert freed >= 2 * array("i").itemsize * pairs
    # ... and not an int object per pair.
    assert freed <= BYTES_PER_PAIR * pairs, freed / pairs


def test_selections_are_int_arrays_and_positions_a_range():
    workspace, instance, candidates = _hash_chase(300)
    result = workspace.plan.enforce(instance, candidate_pairs=candidates)
    assert result.everything == range(len(candidates))
    for column in (result.left_positions, result.right_positions):
        assert column.typecode == "i" and len(column) == len(candidates)
    histories = [positions for history in result.fired_in for _, positions in history]
    assert histories and all(positions.typecode == "i" for positions in histories)
    assert result.last_write.typecode == "B"
    assert result.matching(workspace.plan.target.attribute_pairs()).typecode == "i"


@pytest.mark.parametrize("budget, typecode", [(255, "B"), (256, "H"), (70_000, "I")])
def test_last_write_fits_every_round_of_the_budget(budget, typecode):
    """A byte a slot up to 255 rounds; a larger budget widens
    ``last_write`` before the first round, so every round number it can
    reach fits, and the chase answers as under the default budget."""
    workspace, instance, candidates = _hash_chase(300)
    plan = workspace.plan
    result = plan.enforce(instance, candidate_pairs=candidates, max_rounds=budget)
    default = plan.enforce(instance, candidate_pairs=candidates)
    assert result.last_write.typecode == typecode
    assert len(result.last_write) == len(result.values)
    result.last_write[0] = budget  # the budget's last round fits
    assert (result.rounds, result.applications, result.repairs) == (
        default.rounds, default.applications, default.repairs
    )
    assert list(result.holding_masks) == list(default.holding_masks)


def test_a_tid_that_is_no_tuple_id_names_no_cell():
    """``False`` and ``0.0`` equal tid 0 and ``"0"`` spells it, but none
    of them is a tuple id (:func:`repro.relations.relation.is_tid`): the
    state answers for them as for a tuple outside the encoding."""
    workspace = Workspace.from_file(REPO_ROOT / "examples" / "spec.json")
    pair = workspace.plan.pair
    credit = load_relation(pair.left, REPO_ROOT / "examples" / "data" / "credit.csv")
    billing = load_relation(pair.right, REPO_ROOT / "examples" / "data" / "billing.csv")
    result = workspace.plan.enforce(
        InstancePair(pair, credit, billing), candidate_pairs=[(0, 0), (0, 1), (1, 0)]
    )
    names = [("FN", "FN")]
    assert result.cell(LEFT, 0, "FN") is not None
    assert result.identified(0, 0, names)
    assert result.same((LEFT, 0, "FN"), (RIGHT, 0, "FN"))
    for tid in (True, False, 0.0, "0"):
        assert result.cell(LEFT, tid, "FN") is None
        assert result.cell(RIGHT, tid, "FN") is None
        assert not result.identified(tid, 0, names)
        assert not result.identified(0, tid, names)
        assert not result.same((LEFT, tid, "FN"), (RIGHT, 0, "FN"))
        assert result.members((LEFT, tid, "FN")) == {(LEFT, tid, "FN")}
