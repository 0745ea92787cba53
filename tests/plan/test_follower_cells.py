"""Follower cells: the ``-1`` sentinel, the same answers.

Between two relations the chase unions only an RHS group's
representative cells (:class:`~repro.core.semantics.ChaseLayout`); a cell
of another pair in the group, a *follower*, is read through its
representative and never unioned nor walked.  So
:class:`~repro.core.semantics.CellClasses` leaves a follower's ``root`` /
``next`` entries ``-1``; only representative and read-only cells carry
their own.  Everything tuple-facing must answer for every cell what an
encoding with an entry of its own per cell answers (:class:`IntPerCell`).
The classes are ``array('i')``: a finished chase holds them in three
item sizes a cell, and no int object.
"""

from __future__ import annotations

import gc
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.api.spec import VALUE_POLICIES
from repro.core.md import MatchingDependency
from repro.core.schema import LEFT, SchemaPair
from repro.core.semantics import CellClasses, InstancePair, _identity
from repro.datagen.generator import generate_dataset
from repro.datagen.mdgen import generate_workload
from repro.datagen.schemas import extended_mds
from repro.plan import CandidateSet, compile_plan
from repro.relations.relation import Relation


class IntPerCell(CellClasses):
    """The encoding with an entry of its own per cell, followers included."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.root = array("i", range(len(self.root)))
        self.next = array("i", self.root)


@pytest.mark.parametrize(
    "count",
    [0, 1, 2, 255, 256, 257, 408, 16_383, 16_384, 16_385, 65_536, 65_537, 300_000],
)
def test_the_identity_array_is_the_range_it_stands_for(count):
    identity = _identity(count)
    assert identity == array("i", range(count))
    # A chase's own: writing to it changes no later chase's.
    if count:
        identity[0] = -1
        assert _identity(count)[0] == 0


def _followers(places):
    return {rank for rank, (_, lane, _) in enumerate(places) if lane}


def test_followers_hold_the_sentinel_and_every_other_cell_its_own():
    data = generate_dataset(40, seed=7)
    plan = compile_plan(sigma=extended_mds(data.pair))
    layout = plan.layouts[False]
    left_followers = _followers(layout.left_places)
    right_followers = _followers(layout.right_places)
    # extended_mds: 5 of the 12 ranks of each side follow a representative.
    assert (len(left_followers), len(layout.left_names)) == (5, 12)
    assert (len(right_followers), len(layout.right_names)) == (5, 12)
    pairs = [(0, 0), (0, 3), (2, 1), (5, 1)]
    cells = CellClasses(CandidateSet.of(pairs), layout)
    assert {cells.root.typecode, cells.next.typecode, cells.size.typecode} == {"i"}
    owned = 0
    for cell, (entry, following) in enumerate(zip(cells.root, cells.next)):
        side, _, attribute = cells.decode(cell)
        rank = (cells.left_rank if side == LEFT else cells.right_rank)[attribute]
        if rank in (left_followers if side == LEFT else right_followers):
            assert entry == following == -1
            assert cells.ring(cell) == [cell]
        else:
            assert entry == following == cell
            owned += 1
    assert owned == 7 * (len(cells.left_tids) + len(cells.right_tids))


#: Few values, so ``=`` and the metrics hold often.
VALUES = st.sampled_from([None, "a", "ab", "abc", "b"])


def _shared(workload):
    """The workload's Σ over one schema, ``R1`` against itself (mdgen
    pairs position ``i`` with position ``i``)."""
    schema = workload.pair.left
    pair = SchemaPair(schema, schema)
    return pair, [
        MatchingDependency(
            pair,
            [(atom.left, atom.left, atom.operator) for atom in md.lhs],
            [(atom.left, atom.left) for atom in md.rhs],
        )
        for md in workload.sigma
    ]


def _ring(cells, cell):
    """``cell``'s ring through ``next``, walked at most ``count`` steps."""
    ring, count = cells.next, len(cells.next)
    members = [cell]
    member = ring[cell]
    for _ in range(count):
        if member < 0 or member == cell:
            return members
        members.append(member)
        member = ring[member]
    raise AssertionError(f"the ring of cell {cell} is longer than {count} cells")


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 3),
    st.booleans(),
    st.data(),
    st.sampled_from(sorted(VALUE_POLICIES)),
)
def test_follower_cells_answer_as_an_int_per_cell_encoding(
    seed, md_count, shared, data, policy
):
    # Wide RHSs over few attributes: most rule sets form a multi-pair
    # group between two relations, and leave some attribute read-only.
    workload = generate_workload(
        md_count, target_length=2, arity=5, max_lhs=2, max_rhs=4, seed=seed,
        rhs_target_bias=0.0,
    )
    pair, sigma = _shared(workload) if shared else (workload.pair, workload.sigma)
    plan = compile_plan(sigma=sigma)
    layout = plan.layouts[shared]
    rows = {
        schema.name: st.lists(
            st.fixed_dictionaries({name: VALUES for name in schema.attribute_names}),
            min_size=1, max_size=4,
        )
        for schema in (pair.left, pair.right)
    }
    left = Relation(pair.left, data.draw(rows[pair.left.name]))
    right = left if shared else Relation(pair.right, data.draw(rows[pair.right.name]))
    instance = InstancePair(pair, left, right)
    resolver = VALUE_POLICIES[policy]
    written = {left for _, _, rhs in layout.rules for left, _ in rhs}
    event(f"shared storage: {shared}")
    event(f"largest RHS group: {max(len(group) for group in layout.groups)}")
    event(f"read-only attributes: {len(layout.left_names) > len(written)}")

    placeheld = plan.enforce(instance, resolver=resolver)
    with mock.patch("repro.plan.executor.CellClasses", IntPerCell):
        dense = plan.enforce(instance, resolver=resolver)
    cells, reference = placeheld.merged_cells, dense.merged_cells
    assert type(reference) is IntPerCell and type(cells) is CellClasses
    assert (placeheld.applications, placeheld.repairs) == (
        dense.applications, dense.repairs
    )

    count = len(cells.root)
    assert len(reference.root) == count
    for cell in range(count):
        assert _ring(cells, cell) == cells.ring(cell)
        assert sorted(cells.ring(cell)) == sorted(reference.ring(cell))
    assert sorted(map(sorted, cells.classes())) == sorted(
        map(sorted, reference.classes())
    )
    # Every encoded cell, and one outside the encoding.
    every = [cells.decode(cell) for cell in range(count)]
    every.append((LEFT, 10_000, pair.left.attribute_names[0]))
    for cell in every:
        assert cells.members(cell) == reference.members(cell)
        for other in every:
            assert cells.same(cell, other) == reference.same(cell, other)
    attribute_pairs = [
        (a, b) for a in pair.left.attribute_names for b in pair.right.attribute_names
    ]
    for attribute_pair in attribute_pairs:
        assert cells.matching([attribute_pair]) == reference.matching([attribute_pair])
    for group in layout.groups + (tuple(sum(layout.groups, ())),):
        names = [(layout.left_names[a], layout.right_names[b]) for a, b in group]
        assert cells.matching(names) == reference.matching(names)
        assert cells.matches(names) == reference.matches(names)


def test_a_finished_chase_holds_its_classes_in_three_item_sizes_a_cell():
    """``root``, ``next`` and ``size`` of a K=2000 sorted-neighbourhood
    chase (the benchmark's sparse shape) cost what dropping them frees
    under tracemalloc: 3 × 4 bytes a cell, plus the three array
    headers.  A list per field costs 8 bytes a cell each, before the int
    objects its entries point at."""
    from repro.api import Workspace

    data = generate_dataset(2000, seed=7)
    workspace = (
        Workspace.builder()
        .pair(data.pair)
        .target(data.target)
        .mds(extended_mds(data.pair))
        .blocking("sorted-neighborhood", window=10)
        .execution(top_k=5)
        .workspace()
    )
    instance = InstancePair(data.pair, data.credit, data.billing)
    candidates = workspace.candidates(data.credit, data.billing)
    tracemalloc.start()
    try:
        result = workspace.plan.enforce(instance, candidate_pairs=candidates)
        result.holding_masks, result.repairs
        cells = result.merged_cells
        count = len(cells.root)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        cells.root = cells.next = cells.size = None
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.applications > 0 and count > 20_000
    # At least the three buffers, so the drop did release them ...
    assert freed >= 3 * array("i").itemsize * count
    # ... and no more than them and their headers.
    assert freed <= 3 * array("i").itemsize * count + 3 * 128
