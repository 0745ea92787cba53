"""Representative classes: only a group representative's cells have one.

The chase unions only an RHS group's representative cells
(:class:`~repro.plan.executor.ChaseLayout`); a cell of another pair in
the group, a *follower*, is read through its representative and never
unioned nor walked, and a cell of an attribute no rule writes is never
unioned at all.  So :class:`~repro.plan.executor.ChaseState` lays the
representatives' columns out first and keeps ``root`` / ``size`` /
``next`` over their cells only (:attr:`ChaseLayout.classes`), a class
the int of its representative cell, and nothing for the other cells.
Everything tuple-facing must answer for every cell what the naive
reference chase, with a class of its own per cell, answers.  The classes
are ``array('i')``: a finished chase holds them in three item sizes a
representative cell, and no int object.
"""

from __future__ import annotations

import gc
import tracemalloc
from array import array

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from reference import reference_chase

from repro.api.spec import VALUE_POLICIES
from repro.core.schema import LEFT
from repro.core.semantics import InstancePair, prefer_informative
from repro.datagen.generator import generate_dataset
from repro.datagen.mdgen import generate_workload
from repro.datagen.schemas import extended_mds
from repro.plan import CandidateSet, compile_plan
from repro.plan.executor import ChaseState, _identity, rule_masks
from repro.relations.relation import Relation


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


def _cells(state):
    """Every cell of a chase, as ints: both sides' tuples × attributes."""
    return range(len(state.values))


def test_only_the_representatives_cells_have_a_class():
    data = generate_dataset(40, seed=7)
    plan = compile_plan(sigma=extended_mds(data.pair))
    layout = plan.layout
    # extended_mds: of the 12 ranks of each side 5 follow a representative,
    # one no rule writes, and the other 6 represent an RHS group.
    for places, classes in zip((layout.left_places, layout.right_places), layout.classes):
        followers = {rank for rank, place in enumerate(places) if place and place[0]}
        read_only = {rank for rank, place in enumerate(places) if place is None}
        assert (len(followers), len(read_only), len(places)) == (5, 1, 12)
        assert classes == tuple(sorted(set(range(12)) - followers - read_only))
    # A rank's place names its group, the representative first.
    for pairs in layout.groups:
        for side, places in enumerate((layout.left_places, layout.right_places)):
            for lane, pair in enumerate(pairs):
                assert places[pair[side]] == (lane, pairs)
    pairs = [(0, 0), (0, 3), (2, 1), (5, 1)]
    instance = InstancePair(data.pair, data.credit, data.billing)
    cells = ChaseState(plan, instance, CandidateSet.of(pairs), prefer_informative)
    assert {cells.root.typecode, cells.next.typecode, cells.size.typecode} == {"i"}
    assert len(cells.root) == 6 * (len(cells.left_tids) + len(cells.right_tids))
    assert list(cells.root) == list(cells.next) == list(range(len(cells.root)))
    assert set(cells.size) == {1}
    # A class is the int of a representative cell: the representatives'
    # columns come first.
    for klass in range(len(cells.root)):
        side, _, attribute = cells.decode(klass)
        names = (layout.left_names, layout.right_names)[side]
        assert names.index(attribute) in layout.classes[side]
        assert cells._class(klass) == (klass, 0)
    # Every other cell is read through its representative's class, or is
    # in none.
    classless = [cell for cell in _cells(cells) if cells._class(cell)[0] is None]
    assert len(classless) == len(cells.left_tids) + len(cells.right_tids)


#: Few values, so ``=`` and the metrics hold often.
VALUES = st.sampled_from([None, "a", "ab", "abc", "b"])


def _ring(cells, klass):
    """``klass``'s ring through ``next``, walked at most ``count`` steps."""
    ring, count = cells.next, len(cells.next)
    members = [klass]
    member = ring[klass]
    for _ in range(count):
        if member == klass:
            return members
        members.append(member)
        member = ring[member]
    raise AssertionError(f"the ring of class {klass} is longer than {count} classes")


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 3),
    st.data(),
    st.sampled_from(sorted(VALUE_POLICIES)),
)
def test_cells_without_a_class_answer_as_the_reference_chase_does(
    seed, md_count, data, policy
):
    # Wide RHSs over few attributes: most rule sets form a multi-pair
    # group between two relations, and leave some attribute read-only.
    workload = generate_workload(
        md_count, target_length=2, arity=5, max_lhs=2, max_rhs=4, seed=seed,
        rhs_target_bias=0.0,
    )
    pair = workload.pair
    plan = compile_plan(sigma=workload.sigma)
    layout = plan.layout
    rows = {
        schema.name: st.lists(
            st.fixed_dictionaries({name: VALUES for name in schema.attribute_names}),
            min_size=1, max_size=4,
        )
        for schema in (pair.left, pair.right)
    }
    instance = InstancePair(
        pair,
        Relation(pair.left, data.draw(rows[pair.left.name])),
        Relation(pair.right, data.draw(rows[pair.right.name])),
    )
    resolver = VALUE_POLICIES[policy]
    written = {left for _, _, rhs in layout.rules for left, _ in rhs}
    event(f"largest RHS group: {max(len(group) for group in layout.groups)}")
    event(f"read-only attributes: {len(layout.left_names) > len(written)}")

    cells = plan.enforce(instance, resolver=resolver)
    expected = reference_chase(plan.sigma, instance, resolver, None, 100, plan.registry)
    assert cells.applications == expected.applications
    assert {frozenset(members) for members in cells.classes()} == expected.classes
    class_of = {cell: members for members in expected.classes for cell in members}

    root = cells.root
    for klass in range(len(root)):
        assert sorted(_ring(cells, klass)) == [
            other for other in range(len(root)) if root[other] == root[klass]
        ]
    # Every encoded cell, and one outside the encoding.
    every = [cells.decode(cell) for cell in _cells(cells)]
    every.append((LEFT, 10_000, pair.left.attribute_names[0]))
    for cell in every:
        members = class_of.get(cell, {cell})
        assert cells.members(cell) == members
        for other in every:
            assert cells.same(cell, other) == (other in members)
    chased = list(cells.pairs)
    attribute_pairs = [
        [(a, b)] for a in pair.left.attribute_names for b in pair.right.attribute_names
    ]
    for group in layout.groups + (tuple(sum(layout.groups, ())),):
        attribute_pairs.append(
            [(layout.left_names[a], layout.right_names[b]) for a, b in group]
        )
    for names in attribute_pairs:
        matched = sorted(expected.matches(names))
        assert [chased[i] for i in cells.matching(names)] == matched
        assert cells.matches(names) == matched


def test_a_finished_chase_holds_its_classes_in_six_bytes_a_cell():
    """``root``, ``next`` and ``size`` of a K=2000 sorted-neighbourhood
    chase (the benchmark's sparse shape) cost what dropping them frees
    under tracemalloc: 3 × 4 bytes a class, plus the three array headers.
    Under ``extended_mds`` 6 of a tuple's 12 cells a side represent a
    group, so that is at most 6 bytes a cell of the chase.  A class per
    cell costs 12; a list per field 8 bytes a cell each, before the int
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
        classes, cells = len(result.root), len(result.values)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        result.root = result.next = result.size = None
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result.applications > 0 and cells > 20_000
    # At least the three buffers, so the drop did release them ...
    assert freed >= 3 * array("i").itemsize * classes
    # ... and no more than 6 bytes a chase cell and the headers.
    assert freed <= 6 * cells + 3 * 128


@pytest.mark.parametrize("rules", [0, 1, 8, 9, 16, 17, 32, 33, 64, 65, 200])
def test_rule_masks_take_the_narrowest_unsigned_type_the_rules_fit(rules):
    masks = rule_masks(rules, 5)
    assert list(masks) == [0] * 5
    if rules > 64:
        assert type(masks) is list
    else:
        assert masks.typecode in "BHILQ"
        bits = masks.itemsize * 8
        assert bits >= rules and (bits == 8 or bits // 2 < rules)
    if rules:
        masks[4] |= 1 << rules - 1  # the last rule's bit fits
        assert masks[4] == 1 << rules - 1


def test_a_chase_keeps_a_byte_a_position_for_its_masks():
    """Seven rules fit a byte: the firings, the stability check's masks
    and round 1's, each one byte a position; round 1's are built from the
    per-rule positions only when read."""
    data = generate_dataset(60, seed=7)
    plan = compile_plan(sigma=extended_mds(data.pair))
    instance = InstancePair(data.pair, data.credit, data.billing)
    result = plan.enforce(instance, candidate_pairs=list(instance.tuple_pairs()))
    assert len(plan.rules) == 7
    assert "first_round_masks" not in vars(result)
    for masks in (result.holding_masks, result.first_round_masks):
        assert masks.typecode == "B" and len(masks) == len(result.pairs)
    assert [
        [i for i, mask in enumerate(result.first_round_masks) if mask >> rule & 1]
        for rule in range(7)
    ] == result.first_round
