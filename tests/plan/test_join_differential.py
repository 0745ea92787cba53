"""Differential suite, join path forced: a hash-joined ``=`` atom ≡ a filter.

Where a rule's selection holds more pairs than the chase has tuples, the
kernel serves the rule's cheapest equality atom by a hash join over the
candidate set's runs instead of filtering the set by it
(:class:`repro.plan.executor.ChaseState`).  Every instance here has more pairs
than tuples, so the choice comes up, and ``assert_same_chase`` holds the
outcome to the naive reference on everything the join could get wrong:
nulls and NaN (``=`` is never true on them — a dict would find the one
NaN object), ``1`` / ``1.0`` / ``True`` (equal and hashed alike under
``=``, three spellings under a string metric), an unhashable cell (its
atom stays a filter), a pair listed twice (found at both positions), a
shuffled list (sorted into a candidate set on entry, and joined all the
same), a relation matched against its copy, and a round budget that
leaves the stability check a strict subset to intersect with.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from reference import reference_chase
from test_reference_differential import _values, assert_same_chase

from repro.api.spec import VALUE_POLICIES
from repro.core.parser import parse_md
from repro.core.schema import RelationSchema, SchemaPair
from repro.core.semantics import InstancePair, prefer_informative
from repro.obs.trace import Tracer
from repro.plan import compile_plan
from repro.relations.relation import Relation

ABC = ("A", "B", "C")

#: One NaN object for every cell drawn as NaN: an index that kept it
#: would find it by identity.
NAN = float("nan")

#: Nulls and NaN never equal anything; near-duplicate strings make ``dl``
#: fire and the resolvers rewrite.
VALUES = st.sampled_from(
    [None, NAN, "1.05", "mark", "marx", "mark s", "clare", "x", "y", "z"]
)

#: ``A`` also draws ``1 == 1.0 == True``: one key to a dict, one value to
#: ``=``.  Only ``A``, which the rule sets below read through ``=`` and
#: never write: a merged class holding ``1`` and ``1.0`` keeps both
#: spellings in the kernel (a cell is written only when its value ``!=``
#: the resolved one) and one in the reference, and a string metric or a
#: length-preferring resolver can tell — a difference older than the join
#: and not this suite's subject.
KEYS = st.sampled_from([None, NAN, 1, 1.0, True, "x", "y", "z", "mark"])

RULE_SETS = (
    # Two equality atoms to choose between, a similarity atom after them.
    (
        "R[A] = S[A] & R[B] = S[B] -> R[C] <=> S[C]",
        "R[C] = S[C] & R[B] ~dl(0.5) S[B] -> R[B] <=> S[B]",
    ),
    # A cascade: the second rule joins on values the first one repaired.
    (
        "R[A] = S[A] -> R[B] <=> S[B]",
        "R[B] = S[B] -> R[C] <=> S[C]",
    ),
    # A cross-attribute atom and a rule with no equality atom at all.
    (
        "R[B] = S[C] -> R[C] <=> S[C]",
        "R[C] ~dl(0.8) S[C] -> R[B] <=> S[B]",
    ),
)


def _plan(rules, left="R", right="S"):
    pair = SchemaPair(RelationSchema(left, ABC), RelationSchema(right, ABC))
    plan = compile_plan(sigma=[
        parse_md(text.replace("R[", f"{left}[").replace("S[", f"{right}["), pair)
        for text in rules
    ])
    plan.tracer = Tracer()
    return plan, pair


def unjoinable():
    """No value can be indexed: every ``=`` atom stays a filter, as one
    over an unhashable cell does."""
    return mock.patch("repro.plan.executor.Counter", side_effect=TypeError)


def _joins(plan):
    """``(rules joined over all rounds, rules joined by the stability check)``
    of the plan's last chase, read off its spans."""
    rounds = checks = 0
    for root in plan.tracer.roots:
        for span, _ in root.walk():
            if span.name == "chase-round":
                rounds += span.attrs["joined"]
            elif span.name == "stability-check":
                checks += span.attrs["joined"]
    plan.tracer.roots.clear()
    return rounds, checks


def assert_same_chase_with_nan(plan, instance, resolver=prefer_informative,
                               pairs=None, max_rounds=100):
    """``assert_same_chase`` less its cell-by-cell diff of ``D`` and ``D'``,
    which takes an untouched NaN cell for a repair (``nan != nan``)."""
    result = plan.enforce(
        instance, resolver=resolver, candidate_pairs=pairs, max_rounds=max_rounds
    )
    expected = reference_chase(
        plan.sigma, instance, resolver, pairs, max_rounds, plan.registry
    )
    assert (result.rounds, result.applications, result.rounds_exhausted) == (
        expected.rounds, expected.applications, expected.rounds_exhausted
    )
    assert {
        frozenset(group) for group in result.classes()
    } == expected.classes
    assert _values(result.instance) == expected.values
    chased = list(result.pairs)
    assert chased == sorted(instance.tuple_pairs() if pairs is None else pairs)
    assert [[chased[i] for i in positions] for positions in result.holding] == [
        [pair for pair in chased if rule in expected.firing(*pair)]
        for rule in range(len(plan.rules))
    ]
    assert result.stable == expected.stable
    return result, expected


def _rows(size):
    return st.lists(
        st.fixed_dictionaries({"A": KEYS, "B": VALUES, "C": VALUES}),
        min_size=size, max_size=size,
    )


# ----------------------------------------------------------------------
# Hypothesis: all pairs of 6 x 6 tuples, 36 pairs over 12 tuples
# ----------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(RULE_SETS),
    _rows(6),
    _rows(6),
    st.sampled_from(sorted(VALUE_POLICIES)),
    st.sampled_from([1, 2, 100]),
    st.sampled_from(["ordered", "twice", "shuffled"]),
    st.randoms(use_true_random=False),
)
def test_joined_instances_match_the_reference(
    rules, left_rows, right_rows, policy, max_rounds, listing, rng
):
    plan, pair = _plan(rules)
    instance = InstancePair(
        pair, Relation(pair.left, left_rows), Relation(pair.right, right_rows)
    )
    pairs = list(instance.tuple_pairs())
    if listing == "twice":
        pairs = sorted(pairs + rng.sample(pairs, 5))
    elif listing == "shuffled":
        rng.shuffle(pairs)
    has_nan = any(NAN in row.values() for row in left_rows + right_rows)
    (assert_same_chase_with_nan if has_nan else assert_same_chase)(
        plan, instance, VALUE_POLICIES[policy], pairs=pairs, max_rounds=max_rounds
    )
    event(f"rules joined: {sum(_joins(plan)) > 0}")


def _observables(result, target=(("C", "C"),)):
    return (
        result.rounds,
        result.applications,
        result.rounds_exhausted,
        result.repairs,
        {frozenset(group) for group in result.classes()},
        result.matches(target),
        result.holding,
        result.stable,
    )


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(RULE_SETS),
    _rows(8),
    st.sampled_from(sorted(VALUE_POLICIES)),
    st.sampled_from([0, 1, 2, 100]),
)
def test_joined_self_matches_equal_scanned_ones(rules, rows, policy, max_rounds):
    """A relation against its copy, 64 pairs over 16 tuples (reflexive
    ones included): the joined chase is the reference's, and the kernel
    with no atom it can index (same chase, every atom a filter) observes
    the same."""
    plan, pair = _plan(rules, "R", "R")
    relation = Relation(pair.left, rows)
    instance = InstancePair(pair, relation, relation.copy())
    resolver = VALUE_POLICIES[policy]
    has_nan = any(NAN in row.values() for row in rows)
    joined, _ = (assert_same_chase_with_nan if has_nan else assert_same_chase)(
        plan, instance, resolver, max_rounds=max_rounds
    )
    observed = _observables(joined)
    event(f"rules joined: {sum(_joins(plan)) > 0}")
    with unjoinable():
        scanned = plan.enforce(instance, resolver=resolver, max_rounds=max_rounds)
        assert _observables(scanned) == observed
    assert _joins(plan) == (0, 0)


# ----------------------------------------------------------------------
# Explicit cases: each one joins, and says so
# ----------------------------------------------------------------------


def _block_instance(pair, left_rows, right_rows):
    return InstancePair(
        pair, Relation(pair.left, left_rows), Relation(pair.right, right_rows)
    )


def _keyed(count, **fixed):
    """``count`` rows with distinct ``A`` values ``k0``, ``k1``, …"""
    return [{"A": f"k{n}", "B": None, "C": None, **fixed} for n in range(count)]


def test_nulls_and_nan_are_never_joined():
    plan, pair = _plan(["R[A] = S[A] -> R[B] <=> S[B]"])
    left = _keyed(5, B="long-b")
    right = _keyed(5)
    left[0]["A"] = right[0]["A"] = None
    left[1]["A"] = right[1]["A"] = NAN
    result, _ = assert_same_chase_with_nan(plan, _block_instance(pair, left, right))
    assert _joins(plan)[0] > 0
    assert result.matches([("B", "B")]) == [(2, 2), (3, 3), (4, 4)]


def test_one_one_point_zero_and_true_join_like_they_compare():
    # Under ``=`` the three are one value; the similarity atom behind it
    # reads their spellings, and only "1.0" is within dl(0.5) of "1.05".
    plan, pair = _plan(["R[A] = S[A] & R[B] ~dl(0.5) S[B] -> R[C] <=> S[C]"])
    left = [{"A": a, "B": b, "C": "c"} for a, b in
            ((1, 1.0), (1.0, 1), (True, True), ("x", "1.05"), ("y", "1.05"))]
    right = [{"A": a, "B": "1.05", "C": None} for a in (True, 1, 1.0, "x", "q")]
    result, _ = assert_same_chase(plan, _block_instance(pair, left, right))
    assert _joins(plan)[0] > 0
    assert result.matches([("C", "C")]) == [(0, 0), (0, 1), (0, 2), (3, 3)]


def test_an_unhashable_cell_keeps_its_atom_a_filter():
    rules = ["R[A] = S[A] & R[B] = S[B] -> R[C] <=> S[C]"]
    plan, pair = _plan(rules)
    left = _keyed(5, B="b", C="c")
    right = _keyed(5, B="b")
    # A is selective but holds a list; B is hashable but joins everything.
    left[0]["A"] = right[0]["A"] = ["k"]
    result, _ = assert_same_chase(plan, _block_instance(pair, left, right))
    assert _joins(plan) == (0, 0)
    assert result.matches([("C", "C")]) == [(n, n) for n in range(5)]
    # With the list gone the same instance joins on A.
    left[0]["A"] = right[0]["A"] = "k"
    assert_same_chase(plan, _block_instance(pair, left, right))
    assert _joins(plan)[0] > 0


def test_a_pair_listed_twice_is_found_at_both_positions():
    plan, pair = _plan(["R[A] = S[A] -> R[B] <=> S[B]"])
    instance = _block_instance(pair, _keyed(4, B="long-b"), _keyed(4))
    pairs = sorted(list(instance.tuple_pairs()) + [(1, 1), (3, 3), (0, 2)])
    result, _ = assert_same_chase(plan, instance, pairs=pairs)
    assert _joins(plan)[0] > 0
    assert [pairs[i] for i in result.holding[0]] == [
        (0, 0), (1, 1), (1, 1), (2, 2), (3, 3), (3, 3)
    ]


def test_one_left_tuple_with_several_partners_comes_out_in_list_order():
    # The index chains a value's right tuples last to first; ``holding``
    # must still ascend.
    plan, pair = _plan(["R[A] = S[A] -> R[B] <=> S[B]"])
    left = [{"A": "k", "B": "long-b", "C": None}] + _keyed(3)
    right = [{"A": "k", "B": None, "C": None} for _ in range(3)] + _keyed(3)
    result, _ = assert_same_chase(plan, _block_instance(pair, left, right))
    assert _joins(plan)[0] > 0
    assert result.holding[0] == sorted(result.holding[0])
    assert len(result.holding[0]) == 6


def test_a_shuffled_list_is_chased_as_its_sorted_set():
    """A list in any order is sorted into a candidate set on entry: it
    chases to the reference's result, joins, and observes what the
    sorted list does."""
    plan, pair = _plan(["R[A] = S[A] -> R[B] <=> S[B]"])
    instance = _block_instance(pair, _keyed(5, B="long-b"), _keyed(5))
    pairs = list(instance.tuple_pairs())
    random.Random(5).shuffle(pairs)
    shuffled, _ = assert_same_chase(plan, instance, pairs=pairs)
    assert _joins(plan)[0] > 0
    ordered, _ = assert_same_chase(plan, instance, pairs=sorted(pairs))
    assert _observables(shuffled) == _observables(ordered)


def test_a_relation_joins_one_value_list_against_its_copy():
    plan, pair = _plan(
        ["R[A] = S[A] -> R[B] <=> S[B]", "R[B] = S[B] -> R[C] <=> S[C]"], "R", "R"
    )
    rows = _keyed(6, B="b") + [
        {"A": "k0", "B": None, "C": "long-c"}, {"A": "k1", "B": "b", "C": None}
    ]
    relation = Relation(pair.left, rows)
    result, _ = assert_same_chase(
        plan, InstancePair(pair, relation, relation.copy()), max_rounds=1
    )
    assert _joins(plan)[0] > 0
    # Each side of the pair (0, 6) and (6, 0) is repaired on its own.
    assert result.same((0, 0, "B"), (1, 6, "B"))
    assert result.same((0, 6, "B"), (1, 0, "B"))
    assert result.repairs == {(0, 6, "B"): "b", (1, 6, "B"): "b"}


def test_a_cell_a_rule_reads_on_its_right_side_alone_brings_it_back():
    """Rounds after the first re-select a rule's pairs by the LHS cells
    written on each side.  The second rule reads ``C`` only through its
    right tuple: round 1 writes the right tuple's ``C``, and round 2 must
    select the pair again, and fire it."""
    plan, pair = _plan(
        ["R[A] = S[A] -> R[C] <=> S[C]", "R[B] = S[C] -> R[A] <=> S[A]"]
    )
    instance = _block_instance(
        pair, [{"A": "k", "B": "long", "C": "long"}], [{"A": "k", "B": None, "C": None}]
    )
    result, _ = assert_same_chase(plan, instance)
    assert result.first_round == [[0], []]
    assert result.holding == [[0], [0]]
    assert result.instance.right[0]["C"] == "long"
    assert result.same((0, 0, "A"), (1, 0, "A"))


@pytest.mark.parametrize("max_rounds", (0, 1, 2))
def test_a_cut_off_check_joins_within_its_subset(max_rounds):
    """After a budget of 1 the stability check looks at what fired plus
    the pairs of repaired tuples — a strict subset of the list, larger
    than the tuple count, so it joins and intersects."""
    plan, pair = _plan(
        ["R[A] = S[A] -> R[B] <=> S[B]", "R[B] = S[B] -> R[C] <=> S[C]"]
    )
    left = _keyed(6, B="long-b", C="long-c")
    right = _keyed(6)
    # Two tuples no rule ever touches: their pairs leave the subset.
    left[5]["A"], right[5]["A"] = "only-left", "only-right"
    result, _ = assert_same_chase(
        plan, _block_instance(pair, left, right), max_rounds=max_rounds
    )
    rounds, checks = _joins(plan)
    assert checks > 0 and (rounds > 0) == (max_rounds > 0)
    assert result.rounds_exhausted == (max_rounds < 2)
    assert len(result.holding[0]) == 5


def test_a_pair_no_repair_touched_is_evaluated_once():
    """The cost the subset buys: a pair that satisfies the joined atom but
    not the rule, and whose tuples no round repairs, reaches the rule's
    other atoms in the first round and never again — not in a later
    round, not in the stability check's join."""
    plan, pair = _plan(["R[A] = S[A] & R[B] ~dl(0.8) S[B] -> R[C] <=> S[C]"])
    left = _keyed(6, B="mark", C="long-c")
    right = _keyed(6, B="marx")
    left[5]["B"], right[5]["B"] = "abcdefgh", "stuvwxyz"
    seen = []
    evaluate = plan.evaluate

    def spy(predicate, left_value, right_value):
        seen.append((left_value, right_value))
        return evaluate(predicate, left_value, right_value)

    plan.evaluate = spy
    for max_rounds in (1, 100):
        del seen[:]
        result, _ = assert_same_chase(
            plan, _block_instance(pair, left, right), max_rounds=max_rounds
        )
        rounds, checks = _joins(plan)
        assert rounds > 0 and (checks > 0) == (max_rounds == 1)
        assert len(result.holding[0]) == 5
        assert seen.count(("abcdefgh", "stuvwxyz")) == 1
        # ... and a pair that fired is read once, in the round it fired
        # in: not by the round its own repair made it active in, nor by
        # the check — the repair wrote C, which the rule does not read,
        # so its LHS still holds without being re-read.
        assert seen.count(("mark", "marx")) == 1 * 5


# ----------------------------------------------------------------------
# The similarity memo is keyed on what the predicate reads
# ----------------------------------------------------------------------


@pytest.mark.parametrize("order", ([1.0, 1, True], [True, 1, 1.0], [1, True, 1.0]))
def test_equal_values_spelled_differently_do_not_share_a_memo_entry(order):
    plan, _ = _plan(["R[A] ~dl(0.5) S[A] -> R[B] <=> S[B]"])
    (predicate,) = plan.predicates
    fresh = {repr(value): predicate.predicate(value, "1.05") for value in order}
    assert fresh == {"1.0": True, "1": False, "True": False}
    for _ in range(2):
        assert {
            repr(value): plan.evaluate(predicate, value, "1.05") for value in order
        } == fresh
    assert (plan.stats.metric_evaluations, plan.stats.cache_hits) == (3, 3)
    # A null is not the string "None".
    assert plan.evaluate(predicate, "None", "None")
    assert not plan.evaluate(predicate, None, "None")
