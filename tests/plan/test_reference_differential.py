"""Differential suite: the chase kernel ≡ the naive reference chase.

``reference.py`` is the paper's chase written the slow, obvious way; the
kernel (:class:`repro.plan.executor.ChaseState`) reorders, prunes and memoizes.
Nothing of that may be observable: on every instance here the two agree
on ``rounds``, ``applications``, ``stable``, ``rounds_exhausted``, the
merged cell classes, every cell value, the repairs and the pairs each
rule's LHS holds on, and a :class:`~repro.api.Workspace` run agrees on
matches, clusters and provenance.  Inputs are the three :mod:`repro.datagen.streams` arrival
scenarios, Hypothesis instances under :mod:`repro.datagen.mdgen` rule
sets, and one explicit case per input shape the kernel treats specially.
"""

from __future__ import annotations


import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from reference import reference_chase

from repro.api import Workspace
from repro.api.spec import VALUE_POLICIES
from repro.core.parser import parse_md
from repro.core.schema import LEFT, RIGHT, RelationSchema, SchemaPair
from repro.core.semantics import InstancePair, prefer_informative
from repro.datagen.generator import generate_dataset
from repro.datagen.mdgen import generate_workload
from repro.datagen.schemas import extended_mds
from repro.datagen.streams import (
    arrival_stream,
    duplicate_burst_stream,
    late_duplicate_stream,
)
from repro.experiments.harness import resolution_spec_document
from repro.matching.clustering import cluster_matches
from repro.obs.trace import Tracer
from repro.plan import CandidateSet, ChaseState, compile_plan
from repro.plan.executor import ChaseLayout
from repro.relations.relation import Relation

SCENARIOS = {
    "arrival": arrival_stream,
    "duplicate-burst": duplicate_burst_stream,
    "late-duplicate": late_duplicate_stream,
}


def _values(instance):
    return {
        (side, row.tid): row.values()
        for side, relation in ((LEFT, instance.left), (RIGHT, instance.right))
        for row in relation
    }


def _no_copy(relation):
    raise AssertionError(f"{relation!r} was copied")


def _no_decode(state, cell):
    raise AssertionError(f"cell {cell} was decoded")


def _on_d(plan, instance, resolver=prefer_informative, pairs=None):
    """(left, right) -> the rules whose LHS holds on D, by the reference."""
    return reference_chase(
        plan.sigma, instance, resolver, pairs, 0, plan.registry
    ).firing


def _checked(result):
    """Whether the stability check has run: the state caches its masks."""
    return "holding_masks" in vars(result)


def assert_same_chase(plan, instance, resolver=prefer_informative, pairs=None,
                      max_rounds=100):
    """Chase with the kernel and the reference; every observable agrees."""
    before = _values(instance)
    result = plan.enforce(
        instance, resolver=resolver, candidate_pairs=pairs, max_rounds=max_rounds
    )
    expected = reference_chase(
        plan.sigma, instance, resolver, pairs, max_rounds, plan.registry
    )
    # Stability is computed on demand: the kernel has run the check only
    # where ``rounds_exhausted`` depends on it (the budget cut the chase
    # off), and ``stable`` / ``holding`` are read below after everything
    # else — what they answer may not depend on when they are asked.
    if expected.rounds_exhausted:
        assert _checked(result)
    elif 0 < expected.rounds < max_rounds:
        assert not _checked(result)
    assert result.rounds == expected.rounds
    assert result.applications == expected.applications
    assert result.rounds_exhausted == expected.rounds_exhausted
    assert {
        frozenset(group) for group in result.classes()
    } == expected.classes
    after = _values(result.instance)
    assert after == expected.values
    # D is only read; D' is D plus the repairs, cell by cell.
    assert _values(instance) == before
    assert result.repairs == {
        (side, tid, attribute): value
        for (side, tid), row in after.items()
        for attribute, value in row.items()
        if value != before[(side, tid)][attribute]
    }
    # Per rule, exactly the pairs whose LHS holds in D' — whatever the
    # chase ended on (stable, unstable, cut off).
    # Positions index the set chased: the pairs handed in, sorted.
    chased = list(result.pairs)
    assert chased == sorted(instance.tuple_pairs() if pairs is None else pairs)
    # Round 1 reads D: per rule, the pairs whose LHS holds before any
    # repair (the chase's first round in any order; no round, no pairs).
    on_d = _on_d(plan, instance, resolver, pairs)
    assert list(result.first_round_masks) == [
        sum(1 << rule for rule in on_d(*pair)) if max_rounds else 0
        for pair in chased
    ]
    assert result.first_round == [
        [i for i, pair in enumerate(chased) if max_rounds and rule in on_d(*pair)]
        for rule in range(len(plan.rules))
    ]
    shown = repr(result)
    holding = result.holding
    assert [[chased[i] for i in positions] for positions in holding] == [
        [pair for pair in chased if rule in expected.firing(*pair)]
        for rule in range(len(plan.rules))
    ]
    # The check writes one rule mask per position; ``holding`` is those
    # masks read rule by rule, and both are the reference's.
    masks = result.holding_masks
    assert list(masks) == [
        sum(1 << rule for rule in expected.firing(*pair)) for pair in chased
    ]
    assert holding == [
        [i for i, mask in enumerate(masks) if mask >> rule & 1]
        for rule in range(len(plan.rules))
    ]
    assert result.stable == expected.stable
    # Answered once: the same objects on every later read, read off the
    # state's own arrays — no field holds a callable but the resolver the
    # state was built over.
    assert result.holding is holding and _checked(result)
    assert result.holding_masks is masks
    assert [name for name, value in vars(result).items() if callable(value)] == [
        "resolver"
    ]
    # ... and is no part of the result's value: asking changes nothing.
    assert repr(result) == shown and "check" not in shown
    return result, expected


# ----------------------------------------------------------------------
# The arrival scenarios, through the whole Workspace
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "scenario, seed, mode",
    [
        pytest.param(
            scenario, seed, mode,
            id=f"{scenario}-{seed}" + ("-direct" if mode == "direct" else ""),
        )
        for seed in (3, 11)
        for scenario in sorted(SCENARIOS)
        for mode in ("enforce", "direct")
    ],
)
def test_scenarios_match_the_reference(scenario, seed, mode, monkeypatch):
    """``enforce`` reads matches off the chased cells and provenance off
    ``D'``; ``direct`` chases the keys as MDs and reads both off round 1,
    that is, off ``D``."""
    dataset = generate_dataset(120, seed=seed)
    left = Relation(dataset.pair.left)
    right = Relation(dataset.pair.right)
    for event in SCENARIOS[scenario](dataset, seed=seed).events:
        (left if event.side == LEFT else right).insert(event.values, tid=event.tid)
    workspace = Workspace.from_dict(
        resolution_spec_document(
            dataset.pair,
            dataset.target,
            extended_mds(dataset.pair),
            blocking={"backend": "hash", "key_length": 2},
            execution={"mode": mode},
        )
    )
    plan = workspace.plan
    candidates = workspace.candidates(left, right)
    instance = InstancePair(plan.pair, left, right)
    _, expected = assert_same_chase(plan, instance, pairs=candidates)
    if mode == "direct":
        assert [rule.name for rule in plan.rules] == [key.name for key in plan.keys]
        firing = _on_d(plan, instance, pairs=candidates)
        matches = [pair for pair in candidates if firing(*pair)]
    else:
        firing = expected.firing
        matches = expected.matches(plan.target.attribute_pairs())

    # A match reads matches and provenance off the chase: D' is never
    # built, and the repairs are never decoded.
    monkeypatch.setattr(Relation, "copy", _no_copy)
    monkeypatch.setattr(ChaseState, "decode", _no_decode)
    report = workspace.match(left, right, candidates=candidates)
    assert matches  # the scenario exercises merges, not only rejections
    assert list(report.matches) == matches
    assert list(report.clusters) == cluster_matches(matches)
    assert report.provenance == {
        pair: tuple(plan.rules[position].name for position in firing(*pair))
        for pair in matches
    }


# ----------------------------------------------------------------------
# Hypothesis: random instances under generated rule sets
# ----------------------------------------------------------------------

ARITY = 4

#: Near-duplicates make the similarity operators fire, differing lengths
#: make the resolvers rewrite, nulls exercise the null rule of ``=``.
VALUES = st.sampled_from([None, "mark", "marx", "mark s", "clare", "claire", "x"])


def _rows(prefix):
    return st.lists(
        st.fixed_dictionaries({f"{prefix}{i}": VALUES for i in range(ARITY)}),
        min_size=1,
        max_size=6,
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 4),
    _rows("A"),
    _rows("B"),
    st.sampled_from(sorted(VALUE_POLICIES)),
    st.sampled_from([1, 2, 100]),
)
def test_generated_instances_match_the_reference(
    seed, md_count, left_rows, right_rows, policy, max_rounds
):
    workload = generate_workload(
        md_count, target_length=2, arity=ARITY, max_lhs=3, seed=seed,
        rhs_target_bias=0.5,
    )
    plan = compile_plan(sigma=workload.sigma)
    instance = InstancePair(
        workload.pair,
        Relation(workload.pair.left, left_rows),
        Relation(workload.pair.right, right_rows),
    )
    assert_same_chase(
        plan, instance, VALUE_POLICIES[policy], max_rounds=max_rounds
    )


# ----------------------------------------------------------------------
# Explicit cases
# ----------------------------------------------------------------------

ABC = ("A", "B", "C")


def _abc_plan(*mds):
    pair = SchemaPair(RelationSchema("R", ABC), RelationSchema("S", ABC))
    return compile_plan(sigma=[parse_md(text, pair) for text in mds]), pair


#: A → B feeds B → C: the second rule only fires on repaired values.
CASCADE = ("R[A] = S[A] -> R[B] <=> S[B]", "R[B] = S[B] -> R[C] <=> S[C]")


def test_null_cells_never_satisfy_equality():
    plan, pair = _abc_plan(*CASCADE)
    instance = InstancePair(
        pair,
        Relation(pair.left, [
            {"A": None, "B": "b", "C": "c"},
            {"A": "k", "B": None, "C": "left-c"},
        ]),
        Relation(pair.right, [
            {"A": None, "B": "b2", "C": None},
            {"A": "k", "B": None, "C": None},
        ]),
    )
    result, _ = assert_same_chase(plan, instance)
    # null = null is false on A, and B stays null on the k-pair, so the
    # second rule never fires for it.
    assert result.instance.right[0]["B"] == "b2"
    assert result.instance.right[1]["C"] is None


def test_unhashable_cell_values():
    # A list under an equality atom is compared in place (and keeps the
    # atom a filter: it cannot key a join index); under a similarity atom
    # it keys the memo the way the metric reads it, by its ``str()`` form.
    pair = SchemaPair(RelationSchema("R", ABC), RelationSchema("S", ABC))
    plan = compile_plan(sigma=[
        parse_md("R[A] = S[A] & R[B] ~dl(0.8) S[B] -> R[C] <=> S[C]", pair),
    ])
    instance = InstancePair(
        pair,
        Relation(pair.left, [
            {"A": ["k"], "B": ["mark"], "C": "value"},
            {"A": "plain", "B": ["clare"], "C": "kept"},
        ]),
        Relation(pair.right, [
            {"A": ["k"], "B": ["marx"], "C": None},
            {"A": "plain", "B": ["x"], "C": None},
        ]),
    )
    result, _ = assert_same_chase(plan, instance, pairs=[(0, 0), (1, 1)])
    assert result.instance.right[0]["C"] == "value"
    assert result.instance.right[1]["C"] is None
    # (no hit: the stability check does not re-read the pair that fired,
    # as its repair wrote C and the rule reads only A and B)
    assert plan.stats.cache_hits == 0


def test_self_match_on_a_copy_repairs_each_side_apart():
    """A relation matched against its copy: a repair made through a
    tuple's right cell is not seen by its left one."""
    schema = RelationSchema("R", ABC)
    pair = SchemaPair(schema, schema)
    plan = compile_plan(sigma=[
        parse_md(text, pair)
        for text in ("R[A] = R[A] -> R[B] <=> R[B]", "R[B] = R[B] -> R[C] <=> R[C]")
    ])
    relation = Relation(schema, [
        {"A": "k", "B": "long-b", "C": "c"},
        {"A": "k", "B": None, "C": "long-c"},
        {"A": "z", "B": "long-b", "C": None},
    ])
    instance = InstancePair(pair, relation, relation.copy())
    result, _ = assert_same_chase(plan, instance, pairs=[(0, 1), (1, 2)])
    # Pair (0, 1) repairs tuple 1's B on the right only; pair (1, 2) reads
    # tuple 1's unrepaired left B, so the C rule never fires on it.
    assert result.repairs == {(LEFT, 0, "C"): "long-c", (RIGHT, 1, "B"): "long-b"}
    assert result.instance.left[1]["B"] is None
    assert result.instance.right[2]["C"] is None


def test_self_match_on_a_copy_converges_as_the_reference_does():
    """Every pair of four tuples, reflexive ones included, under two rules
    that share RHS attributes: both sides converge on one row, in the
    reference's rounds and applications."""
    schema = RelationSchema("R", ABC)
    pair = SchemaPair(schema, schema)
    plan = compile_plan(sigma=[
        parse_md("R[B] = R[B] -> R[A] <=> R[A] & R[C] <=> R[C]", pair),
        parse_md("R[C] = R[C] -> R[B] <=> R[B] & R[C] <=> R[C]", pair),
    ])
    relation = Relation(schema, [
        {"A": "a", "B": None, "C": "ab"},
        {"A": None, "B": "b", "C": "abc"},
        {"A": None, "B": "abc", "C": "ab"},
        {"A": "ba", "B": "abc", "C": "abc"},
    ])
    result, _ = assert_same_chase(
        plan, InstancePair(pair, relation, relation.copy()), max_rounds=2
    )
    assert (result.rounds, result.applications, result.stable) == (2, 21, True)
    for side in (result.instance.left, result.instance.right):
        assert {row.tid: row.values() for row in side} == {
            tid: {"A": "ba", "B": "abc", "C": "abc"} for tid in range(4)
        }


def test_self_match_on_a_copy_resolves_rewritten_classes_as_the_reference_does():
    """Resolving one class rewrites a cell another rule reads in the next
    round; the kernel makes the reference's cell merges."""
    schema = RelationSchema("R", ("A", "B", "C", "D"))
    pair = SchemaPair(schema, schema)
    plan = compile_plan(sigma=[
        parse_md("R[A] = R[B] -> R[A] <=> R[A] & R[C] <=> R[C]", pair),
        parse_md("R[A] = R[D] -> R[B] <=> R[B]", pair),
    ])
    relation = Relation(schema, [
        {"A": "mark"}, {"A": "mark"}, {"A": "marx", "D": "mark"},
        {"B": "mark", "D": "marx"},
    ])
    result, expected = assert_same_chase(
        plan, InstancePair(pair, relation, relation.copy()),
        VALUE_POLICIES["first-non-null"],
    )
    assert result.rounds == 2
    assert result.applications == expected.applications == 7


def test_sparse_tuple_ids():
    # The engine's local instances keep store tids: neither dense nor
    # starting at 0, and different on each side.
    plan, pair = _abc_plan(*CASCADE)
    left = Relation(pair.left)
    right = Relation(pair.right)
    left.insert({"A": "k", "B": "long-b", "C": "long-c"}, tid=907)
    left.insert({"A": "j", "B": "b", "C": "c"}, tid=12)
    right.insert({"A": "k", "B": None, "C": None}, tid=40_001)
    right.insert({"A": "j", "B": "bb", "C": None}, tid=3)
    result, _ = assert_same_chase(
        plan, InstancePair(pair, left, right),
        pairs=[(907, 40_001), (12, 3), (907, 3)],
    )
    assert result.instance.right[40_001]["C"] == "long-c"


def test_order_dependent_resolver():
    plan, pair = _abc_plan(*CASCADE)
    instance = InstancePair(
        pair,
        Relation(pair.left, [{"A": "k", "B": "zz", "C": "left"}]),
        Relation(pair.right, [
            {"A": "k", "B": "a-much-longer-b", "C": "right"},
            {"A": "k", "B": None, "C": None},
        ]),
    )
    result, _ = assert_same_chase(plan, instance, VALUE_POLICIES["first-non-null"])
    # first-non-null takes the first value in sorted cell order (the left
    # cell), where prefer-informative would take the longest.
    assert result.instance.right[0]["B"] == "zz"
    assert result.instance.right[1]["C"] == "left"


@pytest.mark.parametrize("rules", (CASCADE, CASCADE[::-1]))
@pytest.mark.parametrize("max_rounds", (0, 1, 2, 3))
def test_max_rounds_cut_off(max_rounds, rules):
    # Reversed, the rule left unstable at budget 1 comes *first*: the
    # later rule's holding pairs must be reported all the same.
    plan, pair = _abc_plan(*rules)
    instance = InstancePair(
        pair,
        Relation(pair.left, [{"A": "x", "B": "long-b", "C": "long-c"}]),
        Relation(pair.right, [{"A": "x", "B": None, "C": None}]),
    )
    result, _ = assert_same_chase(plan, instance, max_rounds=max_rounds)
    # Round 1 repairs B, round 2 merges C: budgets 0 and 1 stop short of
    # the fixpoint, and only then is the cut-off reported.
    assert result.rounds_exhausted == (max_rounds < 2)
    assert result.stable == (max_rounds >= 2)
    # The flag and its counter are set by the chase itself, not by the
    # first read of ``stable`` (assert_same_chase reads it late).
    fresh = plan.enforce(instance, max_rounds=max_rounds)
    assert fresh.rounds_exhausted == (max_rounds < 2)
    assert plan.stats.rounds_exhausted == 2 * (max_rounds < 2)
    # Budget 2 ends on a merging round too, so the check ran eagerly and
    # found the instance stable; budget 3 converged and left it unasked.
    assert _checked(fresh) == (max_rounds <= 2)


def test_an_unread_stability_check_costs_nothing():
    """A caller that reads matches only (the streaming engine) pays for
    no stability pass: no predicate is evaluated after the last round."""
    plan, pair = _abc_plan(*CASCADE)
    instance = InstancePair(
        pair,
        Relation(pair.left, [{"A": "x", "B": "long-b", "C": "long-c"}]),
        Relation(pair.right, [{"A": "x", "B": None, "C": None}]),
    )
    result = plan.enforce(instance)
    assert result.matches([("C", "C")]) == [(0, 0)]
    # Rounds 1 and 2 each fire one rule on the pair; round 3 re-reads
    # nothing that fired.
    assert plan.stats.metric_evaluations == 3
    # Read, the check costs nothing here either: the A rule fired in
    # round 1 and no repair ever wrote A; the B rule fired in round 2,
    # after round 1 last wrote B.  Both pairs hold unevaluated.
    assert result.stable and result.holding == [[0], [0]]
    assert plan.stats.metric_evaluations == 3
    assert not result.rounds_exhausted and plan.stats.rounds_exhausted == 0


def test_empty_candidate_list():
    plan, pair = _abc_plan(*CASCADE)
    instance = InstancePair(
        pair,
        Relation(pair.left, [{"A": "x", "B": "b", "C": "c"}]),
        Relation(pair.right, [{"A": "x", "B": None, "C": None}]),
    )
    result, _ = assert_same_chase(plan, instance, pairs=[])
    assert (result.rounds, result.applications, result.stable) == (1, 0, True)
    assert result.matches([("B", "B")]) == []
    assert _values(result.instance) == _values(instance)


def test_cells_outside_the_encoding():
    # C is no chase attribute (no rule reads or writes it) and right
    # tuple 1 is in no pair: neither has a cell, none was ever merged.
    plan, pair = _abc_plan("R[A] = S[A] -> R[B] <=> S[B]")
    instance = InstancePair(
        pair,
        Relation(pair.left, [{"A": "k", "B": "b", "C": "c"}]),
        Relation(pair.right, [
            {"A": "k", "B": None, "C": "c"},
            {"A": "k", "B": None, "C": "c"},
        ]),
    )
    result, _ = assert_same_chase(plan, instance, pairs=[(0, 0)])
    cells = result
    assert cells.same((LEFT, 0, "B"), (RIGHT, 0, "B"))
    assert not cells.same((LEFT, 0, "B"), (RIGHT, 1, "B"))
    assert not cells.same((LEFT, 0, "C"), (RIGHT, 0, "C"))
    assert cells.same((RIGHT, 1, "C"), (RIGHT, 1, "C"))
    assert cells.members((RIGHT, 1, "C")) == {(RIGHT, 1, "C")}
    assert result.matches([("B", "B")]) == [(0, 0)]
    # A target attribute no rule writes is never identified.
    assert result.matches([("B", "B"), ("C", "C")]) == []
    assert not result.identified(0, 0, [("C", "C")])


def test_nan_class_is_merged_but_not_stable():
    # The stability check compares values, not classes: a merged class
    # carrying NaN does not have equal RHS values.
    plan, pair = _abc_plan("R[A] = S[A] -> R[B] <=> S[B]")
    instance = InstancePair(
        pair,
        Relation(pair.left, [{"A": "k", "B": float("nan"), "C": None}]),
        Relation(pair.right, [{"A": "k", "B": None, "C": None}]),
    )
    result, _ = assert_same_chase(plan, instance)
    assert result.same((LEFT, 0, "B"), (RIGHT, 0, "B"))
    assert not result.stable


# ----------------------------------------------------------------------
# The end-of-chase passes pay only for what the repairs touched
# ----------------------------------------------------------------------


def _spans(plan, name):
    """The attributes of every ``name`` span the plan's tracer recorded."""
    return [
        span.attrs
        for root in plan.tracer.roots
        for span, _ in root.walk()
        if span.name == name
    ]


#: One NaN object: ``=`` never holds on it, and ``nan != nan``.
NAN = float("nan")

#: Each rule's RHS writes another rule's LHS: ``C`` repairs ``A``, which
#: the first rule reads, and the third rule repairs ``C``.
OVERLAP = (
    "R[A] = S[A] -> R[B] <=> S[B]",
    "R[C] = S[C] -> R[A] <=> S[A]",
    "R[B] = S[A] -> R[C] <=> S[C]",
)


def test_a_later_repair_takes_a_fired_pair_out_of_holding():
    """The A rule fires on (0, 0) in round 1, on ``k = k``.  Round 1's C
    repair of right tuple 1 (through the pair (1, 1)) lets the C rule
    fire on (0, 1) in round 2, and its A merge rewrites left tuple 0's A
    to ``kkkkk``: (0, 0) no longer satisfies the A rule, and nothing
    merges its A cells again.  It must leave ``holding`` re-evaluated —
    a check that took every fired pair to still hold would keep it."""
    plan, pair = _abc_plan(*OVERLAP)
    plan.tracer = Tracer()
    instance = InstancePair(
        pair,
        Relation(pair.left, [
            {"A": "k", "B": "b", "C": "c"},
            {"A": "z", "B": "kkkkk", "C": "c"},
        ]),
        Relation(pair.right, [
            {"A": "k", "B": None, "C": "d"},
            {"A": "kkkkk", "B": None, "C": None},
        ]),
    )
    result, expected = assert_same_chase(
        plan, instance, pairs=[(0, 0), (0, 1), (1, 1)]
    )
    assert result.rounds > 2 and result.stable
    assert result.instance.left[0]["A"] == "kkkkk"
    assert result.holding[0] == [1, 2] and 0 not in expected.firing(0, 0)
    (check,) = _spans(plan, "stability-check")
    assert check["reevaluated"] == 1


@st.composite
def overlapping_rules(draw):
    """Two or three rules over ``A``, ``B``, ``C`` whose RHS attributes
    are drawn from what the rule set's LHSs read — so repairs land on LHS
    cells after their rules fired, and fired pairs go stale."""
    lhss = [
        draw(st.lists(
            st.tuples(
                st.sampled_from(ABC), st.sampled_from(ABC),
                st.sampled_from(["=", "=", "~dl(0.6)"]),
            ),
            min_size=1, max_size=2, unique_by=lambda atom: atom[:2],
        ))
        for _ in range(draw(st.integers(2, 3)))
    ]
    read = sorted({name for atoms in lhss for a, b, _ in atoms for name in (a, b)})
    rules = []
    for atoms in lhss:
        written = draw(st.sampled_from(read))
        lhs = " & ".join(f"R[{a}] {operator} S[{b}]" for a, b, operator in atoms)
        rules.append(f"{lhs} -> R[{written}] <=> S[{written}]")
    return rules


@settings(max_examples=80, deadline=None)
@given(
    overlapping_rules(),
    st.lists(st.fixed_dictionaries({name: VALUES for name in ABC}), min_size=2,
             max_size=4),
    st.lists(st.fixed_dictionaries({name: VALUES for name in ABC}), min_size=2,
             max_size=4),
    st.sampled_from(sorted(VALUE_POLICIES)),
    st.sampled_from([1, 2, 100]),
)
def test_repairs_onto_lhs_cells_match_the_reference(
    rules, left_rows, right_rows, policy, max_rounds
):
    plan, pair = _abc_plan(*rules)
    plan.tracer = Tracer()
    instance = InstancePair(
        pair, Relation(pair.left, left_rows), Relation(pair.right, right_rows)
    )
    result, _ = assert_same_chase(
        plan, instance, VALUE_POLICIES[policy], max_rounds=max_rounds
    )
    (check,) = _spans(plan, "stability-check")
    event(f"fired pairs re-evaluated: {check['reevaluated'] > 0}")


def _spy(resolver):
    calls = []

    def spy(values):
        calls.append(list(values))
        return resolver(values)

    return spy, calls


#: ``(RHS attributes, their left values, their right values, resolver
#: calls)`` for one pair whose rule fires.
AGREEING = (
    ("B", ("same",), ("same",), 0),  # agreeing classes: nothing to resolve
    ("B", (None,), (None,), 0),
    ("B", ("long-b",), (None,), 1),  # a disagreeing union resolves once
    ("B", ("x",), ("y",), 1),
    # One union of a two-attribute group: each attribute's class is
    # resolved only if its own cells disagree.
    ("BC", ("same", "x"), ("same", "y"), 1),
    ("BC", ("x", "same"), ("y", "same"), 1),
    ("BC", ("same", None), ("same", None), 0),
    ("BC", ("x", "x"), ("y", None), 2),
)


@pytest.mark.parametrize(
    "rhs, left, right, calls",
    AGREEING,
    ids=[
        "-".join(map(str, (*left, *right, calls)))
        if rhs == "B"
        else "-".join(map(str, (rhs, *left, *right, calls)))
        for rhs, left, right, calls in AGREEING
    ],
)
def test_a_union_of_agreeing_classes_calls_no_resolver(rhs, left, right, calls):
    plan, pair = _abc_plan(
        "R[A] = S[A] -> " + " & ".join(f"R[{name}] <=> S[{name}]" for name in rhs)
    )
    assert [len(group) for group in plan.layout.groups] == [len(rhs)]
    plan.tracer = Tracer()
    instance = InstancePair(
        pair,
        Relation(pair.left, [{"A": "k", "C": None, **dict(zip(rhs, left))}]),
        Relation(pair.right, [{"A": "k", "C": None, **dict(zip(rhs, right))}]),
    )
    assert_same_chase(plan, instance)
    plan.tracer = Tracer()
    spy, seen = _spy(prefer_informative)
    result = plan.enforce(instance, resolver=spy)
    assert len(seen) == calls
    (resolve,) = _spans(plan, "resolve-merged")
    assert (resolve["classes"], resolve["uniform"]) == (calls, len(rhs) - calls)
    (round_, _) = _spans(plan, "chase-round")
    assert (round_["union_attempts"], round_["merges"]) == (1, len(rhs))
    assert result.applications == len(rhs)
    for name in rhs:
        assert result.same((LEFT, 0, name), (RIGHT, 0, name))
    assert not result.same((LEFT, 0, "B"), (RIGHT, 0, "C"))


@pytest.mark.parametrize("spellings", ((1, 1.0), (1.0, True), (True, 1)))
def test_equal_spellings_stay_as_they_were(spellings):
    # ``1``, ``1.0`` and ``True`` agree under ``==``: their union resolves
    # nothing, and each cell keeps its spelling, as a resolution that
    # writes only unequal cells always left it.
    plan, pair = _abc_plan("R[A] = S[A] -> R[B] <=> S[B]")
    left_b, right_b = spellings
    instance = InstancePair(
        pair,
        Relation(pair.left, [{"A": "k", "B": left_b, "C": None}]),
        Relation(pair.right, [{"A": "k", "B": right_b, "C": None}]),
    )
    spy, seen = _spy(prefer_informative)
    result = plan.enforce(instance, resolver=spy)
    assert seen == [] and result.repairs == {}
    assert result.same((LEFT, 0, "B"), (RIGHT, 0, "B"))
    assert repr(result.instance.left[0]["B"]) == repr(left_b)
    assert repr(result.instance.right[0]["B"]) == repr(right_b)
    assert result.stable


@pytest.mark.parametrize("right_b", (None, NAN))
def test_a_nan_class_is_resolved_and_unstable(right_b):
    # NaN agrees with nothing, not even itself: its union is mixed.
    plan, pair = _abc_plan("R[A] = S[A] -> R[B] <=> S[B]")
    instance = InstancePair(
        pair,
        Relation(pair.left, [{"A": "k", "B": NAN, "C": None}]),
        Relation(pair.right, [{"A": "k", "B": right_b, "C": None}]),
    )
    spy, seen = _spy(prefer_informative)
    result = plan.enforce(instance, resolver=spy)
    assert len(seen) == 1
    assert not result.stable


def test_reading_holding_runs_no_rhs_test():
    """A converged chase asked for ``holding`` only (provenance, the
    ``repro match`` path) compares no RHS value; ``stable``, read after,
    runs the test then and answers as the reference does."""
    plan, pair = _abc_plan(*CASCADE)
    plan.tracer = Tracer()
    instance = InstancePair(
        pair,
        Relation(pair.left, [
            {"A": "x", "B": "long-b", "C": "long-c"},
            {"A": "y", "B": "b", "C": NAN},
        ]),
        Relation(pair.right, [
            {"A": "x", "B": None, "C": None},
            {"A": "y", "B": "b", "C": None},
        ]),
    )
    result = plan.enforce(instance, candidate_pairs=[(0, 0), (1, 1)])
    expected = reference_chase(plan.sigma, instance, prefer_informative,
                               [(0, 0), (1, 1)], 100, plan.registry)
    assert not result.rounds_exhausted
    assert result.holding == [[0, 1], [0, 1]]
    (check,) = _spans(plan, "stability-check")
    assert "rhs_tested" not in check and _checked(result)
    assert result.stable == expected.stable
    assert not expected.stable
    assert check["rhs_tested"] > 0 and check["unstable_rule"] == plan.rules[1].name


EQUAL_VALUES = st.one_of(
    st.lists(st.sampled_from([1, 1.0, True]), min_size=1, max_size=5),
    st.lists(st.sampled_from([0, 0.0, -0.0, False]), min_size=1, max_size=5),
    st.builds(
        lambda value, count: [value] * count,
        st.one_of(
            st.none(), st.text(max_size=6), st.integers(),
            st.floats(allow_nan=False),
        ),
        st.integers(1, 5),
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(VALUE_POLICIES)), EQUAL_VALUES)
def test_every_policy_keeps_the_resolver_contract(policy, values):
    """The ``ValueResolver`` contract the chase's uniform skip relies on:
    values all ``==`` resolve to one ``==`` to them, all nulls to
    ``None``."""
    resolved = VALUE_POLICIES[policy](values)
    if values[0] is None:
        assert resolved is None
    else:
        assert all(resolved == value for value in values)


SPARSE_TIDS = st.lists(st.integers(0, 10**6), min_size=1, max_size=5, unique=True)


@settings(max_examples=60, deadline=None)
@given(SPARSE_TIDS, SPARSE_TIDS, st.data())
def test_the_resolver_sees_a_class_in_cell_order(left_tids, right_tids, data):
    """The resolver is called with a class's cells in ``(side, tid,
    attribute)`` order — the order ``first-non-null`` observes — for tids
    that are sparse and differ per side (the engine's local instances)."""
    # Cross-attribute identifications put several attributes of one tuple
    # in one class, so the attribute ranks matter as well as the tids.
    plan, pair = _abc_plan(
        "R[A] = S[A] -> R[B] <=> S[B] & R[C] <=> S[B]",
        "R[B] = S[B] -> R[A] <=> S[C] & R[C] <=> S[C]",
    )
    row = st.fixed_dictionaries({name: VALUES for name in ABC})
    left, right = Relation(pair.left), Relation(pair.right)
    for tid in left_tids:
        left.insert(data.draw(row), tid=tid)
    for tid in right_tids:
        right.insert(data.draw(row), tid=tid)
    pairs = data.draw(st.lists(
        st.sampled_from([(l, r) for l in left_tids for r in right_tids]),
        unique=True,
    ))
    instance = InstancePair(pair, left, right)
    resolver = VALUE_POLICIES["first-non-null"]
    assert_same_chase(plan, instance, resolver, pairs=pairs)

    # At each call the chase's classes are merged and their cells hold
    # the values the call is made with: the call is one class's values,
    # read in cell order.
    def spy(values):
        in_order = [
            [state.values[state.cell(*cell)] for cell in sorted(members)]
            for members in state.classes()
        ]
        assert list(values) in in_order
        event(f"cells in a resolved class: {len(values)}")
        return resolver(values)

    state = ChaseState(plan, instance, CandidateSet.of(pairs), spy)
    assert state.run().repairs == plan.enforce(instance, resolver, pairs).repairs
# ----------------------------------------------------------------------
# RHS groups: one union per (pair, group), one class per lane
# ----------------------------------------------------------------------

#: ``E`` is always null, so ``=`` never holds on it (see below).
ABCDE = ("A", "B", "C", "D", "E")

#: The RHS pairs rules draw from: the diagonal, plus two pairs that put
#: ``C`` (left) and ``B`` / ``D`` (right) in a second RHS pair each.
RHS_POOL = (("A", "A"), ("B", "B"), ("C", "C"), ("D", "D"), ("C", "B"), ("A", "D"))


@st.composite
def grouped_rules(draw):
    """Two to four rules over a bundle of RHS pairs drawn once for the
    rule set: each rule writes all of the bundle or none of it — so its
    pairs share their writers, and form a group unless another RHS pair
    reads one of their attributes — plus RHS pairs of its own."""
    bundle = draw(st.lists(
        st.sampled_from(RHS_POOL[:4]), min_size=2, max_size=3, unique=True
    ))
    rules = []
    for _ in range(draw(st.integers(2, 4))):
        lhs = draw(st.lists(
            st.tuples(
                st.sampled_from(ABCDE[:4]), st.sampled_from(ABCDE[:4]),
                st.sampled_from(["=", "=", "~dl(0.6)"]),
            ),
            min_size=1, max_size=2, unique_by=lambda atom: atom[:2],
        ))
        own = draw(st.lists(st.sampled_from(RHS_POOL), max_size=2, unique=True))
        rhs = (bundle if draw(st.booleans()) else []) + [
            pair for pair in own if pair not in bundle
        ]
        rules.append((lhs, rhs or bundle))
    return rules


def _grouped_plans(rules, pair):
    """The plan of ``rules``, and its twin with every RHS group split.

    The twin adds, per RHS pair, a rule that writes that pair alone and
    never fires (its LHS reads ``E``, always null): no two RHS pairs then
    share their writers, every group is a group of one, and the chase is
    otherwise the same."""
    left, right = pair.left.name, pair.right.name
    texts = [
        " & ".join(f"{left}[{a}] {operator} {right}[{b}]" for a, b, operator in lhs)
        + " -> "
        + " & ".join(f"{left}[{a}] <=> {right}[{b}]" for a, b in rhs)
        for lhs, rhs in rules
    ]
    written = {(a, b) for _, rhs in rules for a, b in rhs}
    never = [
        f"{left}[E] = {right}[E] -> {left}[{a}] <=> {right}[{b}]"
        for a, b in sorted(written)
    ]
    plan = compile_plan(sigma=[parse_md(text, pair) for text in texts])
    twin = compile_plan(sigma=[parse_md(text, pair) for text in texts + never])
    assert all(len(group) == 1 for group in twin.layout.groups)
    return plan, twin


ROWS = st.lists(
    st.fixed_dictionaries({name: VALUES for name in ABCDE[:4]}),
    min_size=2, max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(grouped_rules(), ROWS, ROWS, st.sampled_from(sorted(VALUE_POLICIES)))
def test_group_unions_match_the_reference(rules, left_rows, right_rows, policy):
    """Grouped unions are invisible: ``same`` and ``members`` answer for
    every encoded cell what the classes say, and the resolver is called
    with what the same chase without groups calls it with.  The classes
    are the reference's, and the whole chase agrees with it."""
    pair = SchemaPair(RelationSchema("R", ABCDE), RelationSchema("S", ABCDE))
    plan, twin = _grouped_plans(rules, pair)
    instance = InstancePair(
        pair, Relation(pair.left, left_rows), Relation(pair.right, right_rows)
    )
    resolver = VALUE_POLICIES[policy]
    event(f"largest RHS group: {max(len(group) for group in plan.layout.groups)}")
    result, expected = assert_same_chase(plan, instance, resolver)
    classes = expected.classes

    cells = result
    class_of = {cell: members for members in classes for cell in members}
    encoded = [cells.decode(cell) for cell in range(len(cells.root))]
    for cell in encoded:
        members = class_of.get(cell, {cell})
        assert cells.members(cell) == members
        for other in encoded:
            assert cells.same(cell, other) == (other in members)

    spy, seen = _spy(resolver)
    twin_spy, twin_seen = _spy(resolver)
    grouped = plan.enforce(instance, resolver=spy)
    split = twin.enforce(instance, resolver=twin_spy)
    assert grouped.applications == split.applications
    assert grouped.repairs == split.repairs
    assert {frozenset(members) for members in split.classes()} == classes
    assert sorted(map(repr, seen)) == sorted(map(repr, twin_seen))


def test_the_chase_is_one_state_and_enforce_its_one_entry_point():
    """``plan.enforce`` returns the :class:`ChaseState` that ran the
    rounds and holds the cell classes; the kernel function, the separate
    result and classes objects, the second entry point in ``repro.core``
    and the second storage layout (one relation on both sides) are gone."""
    import repro.core
    import repro.core.semantics
    import repro.plan
    import repro.plan.executor

    assert not hasattr(repro.plan.executor, "chase")
    assert not hasattr(repro.plan, "chase")
    assert not hasattr(repro.core, "EnforcementResult")
    assert not hasattr(repro.core, "enforce")
    for name in ("enforce", "CellClasses", "ChaseLayout", "rule_masks"):
        assert not hasattr(repro.core.semantics, name)
    assert not hasattr(repro.plan.executor, "CellClasses")
    plan, pair = _abc_plan(*CASCADE)
    instance = InstancePair(
        pair,
        Relation(pair.left, [{"A": "x", "B": "long-b", "C": "long-c"}]),
        Relation(pair.right, [{"A": "x", "B": None, "C": None}]),
    )
    result = plan.enforce(instance)
    assert type(result) is ChaseState and result.rounds == 3
    assert not hasattr(result, "merged_cells")
    assert not hasattr(plan, "layouts") and "shared" not in ChaseLayout._fields
    for name in ("first_union", "unions_made", "right_cells"):
        assert not hasattr(result, name)
    assert result == result and result != plan.enforce(instance)
