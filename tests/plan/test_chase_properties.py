"""Property-based tests (Hypothesis) for the enforcement chase.

Randomized small instances and MD sets over a fixed schema pair check
the kernel's algebraic contracts:

* **immutability** — the original instance is never mutated, whatever
  the rules do ("in the matching process instance D may not be
  updated");
* **idempotence** — a converged chase is a fixpoint: chasing the result
  again applies no rule and changes no value;
* **monotonicity of merges** — identifications only grow with more
  rounds: every cell pair merged under ``max_rounds=k`` stays merged
  under any larger bound, and a chase that did not exhaust its rounds
  decides exactly what the unbounded chase decides.

The shapes are deliberately tiny (≤ 8 rows per side, ≤ 3 MDs over a
3-attribute schema with equality operators): the properties are about
rule interaction — repairs enabling later rules, merge classes growing
across rounds — not scale, and small shapes keep Hypothesis fast while
shrinking failures to readable instances.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parser import parse_md
from repro.core.schema import LEFT, RIGHT, RelationSchema, SchemaPair
from repro.core.semantics import InstancePair
from repro.plan import compile_plan
from repro.relations.relation import Relation

ATTRIBUTES = ("A", "B", "C")

#: A small closed value universe: overlapping values make LHS equalities
#: fire, differing lengths make the prefer-informative resolver rewrite.
VALUES = st.sampled_from([None, "a", "b", "ab", "ba", "abc"])

rows = st.lists(
    st.fixed_dictionaries({name: VALUES for name in ATTRIBUTES}),
    min_size=1,
    max_size=8,
)

attribute = st.sampled_from(ATTRIBUTES)

mds = st.lists(
    st.tuples(
        st.lists(attribute, min_size=1, max_size=2, unique=True),
        st.lists(attribute, min_size=1, max_size=2, unique=True),
    ),
    min_size=1,
    max_size=3,
)


def _build(left_rows, right_rows, md_shapes):
    """Realize generated shapes as a compiled plan and an instance pair."""
    pair = SchemaPair(
        RelationSchema("R", ATTRIBUTES), RelationSchema("S", ATTRIBUTES)
    )
    sigma = [
        parse_md(
            " & ".join(f"R[{name}] = S[{name}]" for name in lhs)
            + " -> "
            + " & ".join(f"R[{name}] <=> S[{name}]" for name in rhs),
            pair,
        )
        for lhs, rhs in md_shapes
    ]
    plan = compile_plan(sigma=sigma)
    instance = InstancePair(
        pair, Relation(pair.left, left_rows), Relation(pair.right, right_rows)
    )
    return plan, instance


def _values(instance: InstancePair):
    return {
        (side, row.tid): row.values()
        for side, relation in ((LEFT, instance.left), (RIGHT, instance.right))
        for row in relation
    }


def _identified_cells(result):
    """Every merged (cell, cell) identification as a canonical frozenset."""
    return {
        frozenset(group) for group in result.classes()
    }


@settings(max_examples=40, deadline=None)
@given(rows, rows, mds)
def test_original_instance_never_mutated(left_rows, right_rows, md_shapes):
    plan, instance = _build(left_rows, right_rows, md_shapes)
    before = _values(instance)
    plan.enforce(instance)
    assert _values(instance) == before


@settings(max_examples=40, deadline=None)
@given(rows, rows, mds)
def test_chase_is_idempotent(left_rows, right_rows, md_shapes):
    plan, instance = _build(left_rows, right_rows, md_shapes)
    first = plan.enforce(instance)
    assert first.stable
    assert not first.rounds_exhausted
    # Idempotence is a *value-level* fixpoint: re-chasing may re-identify
    # cells (each chase starts a fresh union-find), but those classes
    # already carry one value, so nothing is ever rewritten again.
    again = plan.enforce(first.instance)
    assert again.stable
    assert _values(again.instance) == _values(first.instance)


@settings(max_examples=40, deadline=None)
@given(rows, rows, mds, st.integers(min_value=1, max_value=4))
def test_merges_grow_monotonically_with_rounds(
    left_rows, right_rows, md_shapes, bound
):
    plan, instance = _build(left_rows, right_rows, md_shapes)
    bounded = plan.enforce(instance, max_rounds=bound)
    full = plan.enforce(instance)
    # Every class merged under the bound survives (possibly having grown)
    # in the unbounded chase.
    for group in bounded.classes():
        anchor, *rest = sorted(group)
        for member in rest:
            assert full.same(anchor, member)
    # A non-exhausted bounded chase reached a stable instance: later
    # rounds may still merge cells that already carry equal values, but
    # they can never rewrite one — the *values* are final.
    if not bounded.rounds_exhausted:
        assert _values(bounded.instance) == _values(full.instance)
    # Converging strictly inside the bound (a no-merge round ran) means
    # the bounded chase IS the full chase, identifications included.
    if bounded.rounds < bound:
        assert _identified_cells(bounded) == _identified_cells(full)
