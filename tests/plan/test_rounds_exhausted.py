"""``plan.enforce(max_rounds=...)`` must report exhaustion, never stop silently.

The adversarial rule set is a dependency chain: rule *i* repairs the
attribute rule *i+1* needs, so every chase round enables exactly one
more rule and a chain of length K needs K+1 rounds to converge.  A
``max_rounds`` below that used to exhaust silently, returning a partial
extension indistinguishable from a converged one; now
:attr:`~repro.plan.executor.ChaseState.rounds_exhausted` says
so.
"""

from __future__ import annotations

import pytest

from repro.core.parser import parse_md
from repro.core.schema import RelationSchema, SchemaPair
from repro.core.semantics import InstancePair
from repro.plan import compile_plan
from repro.relations.relation import Relation


def enforce(instance, sigma, **options):
    """Chase ``instance`` with Σ over a throwaway plan."""
    return compile_plan(sigma=sigma).enforce(instance, **options)


#: Chain length: rule i reads A{i}, repairs A{i+1}.
CHAIN = 4

ATTRIBUTES = tuple(f"A{index}" for index in range(CHAIN + 1))


def _chain_setup():
    """One candidate pair that needs CHAIN+1 rounds to converge."""
    pair = SchemaPair(
        RelationSchema("R", ATTRIBUTES), RelationSchema("S", ATTRIBUTES)
    )
    sigma = [
        parse_md(
            f"R[A{index}] = S[A{index}] -> R[A{index + 1}] <=> S[A{index + 1}]",
            pair,
        )
        for index in range(CHAIN)
    ]
    left = Relation(pair.left)
    right = Relation(pair.right)
    # A0 agrees (the fuse); every later attribute disagrees until the
    # cascade of repairs reaches it.
    left_tid = left.insert(
        {"A0": "match", **{f"A{i}": f"left-{i}-long" for i in range(1, CHAIN + 1)}}
    )
    right_tid = right.insert(
        {"A0": "match", **{f"A{i}": None for i in range(1, CHAIN + 1)}}
    )
    return pair, sigma, InstancePair(pair, left, right), [(left_tid, right_tid)]


def test_chain_converges_and_reports_no_exhaustion():
    _, sigma, instance, pairs = _chain_setup()
    result = enforce(instance, sigma, candidate_pairs=pairs)
    assert result.rounds == CHAIN + 1
    assert not result.rounds_exhausted
    assert result.stable


@pytest.mark.parametrize("bound", [1, 2, CHAIN - 1])
def test_bounded_chase_records_exhaustion(bound):
    _, sigma, instance, pairs = _chain_setup()
    result = enforce(instance, sigma, candidate_pairs=pairs, max_rounds=bound)
    assert result.rounds == bound
    assert result.rounds_exhausted
    # The partial extension is visibly not a fixpoint.
    assert not result.stable
    # Exactly one rule fired per round.
    assert result.applications == bound


def test_zero_round_budget_on_unstable_instance_is_exhaustion():
    """A budget spent before any round ran is still exhaustion."""
    _, sigma, instance, pairs = _chain_setup()
    result = enforce(instance, sigma, candidate_pairs=pairs, max_rounds=0)
    assert result.rounds == 0
    assert not result.stable
    assert result.rounds_exhausted


def test_exact_bound_is_not_exhaustion():
    """Converging on the last permitted round is success, not exhaustion."""
    _, sigma, instance, pairs = _chain_setup()
    result = enforce(
        instance, sigma, candidate_pairs=pairs, max_rounds=CHAIN + 1
    )
    assert result.rounds == CHAIN + 1
    assert not result.rounds_exhausted
    assert result.stable


def test_merging_on_the_last_round_but_stable_is_not_exhaustion():
    """The budget may run out exactly when the chain completes.

    With ``max_rounds=CHAIN`` the final permitted round still merges —
    but it merges the chain's last link, so the result is stable and
    nothing was cut off: ``rounds_exhausted`` must stay False (the flag
    implies instability, never the other way around).
    """
    _, sigma, instance, pairs = _chain_setup()
    result = enforce(instance, sigma, candidate_pairs=pairs, max_rounds=CHAIN)
    assert result.rounds == CHAIN
    assert result.stable
    assert not result.rounds_exhausted
