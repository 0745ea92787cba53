"""Property tests: three closure implementations must agree.

The production :class:`ClosureEngine`, the literal Fig. 5 loop, and the
independent union-find axiom model (:class:`AxiomaticClosure`) all compute
the same set of derived facts on random MD workloads — any divergence is a
bug in one of them.  The union-find model additionally *applies* MDs here
in a plain saturation loop, so it exercises none of the engine's indexing
or queueing machinery.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from closure_oracles import AxiomaticClosure, md_closure_paper_loop

from repro.core.closure import ClosureEngine
from repro.core.similarity import EQUALITY
from repro.datagen.mdgen import generate_workload


def _axiomatic_closure(pair, sigma, lhs):
    """Saturation-style reference: apply MDs until fixpoint on the model."""
    closure = AxiomaticClosure()
    for atom in lhs:
        closure.add(
            pair.left_attr(atom.left),
            pair.right_attr(atom.right),
            atom.operator,
        )
    normalized = []
    for dependency in sigma:
        normalized.extend(dependency.normalize())
    remaining = list(normalized)
    changed = True
    while changed:
        changed = False
        still = []
        for dependency in remaining:
            if all(
                closure.holds(
                    pair.left_attr(atom.left),
                    pair.right_attr(atom.right),
                    atom.operator,
                )
                for atom in dependency.lhs
            ):
                rhs = dependency.rhs[0]
                closure.add(
                    pair.left_attr(rhs.left),
                    pair.right_attr(rhs.right),
                    EQUALITY,
                )
                changed = True
            else:
                still.append(dependency)
        remaining = still
    return closure


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    md_count=st.integers(min_value=1, max_value=25),
    target_length=st.integers(min_value=2, max_value=5),
    lhs_choice=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_engine_agrees_with_axiom_model(seed, md_count, target_length, lhs_choice):
    workload = generate_workload(
        md_count=md_count, target_length=target_length, seed=seed
    )
    pair, sigma = workload.pair, list(workload.sigma)
    # Use the LHS of one of the generated MDs as the query premise.
    phi = sigma[lhs_choice % len(sigma)]

    engine = ClosureEngine(pair, sigma)
    matrix, _ = engine.closure(phi.lhs)
    reference = _axiomatic_closure(pair, sigma, phi.lhs)

    attributes = pair.all_qualified_attributes()
    operators = {EQUALITY}
    for dependency in sigma:
        operators.update(dependency.operators())
    for a in attributes:
        for b in attributes:
            for op in operators:
                assert matrix.holds(a, b, op) == reference.holds(a, b, op), (
                    f"divergence on {a.display} {op} {b.display} "
                    f"(seed={seed}, md_count={md_count})"
                )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    md_count=st.integers(min_value=1, max_value=15),
)
@settings(max_examples=30, deadline=None)
def test_engine_agrees_with_paper_loop(seed, md_count):
    workload = generate_workload(md_count=md_count, target_length=3, seed=seed)
    pair, sigma = workload.pair, list(workload.sigma)
    phi = sigma[seed % len(sigma)]

    engine = ClosureEngine(pair, sigma)
    engine_matrix, _ = engine.closure(phi.lhs)
    loop_matrix = md_closure_paper_loop(pair, sigma, phi.lhs)

    engine_facts = {
        (frozenset((a.display, b.display)), op.name)
        for a, b, op in engine_matrix.entries()
    }
    loop_facts = {
        (frozenset((a.display, b.display)), op.name)
        for a, b, op in loop_matrix.entries()
    }
    # Raw entry sets can differ in redundant ≈ entries (an = edge may or
    # may not be accompanied by a stored ≈ edge depending on arrival
    # order); the *holds* semantics must agree exactly.
    attributes = pair.all_qualified_attributes()
    operators = {EQUALITY}
    for dependency in sigma:
        operators.update(dependency.operators())
    for a in attributes:
        for b in attributes:
            for op in operators:
                assert engine_matrix.holds(a, b, op) == loop_matrix.holds(
                    a, b, op
                )
    # Equality facts specifically are arrival-order independent.
    engine_eq = {pair_ for pair_, op in engine_facts if op == "="}
    loop_eq = {pair_ for pair_, op in loop_facts if op == "="}
    assert engine_eq == loop_eq
