"""Algorithm ``findRCKs`` — deducing quality RCKs from MDs (Section 5).

Given a set Σ of MDs, a comparable target ``(Y1, Y2)`` and a bound ``m``,
the algorithm returns a set Γ of at most ``m`` relative candidate keys,
deduced from Σ and chosen greedily by the cost model of
:mod:`repro.core.quality`.  When fewer than ``m`` RCKs exist, Γ is the set
of *all* RCKs deducible from Σ — detected through the completeness
criterion of Proposition 5.1: Γ is complete iff for every γ ∈ Γ and φ ∈ Σ
some key already in Γ covers ``apply(γ, φ)``.

The structure follows Fig. 7 of the paper:

1. collect the attribute pairs appearing in Σ or the target (``pairing``)
   and zero their diversity counters;
2. seed Γ with ``minimize((Y1, Y2 ‖ =), Σ)`` — the identity key is always
   a relative key, so its minimization is the first RCK;
3. repeatedly apply every MD (cheapest LHS first — ``sortMD``) to every key
   in Γ; keep the results not covered by existing keys, minimized;
4. stop at ``m`` keys or at completeness.

``minimize`` drops triples greedily from the most expensive down, keeping a
triple only when deduction fails without it (checked with
:class:`~repro.core.closure.ClosureEngine`).  Because deducibility of keys
is monotone under adding LHS triples (Lemma 3.1, augmentation), the greedy
sweep yields a globally minimal key — a true RCK, not just a local optimum.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set

from .closure import ClosureEngine
from .md import MatchingDependency
from .quality import AttributePair, CostModel
from .rck import RelativeKey
from .schema import ComparableLists


def pairing(
    sigma: Sequence[MatchingDependency], target: ComparableLists
) -> Set[AttributePair]:
    """All attribute pairs occurring in the target or in some MD of Σ."""
    pairs: Set[AttributePair] = set(target.attribute_pairs())
    for dependency in sigma:
        pairs.update(dependency.lhs_attribute_pairs())
        pairs.update(dependency.rhs_attribute_pairs())
    return pairs


def minimize(
    key: RelativeKey, engine: ClosureEngine, cost_model: CostModel
) -> RelativeKey:
    """Procedure ``minimize``: strip removable triples, costly ones first.

    Precondition: ``Σ ⊨m key`` (always true for keys produced by
    ``apply``/seeding inside ``findRCKs``).  Post-condition: the result is
    an RCK — no triple can be removed while remaining deducible.
    """
    ordered = sorted(
        key.atoms,
        key=lambda atom: cost_model.cost(atom.attribute_pair),
        reverse=True,
    )
    current = key
    for atom in ordered:
        if current.length == 1:
            break  # a key must keep at least one comparison
        candidate = current.without(atom)
        if engine.deduces(candidate.to_md()):
            current = candidate
    return current


def sort_mds(
    sigma: Sequence[MatchingDependency], cost_model: CostModel
) -> List[MatchingDependency]:
    """Procedure ``sortMD``: Σ by ascending total LHS cost (stable)."""
    return sorted(
        sigma,
        key=lambda dependency: cost_model.lhs_cost(
            dependency.lhs_attribute_pairs()
        ),
    )


def find_rcks(
    sigma: Iterable[MatchingDependency],
    target: ComparableLists,
    m: int,
    cost_model: Optional[CostModel] = None,
    engine: Optional[ClosureEngine] = None,
) -> List[RelativeKey]:
    """Algorithm ``findRCKs``: up to ``m`` quality RCKs relative to target.

    Parameters
    ----------
    sigma:
        The MDs to reason from.
    target:
        The comparable lists ``(Y1, Y2)`` the keys are relative to.
    m:
        Maximum number of RCKs to return; must be positive.
    cost_model:
        Quality model; defaults to the paper's ``w1 = w2 = w3 = 1`` with
        unit accuracies and zero length statistics.
    engine:
        A pre-built :class:`ClosureEngine` for Σ, to amortize indexing when
        calling ``find_rcks`` repeatedly with the same Σ.

    Returns
    -------
    list of :class:`RelativeKey`
        Quality RCKs, in deduction order (most diverse/cheap first).  When
        fewer than ``m`` exist the list is complete (Proposition 5.1).

    >>> from repro.datagen.schemas import credit_billing_pair, paper_mds, paper_target
    >>> pair = credit_billing_pair()
    >>> rcks = find_rcks(paper_mds(pair), paper_target(pair), m=6)
    >>> len(rcks)
    5
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    sigma = list(sigma)
    if cost_model is None:
        cost_model = CostModel()
    if engine is None:
        engine = ClosureEngine(target.pair, sigma)

    pairs = pairing(sigma, target)
    cost_model.reset_counters(pairs)

    # Coverage index: each key in Γ is filed under one *witness* triple
    # (its lexicographically smallest).  A key can only cover a candidate
    # whose triple set contains the witness, so the ≼ test scans
    # |candidate| buckets instead of all of Γ — the difference between
    # seconds and hours on workloads with hundreds of RCKs.
    cover_index: dict = {}

    def witness(key: RelativeKey):
        return min(key.atoms)

    def covered(candidate: RelativeKey) -> bool:
        candidate_set = candidate.triple_set()
        for atom in candidate_set:
            for existing in cover_index.get(atom, ()):
                if existing.triple_set() <= candidate_set:
                    return True
        return False

    def admit(key: RelativeKey) -> None:
        cover_index.setdefault(witness(key), []).append(key)

    seed = minimize(RelativeKey.identity_key(target), engine, cost_model)
    gamma: List[RelativeKey] = [seed]
    admit(seed)
    cost_model.increment(seed.attribute_pairs())
    if m == 1:
        return gamma

    # Worklist over Γ; Γ grows while we iterate (Fig. 7, lines 5-15).
    index = 0
    while index < len(gamma):
        key = gamma[index]
        index += 1
        ordered = sort_mds(sigma, cost_model)
        position = 0
        while position < len(ordered):
            dependency = ordered[position]
            position += 1
            candidate = key.apply_md(dependency)
            if covered(candidate):
                continue
            new_key = minimize(candidate, engine, cost_model)
            gamma.append(new_key)
            admit(new_key)
            cost_model.increment(new_key.attribute_pairs())
            if len(gamma) >= m:
                return gamma
            # Costs changed; re-sort the MDs not yet applied to this key
            # (Fig. 7 line 14 re-sorts LΣ after each addition).
            remaining = ordered[position:]
            ordered = ordered[:position] + sort_mds(remaining, cost_model)
    return gamma


def is_complete(
    gamma: Sequence[RelativeKey],
    sigma: Sequence[MatchingDependency],
) -> bool:
    """Proposition 5.1's completeness test.

    A non-empty Γ consists of *all* RCKs deducible from Σ iff for every
    γ ∈ Γ and φ ∈ Σ some γ1 ∈ Γ covers ``apply(γ, φ)``.
    """
    if not gamma:
        return False
    for key in gamma:
        for dependency in sigma:
            candidate = key.apply_md(dependency)
            if not any(existing.covers(candidate) for existing in gamma):
                return False
    return True


def all_rcks(
    sigma: Iterable[MatchingDependency],
    target: ComparableLists,
    cost_model: Optional[CostModel] = None,
    limit: int = 10_000,
) -> List[RelativeKey]:
    """Enumerate the complete set of RCKs (small Σ only — Fig. 8(c)).

    ``limit`` guards against the theoretical exponential blow-up: more than
    ``limit`` keys raise ``RuntimeError`` rather than silently truncating,
    exactly ``limit`` is a complete answer.
    """
    keys = find_rcks(sigma, target, m=limit + 1, cost_model=cost_model)
    if len(keys) > limit:
        raise RuntimeError(
            f"more than {limit} RCKs; refusing to enumerate exhaustively"
        )
    return keys
