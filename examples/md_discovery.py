#!/usr/bin/env python3
"""The Section 8 extensions in one pipeline.

1. **MD discovery**: mine matching dependencies from a labelled sample
   (Section 8: "develop algorithms for discovering MDs from sample data").
2. **Reasoning**: deduce RCKs from the mined MDs (the Section 7 pipeline:
   "first discover a small set of MDs via sampling and learning, and then
   leverage the reasoning techniques to deduce RCKs").
3. **Negation**: add negative rules ("same surname and address but
   different first names → not the same person") and check Σ against them
   for static conflicts.
4. **Synonyms**: register constant-transformation operators
   ("St" → "Street", "Bob" → "Robert") usable inside MDs.

Run:  python examples/md_discovery.py
"""

from repro.core.findrcks import find_rcks
from repro.experiments.extensions.negation import GuardedRuleSet, NegativeRule, find_conflicts
from repro.datagen.generator import generate_dataset
from repro.experiments.extensions.miner import (
    DiscoveryConfig,
    discover_mds,
    random_labelled_pairs,
    sample_labelled_pairs,
)
from repro.api import Workspace
from repro.matching.evaluate import evaluate_matches
from repro.metrics.registry import default_registry
from repro.experiments.extensions.synonyms import (
    common_nickname_synonyms,
    register_synonym_metrics,
    us_address_synonyms,
    merged_tables,
)
from repro.experiments.baselines.windowing import window_candidates
from repro.plan.blocking import attribute_key


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Mine MDs from a labelled sample
    # ------------------------------------------------------------------
    print("Generating training data (600 billing tuples) ...")
    dataset = generate_dataset(600, seed=31)
    key = attribute_key(["zip", "LN"])
    candidates = window_candidates(dataset.credit, dataset.billing, key, key, 10)
    sample = sample_labelled_pairs(
        candidates, dataset.true_matches, limit=4000, seed=0
    )
    sample += random_labelled_pairs(
        dataset.credit, dataset.billing, dataset.true_matches, 4000, seed=1
    )
    print(f"Labelled sample: {len(sample)} pairs "
          f"({sum(1 for _, _, m in sample if m)} matches)")

    mined = discover_mds(
        dataset.credit,
        dataset.billing,
        sample,
        dataset.target,
        DiscoveryConfig(min_confidence=0.97, min_support=10, max_lhs=2),
    )
    print(f"\nMined {len(mined)} MDs; the five most confident:")
    for rule in mined[:5]:
        lhs = " & ".join(str(atom) for atom in rule.dependency.lhs)
        print(f"  {lhs}  ->  identify Y   "
              f"[support={rule.support}, conf={rule.confidence:.3f}]")

    # ------------------------------------------------------------------
    # 2. Deduce RCKs from the mined MDs and match fresh data
    # ------------------------------------------------------------------
    sigma = [rule.dependency for rule in mined]
    rcks = find_rcks(sigma, dataset.target, m=5)
    print("\nRCKs deduced from the mined MDs:")
    for rck in rcks:
        print(f"  {rck}")

    fresh = generate_dataset(600, seed=77)
    workspace = (
        Workspace.builder()
        .pair(dataset.pair)
        .target(dataset.target)
        .mds(sigma)
        .rcks(rcks)
        .execution(mode="direct")
        .workspace()
    )
    result = workspace.match(fresh.credit, fresh.billing)
    quality = evaluate_matches(result.matches, fresh.true_matches)
    print(f"\nMatching fresh data with mined+deduced keys: {quality}")

    # ------------------------------------------------------------------
    # 3. Negative rules: consistency check + runtime vetoes
    # ------------------------------------------------------------------
    # Same surname and address but a *different* first name: a household
    # co-member, not the same person.  The fourth component of an atom
    # marks it negated (dissimilarity test).
    household_veto = NegativeRule.build(
        dataset.pair,
        [("LN", "LN", "="), ("street", "street", "="),
         ("zip", "zip", "="), ("FN", "FN", "dl(0.8)", True)],
        [("FN", "FN")],
        name="household-members-differ",
    )
    conflicts = find_conflicts(dataset.pair, sigma, [household_veto])
    print(f"\nStatic check of mined Sigma against the household veto: "
          f"{len(conflicts)} conflict(s)")
    for conflict in conflicts:
        print(f"  CONFLICT: {conflict}")

    # The veto wraps the same compiled keys the workspace matched with.
    guarded = GuardedRuleSet(workspace.plan, [household_veto])
    vetoed = sum(
        1
        for left_tid, right_tid in result.matches
        if not guarded.matches(fresh.credit[left_tid], fresh.billing[right_tid])
    )
    print(f"Runtime vetoes on the fresh matches: {vetoed}")

    # ------------------------------------------------------------------
    # 4. Synonym operators
    # ------------------------------------------------------------------
    registry = default_registry()
    table = merged_tables([us_address_synonyms(), common_nickname_synonyms()])
    register_synonym_metrics(registry, table)
    syn = registry.resolve("syn_dl(0.9)")
    print("\nSynonym-aware operator syn_dl(0.9):")
    for left, right in (
        ("10 Oak St", "10 Oak Street"),
        ("Bob", "Robert"),
        ("Bob", "William"),
    ):
        print(f"  {left!r} ~ {right!r}: {syn(left, right)}")


if __name__ == "__main__":
    main()
