#!/usr/bin/env python3
"""Census-style deduplication: Fellegi–Sunter with RCK comparison vectors.

The Fellegi–Sunter model is "widely used to process, e.g., census data"
(Section 6.2).  This example contrasts the two ways of choosing its
comparison vector on one dataset:

* the naive vector — equality tests on every identity attribute, with EM
  left to figure out the weights;
* the RCK vector — the union of the top five deduced RCKs: fewer
  attributes, each compared with the operator the rules prescribe.

It prints the EM-estimated weights of both (so you can see what EM thinks
of each feature) and the resulting match quality.

Run:  python examples/census_deduplication.py
"""

from repro.experiments.baselines.comparison import equality_spec, union_of_rcks
from repro.experiments.baselines.fellegi_sunter import FellegiSunter
from repro.experiments.exp_fs import prepare
from repro.matching.evaluate import evaluate_matches


def run_matcher(name, spec, dataset, candidates):
    matcher = FellegiSunter(spec)
    estimate = matcher.fit(dataset.credit, dataset.billing, candidates, seed=0)
    print(f"\n{name}: EM fitted in {estimate.iterations} iterations "
          f"(p = {estimate.p:.4f}, threshold = {matcher.decision_threshold():.2f})")
    print("  feature weights (agree / disagree):")
    for feature_name, agree, disagree in matcher.feature_weights():
        print(f"    {feature_name:<28} {agree:+6.2f} / {disagree:+6.2f}")
    matches = matcher.classify(dataset.credit, dataset.billing, candidates)
    quality = evaluate_matches(matches, dataset.true_matches)
    print(f"  quality: {quality}")
    return quality


def main() -> None:
    print("Generating 3,000 records with duplicates and noise...")
    # Exp-2's setup: the dataset, its top-5 deduced RCKs, and shared
    # candidates from multi-pass windowing on the top three RCKs.
    dataset, candidates, rcks = prepare(3000, seed=11)

    print("Top-5 deduced RCKs:")
    for key in rcks:
        print(f"  {key}")

    print(f"\nWindowing produced {len(candidates)} candidate pairs "
          f"(of {dataset.total_pairs} possible).")

    naive = run_matcher(
        "FS with naive equality vector",
        equality_spec(dataset.target.attribute_pairs()),
        dataset,
        candidates,
    )
    rck = run_matcher(
        "FS with RCK-union vector",
        union_of_rcks(rcks),
        dataset,
        candidates,
    )

    print("\nSummary:")
    print(f"  naive vector: precision {naive.precision:.3f}, recall {naive.recall:.3f}")
    print(f"  RCK vector:   precision {rck.precision:.3f}, recall {rck.recall:.3f}")
    print(
        "\nThe RCK vector tells the matcher both *what* to compare and"
        "\n*how* (similarity operators where rules allow fuzziness), which"
        "\nis where the precision gap comes from (Fig. 9 of the paper)."
    )


if __name__ == "__main__":
    main()
