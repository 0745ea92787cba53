#!/usr/bin/env python3
"""Quickstart: the paper's running example, end to end.

Walks through Examples 1.1–5.1 of *Reasoning about Record Matching Rules*
(Fan, Jia, Li, Ma — VLDB 2009):

1. declare the credit/billing schemas and the MDs ϕ1–ϕ3;
2. check a deduction (Σ ⊨m rck4, Example 3.5);
3. deduce quality RCKs with findRCKs (Example 5.1);
4. match the Fig. 1 tuples with the deduced keys — including the pairs
   the hand-written key cannot match.

Run:  python examples/quickstart.py
"""

from repro.core.closure import deduces
from repro.core.findrcks import find_rcks
from repro.core.parser import format_md
from repro.core.rck import RelativeKey
from repro.datagen.generator import figure1_instances
from repro.datagen.schemas import credit_billing_pair, paper_mds, paper_target
from repro.plan import compile_plan


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Schemas and matching dependencies (Example 2.1)
    # ------------------------------------------------------------------
    pair = credit_billing_pair()
    target = paper_target(pair)  # (Yc, Yb): the card-holder attributes
    sigma = paper_mds(pair)

    print("The schema pair:")
    print(f"  {pair.left!r}")
    print(f"  {pair.right!r}")
    print(f"\nThe target lists (Yc, Yb): {target}")
    print("\nThe matching dependencies of Example 2.1:")
    for index, dependency in enumerate(sigma, start=1):
        print(f"  phi{index}: {format_md(dependency)}")

    # ------------------------------------------------------------------
    # 2. Deduction (Example 3.5): Sigma |=m rck4
    # ------------------------------------------------------------------
    rck4 = RelativeKey.from_triples(
        target, [("email", "email", "="), ("tel", "phn", "=")]
    )
    print(f"\nIs {rck4} deducible from Sigma?")
    print(f"  Sigma |=m rck4: {deduces(pair, sigma, rck4.to_md())}")

    email_only = RelativeKey.from_triples(target, [("email", "email", "=")])
    print(f"Is the email alone a key?  {deduces(pair, sigma, email_only.to_md())}")

    # ------------------------------------------------------------------
    # 3. findRCKs (Example 5.1)
    # ------------------------------------------------------------------
    print("\nRCKs deduced by findRCKs (m=6):")
    rcks = find_rcks(sigma, target, m=6)
    for key in rcks:
        print(f"  {key}")

    # ------------------------------------------------------------------
    # 4. Matching the Fig. 1 tuples
    # ------------------------------------------------------------------
    _, credit, billing = figure1_instances()
    t1 = credit[0]
    plan = compile_plan(rcks=rcks)  # each key compiled to predicate slots
    print("\nMatching credit tuple t1 against billing tuples t3..t6:")
    for billing_tid, label in zip(range(4), ("t3", "t4", "t5", "t6")):
        row = billing[billing_tid]
        matched_by = [
            str(key.source)
            for key in plan.keys
            if plan.key_matches(key.predicates, t1, row)
        ]
        verdict = "MATCH via " + matched_by[0] if matched_by else "no match"
        print(f"  t1 ~ {label}: {verdict}")

    print(
        "\nNote: t4-t6 are unmatched by the hand-written key (rck1) alone;"
        "\nthe deduced keys rck2-rck4 recover them - the added value of"
        "\nMD deduction (Example 1.1)."
    )

    # ------------------------------------------------------------------
    # 5. The same task, declaratively: one spec, every execution mode
    # ------------------------------------------------------------------
    from repro.api import Workspace

    workspace = (
        Workspace.builder()
        .pair(pair)
        .target(target)
        .mds(sigma)
        .execution(mode="enforce", top_k=6)
        .workspace()
    )
    report = workspace.match(credit, billing)
    print(
        f"\nWorkspace (spec fingerprint {workspace.fingerprint}) matched "
        f"{len(report.matches)} pair(s) via enforcement:"
    )
    for matched in report.matches:
        rules = ", ".join(report.provenance.get(matched, ()))
        print(f"  {matched}  [{rules}]")
    print(
        "The identical spec drives streaming (workspace.stream()) and the\n"
        "CLI (repro match --spec spec.json) - see examples/spec.json."
    )


if __name__ == "__main__":
    main()
