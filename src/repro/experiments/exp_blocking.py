"""Experiment 4 — blocking and windowing key quality (Figs. 9(d), 10(d)).

Protocol (Section 6.2, Exp-4):

* the same datasets as Exps 2–3;
* **RCK key**: three attributes from the top two deduced RCKs, with the
  name attribute Soundex-encoded before blocking;
* **manual key**: three manually chosen attributes (name — also
  Soundex-encoded — plus two plausible hand picks);
* report *pairs completeness* PC = sM/nM (Fig. 9(d)) and *reduction
  ratio* RR (Fig. 10(d)), both computed directly against the generator
  truth, "without relying on any particular matching method";
* the windowing variant (reported in the text as "comparable") repeats
  the comparison with sorted-window candidate generation.

Candidate generation runs through the kernel's blocking layer: the hash
backend the batch matchers and the streaming engine execute, and the
global window of :func:`~repro.experiments.baselines.windowing.window_candidates`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.datagen.generator import generate_dataset
from repro.datagen.noise import NoiseModel
from repro.datagen.schemas import extended_mds
from repro.matching.evaluate import evaluate_reduction
from repro.plan.blocking import (
    CandidateSet,
    HashBlockingBackend,
    RCKIndex,
    leading_attribute_pairs,
)

from .baselines.windowing import window_candidates
from .exp_fs import DEFAULT_SIZES, TOP_K_RCKS, deduce_rcks
from .harness import Table

#: The manual blocking key of the baseline: last name (Soundex-encoded),
#: street and zip — the name-plus-address key a practitioner would pick
#: first, which underuses the rule knowledge RCKs encode (street is long
#: and error-prone; the cost model steers RCKs to shorter attributes).
MANUAL_ATTRIBUTES = ("LN", "street", "zip")


def exp4_key_pairs(rcks):
    """The Exp-4 derived key: three attribute pairs from the top two RCKs.

    The one selection rule shared by every Exp-4 configuration (hash
    blocking and windowing).
    """
    pairs = leading_attribute_pairs(rcks[:2], attribute_count=3)
    if len(pairs) < 3:
        raise ValueError(
            f"the top RCKs only provide {len(pairs)} distinct attribute "
            "pairs, Exp-4 needs 3"
        )
    return pairs


def rck_index(rcks) -> RCKIndex:
    """The RCK-derived key: three attribute pairs from the top two RCKs,
    names Soundex-encoded (per the paper)."""
    return RCKIndex("exp4-rck", exp4_key_pairs(rcks), encode_attributes=("FN", "LN"))


def manual_index() -> RCKIndex:
    """The baseline's manually chosen key, last name Soundex-encoded."""
    return RCKIndex(
        "manual",
        [(attribute, attribute) for attribute in MANUAL_ATTRIBUTES],
        encode_attributes=("LN",),
    )


def key_candidates(
    index: RCKIndex, left, right, mode: str = "blocking", window: int = 10
) -> CandidateSet:
    """One Exp-4 configuration's candidates: one hash pass over the key
    (``blocking``), or one global window sorted on it (``windowing``)."""
    if mode == "blocking":
        return HashBlockingBackend([index]).candidates(left, right)
    return CandidateSet.of(
        window_candidates(left, right, index.left_key, index.right_key, window)
    )


def run_point(
    size: int,
    seed: int = 0,
    noise: Optional[NoiseModel] = None,
    mode: str = "blocking",
    window: int = 10,
) -> Dict[str, object]:
    """One K: PC and RR for the RCK-derived key vs the manual key."""
    if mode not in ("blocking", "windowing"):
        raise ValueError(f"mode must be 'blocking' or 'windowing', got {mode}")
    dataset = generate_dataset(size, noise=noise, seed=seed)
    sigma = extended_mds(dataset.pair)
    rcks = deduce_rcks(dataset, sigma, m=TOP_K_RCKS)

    rck_candidates = key_candidates(
        rck_index(rcks), dataset.credit, dataset.billing, mode, window
    )
    manual_candidates = key_candidates(
        manual_index(), dataset.credit, dataset.billing, mode, window
    )

    rck_reduction = evaluate_reduction(
        rck_candidates, dataset.true_matches, dataset.total_pairs
    )
    manual_reduction = evaluate_reduction(
        manual_candidates, dataset.true_matches, dataset.total_pairs
    )
    return {
        "K": size,
        "mode": mode,
        "RCK PC": rck_reduction.pairs_completeness,
        "manual PC": manual_reduction.pairs_completeness,
        "RCK RR": rck_reduction.reduction_ratio,
        "manual RR": manual_reduction.reduction_ratio,
        "RCK candidates": rck_reduction.candidate_count,
        "manual candidates": manual_reduction.candidate_count,
    }


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    seed: int = 0,
    noise: Optional[NoiseModel] = None,
    mode: str = "blocking",
    window: int = 10,
) -> List[Dict[str, object]]:
    """Figs. 9(d)/10(d) (mode='blocking') or the windowing variant."""
    return [run_point(size, seed, noise, mode, window) for size in sizes]


def render(records: Sequence[Dict[str, object]]) -> str:
    """The PC/RR series as a text table."""
    columns = [
        "K", "mode", "RCK PC", "manual PC", "RCK RR", "manual RR",
        "RCK candidates", "manual candidates",
    ]
    table = Table(
        "Fig 9(d)/10(d): pairs completeness and reduction ratio", columns
    )
    for record in records:
        table.add(*(record[column] for column in columns))
    return table.render()
