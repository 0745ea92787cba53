"""Experiment 2 — Fellegi–Sunter with and without RCKs (Fig. 9(a–c)).

Protocol (Section 6.2):

* datasets of K credit/billing tuples with 80 % duplicates and noisy
  identity attributes, generated with ground truth;
* candidate pairs from windowing with a fixed window of 10, using the
  same sort keys for both configurations ("the same set of windowing keys
  were used in these experiments to make the evaluation fair");
* **FSrck**: comparison vector = union of the top five RCKs deduced from
  the 7 domain MDs by ``findRCKs``;
* **FS**: comparison vector = naive equality comparison of all target
  attribute pairs, with EM estimating the weights (the EM-picked
  configuration);
* both classified by posterior-odds threshold from their EM fits;
* report precision, recall and wall-clock time per K (Figs. 9(a), 9(b),
  9(c)).

The paper's K ranges over 10k–80k on a Java/Xeon stack; the default sizes
here are scaled (1k–8k) to keep pure-Python benchmark runs in minutes —
the *series shape* (who wins, trend with K) is the reproduction target.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.findrcks import find_rcks
from repro.datagen.generator import MatchingDataset, generate_dataset
from repro.datagen.noise import NoiseModel
from repro.datagen.schemas import extended_mds
from repro.matching.comparison import equality_spec, union_of_rcks
from repro.matching.evaluate import evaluate_matches
from repro.matching.fellegi_sunter import FellegiSunter
from repro.plan.blocking import rck_sort_keys, window_candidates

from .harness import Table, timed

#: Scaled default K values (paper: 10k..80k).
DEFAULT_SIZES = (1000, 2000, 4000, 8000)

#: Number of RCKs whose union forms the FSrck comparison vector.
TOP_K_RCKS = 5


def prepare(
    size: int,
    seed: int = 0,
    noise: Optional[NoiseModel] = None,
    window: int = 10,
):
    """Dataset + shared candidate pairs + deduced RCKs for one K.

    Returns ``(dataset, candidates, rcks)``.  Candidates come from three
    windowing passes (:func:`windowing_candidates`) — the same candidate
    set is fed to both matcher configurations.
    """
    dataset = generate_dataset(size, noise=noise, seed=seed)
    sigma = extended_mds(dataset.pair)
    rcks = deduce_rcks(dataset, sigma, m=TOP_K_RCKS)
    return dataset, windowing_candidates(dataset, rcks, window), rcks


def windowing_candidates(dataset: MatchingDataset, rcks, window: int = 10):
    """Three global-window passes, one sorted on each of the top three
    RCKs' attributes, unioned ("this process is often repeated multiple
    times ..., each using a different key")."""
    candidates = set()
    for left_key, right_key in (rck_sort_keys([key]) for key in rcks[:3]):
        candidates.update(
            window_candidates(
                dataset.credit, dataset.billing, left_key, right_key, window
            )
        )
    return sorted(candidates)


def deduce_rcks(dataset: MatchingDataset, sigma, m: int = TOP_K_RCKS):
    """findRCKs with the paper's full quality model.

    The ``lt`` (average value length) statistic is estimated from a small
    sample of the instance data, so the cost model can steer the deduced
    keys away from long, error-prone attributes (Section 5's stated
    rationale).  Accuracies default to 1, weights to (1, 1, 1) —
    Section 6.1's parameters — except that ``lt`` is normalized to [0, 1]
    so the three cost terms stay commensurate.
    """
    from repro.core.findrcks import pairing
    from repro.core.quality import CostModel, length_statistics_from_rows

    target = dataset.target
    pairs = pairing(list(sigma), target)
    sample_left = [row.values() for row in dataset.credit.rows()[:200]]
    sample_right = [row.values() for row in dataset.billing.rows()[:200]]
    lengths = length_statistics_from_rows(pairs, sample_left, sample_right)
    longest = max(lengths.values()) if lengths else 1.0
    normalized = {
        pair_: (value / longest if longest else 0.0)
        for pair_, value in lengths.items()
    }
    model = CostModel(lengths=normalized)
    return find_rcks(sigma, target, m=m, cost_model=model)


def run_point(
    size: int,
    seed: int = 0,
    noise: Optional[NoiseModel] = None,
    window: int = 10,
) -> Dict[str, object]:
    """One K: run FS and FSrck, return the Fig. 9 record."""
    dataset, candidates, rcks = prepare(size, seed, noise, window)

    # FSrck: the union of the top five RCKs as the comparison vector.
    rck_spec = union_of_rcks(rcks)
    fs_rck = FellegiSunter(rck_spec)

    def run_rck():
        fs_rck.fit(dataset.credit, dataset.billing, candidates, seed=seed)
        return fs_rck.classify(dataset.credit, dataset.billing, candidates)

    rck_matches, rck_seconds = timed(run_rck)
    rck_quality = evaluate_matches(rck_matches, dataset.true_matches)

    # Baseline FS: naive equality vector over all target attribute pairs.
    base_spec = equality_spec(dataset.target.attribute_pairs())
    fs_base = FellegiSunter(base_spec)

    def run_base():
        fs_base.fit(dataset.credit, dataset.billing, candidates, seed=seed)
        return fs_base.classify(dataset.credit, dataset.billing, candidates)

    base_matches, base_seconds = timed(run_base)
    base_quality = evaluate_matches(base_matches, dataset.true_matches)

    return {
        "K": size,
        "FSrck precision": rck_quality.precision,
        "FS precision": base_quality.precision,
        "FSrck recall": rck_quality.recall,
        "FS recall": base_quality.recall,
        "FSrck seconds": rck_seconds,
        "FS seconds": base_seconds,
        "candidates": len(candidates),
    }


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    seed: int = 0,
    noise: Optional[NoiseModel] = None,
    window: int = 10,
) -> List[Dict[str, object]]:
    """Figs. 9(a–c): one record per K."""
    return [run_point(size, seed, noise, window) for size in sizes]


def render(records: Sequence[Dict[str, object]]) -> str:
    """The Fig. 9(a–c) series as a text table."""
    columns = [
        "K", "FSrck precision", "FS precision", "FSrck recall", "FS recall",
        "FSrck seconds", "FS seconds", "candidates",
    ]
    table = Table("Fig 9(a-c): Fellegi-Sunter with vs without RCKs", columns)
    for record in records:
        table.add(*(record[column] for column in columns))
    return table.render()
