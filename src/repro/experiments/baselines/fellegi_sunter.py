"""The Fellegi–Sunter record-matching method (Exp-2).

The statistical matcher of [17]: each candidate pair gets a comparison
vector; the pair's score is the log likelihood ratio
``Σ_i log2(P(γ_i | match) / P(γ_i | non-match))`` and pairs scoring above a
threshold are declared matches.  Parameters come from unsupervised EM
(:mod:`repro.experiments.baselines.em`), "a powerful tool to estimate parameters such as
weights and threshold [21]".

Two configurations mirror the paper's Exp-2:

* **FS** — the baseline: the comparison vector is the naive equality
  comparison of the target attribute pairs, with EM choosing the weights
  (and thereby which attributes effectively matter);
* **FSrck** — the vector is the union of the top-k RCKs deduced by
  ``findRCKs``: fewer attribute pairs, each compared with the operator the
  rules prescribe.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.metrics.registry import DEFAULT_REGISTRY, MetricRegistry
from repro.relations.relation import Relation

from .comparison import ComparisonSpec
from .em import EMEstimate, fit_em
from repro.matching.evaluate import Pair


@dataclass
class FellegiSunter:
    """A Fellegi–Sunter matcher over a fixed comparison spec.

    Typical use::

        matcher = FellegiSunter(spec)
        matcher.fit(left, right, candidates, sample_size=30_000, seed=0)
        matches = matcher.classify(left, right, candidates)

    The decision threshold defaults to the prior-odds point: declare a
    match when the posterior match probability exceeds ½, i.e. when the
    score exceeds ``log2((1 − p) / p)``.  An explicit ``threshold``
    overrides it.
    """

    spec: ComparisonSpec
    registry: MetricRegistry = DEFAULT_REGISTRY
    estimate: Optional[EMEstimate] = None
    threshold: Optional[float] = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(
        self,
        left: Relation,
        right: Relation,
        candidates: Sequence[Pair],
        sample_size: int = 30_000,
        seed: int = 0,
        initial_p: float = 0.1,
    ) -> EMEstimate:
        """Estimate (m, u, p) by EM on a sample of candidate pairs.

        The paper samples "at most 30k tuples"; we sample candidate pairs,
        which is the unit EM consumes.
        """
        if not candidates:
            raise ValueError("cannot fit on an empty candidate set")
        rng = random.Random(seed)
        if len(candidates) > sample_size:
            sample = rng.sample(list(candidates), sample_size)
        else:
            sample = list(candidates)
        vectors = [
            self.spec.compare(left[l_tid], right[r_tid], self.registry)
            for l_tid, r_tid in sample
        ]
        self.estimate = fit_em(vectors, initial_p=initial_p)
        return self.estimate

    # ------------------------------------------------------------------
    # Scoring / classification
    # ------------------------------------------------------------------

    def _require_estimate(self) -> EMEstimate:
        if self.estimate is None:
            raise RuntimeError("matcher is not fitted; call fit() first")
        return self.estimate

    def decision_threshold(self) -> float:
        """The score above which a pair is declared a match."""
        if self.threshold is not None:
            return self.threshold
        estimate = self._require_estimate()
        # Posterior > 1/2  ⇔  score > log2((1-p)/p).
        return math.log2((1.0 - estimate.p) / estimate.p)

    def score(self, left_row, right_row) -> float:
        """Log2 likelihood-ratio score of one pair."""
        estimate = self._require_estimate()
        vector = self.spec.compare(left_row, right_row, self.registry)
        return estimate.score(vector)

    def classify(
        self,
        left: Relation,
        right: Relation,
        candidates: Sequence[Pair],
    ) -> List[Pair]:
        """All candidate pairs scoring above the decision threshold."""
        estimate = self._require_estimate()
        cutoff = self.decision_threshold()
        matches: List[Pair] = []
        for left_tid, right_tid in candidates:
            vector = self.spec.compare(
                left[left_tid], right[right_tid], self.registry
            )
            if estimate.score(vector) > cutoff:
                matches.append((left_tid, right_tid))
        return matches

    def feature_weights(self) -> List[Tuple[str, float, float]]:
        """Per-feature (name, agreement weight, disagreement weight).

        Useful to inspect which attributes EM considers discriminative —
        the sense in which "the vector was picked by an EM algorithm".
        """
        estimate = self._require_estimate()
        rows = []
        for index, (left_attr, right_attr, operator) in enumerate(
            self.spec.features
        ):
            rows.append(
                (
                    f"{left_attr}~{right_attr}[{operator}]",
                    estimate.agreement_weight(index),
                    estimate.disagreement_weight(index),
                )
            )
        return rows
