"""Comparison vectors: from RCKs (or raw attribute pairs) to features.

A *comparison vector* is the per-attribute-pair agreement pattern computed
for a candidate tuple pair — the input of the Fellegi–Sunter model.  RCKs
are precisely specifications of comparison vectors: they say which
attribute pairs to compare and with which operator (Section 1,
"Applications — Matching").

:class:`ComparisonSpec` holds an ordered list of features
``(left_attr, right_attr, operator_name)``; :meth:`ComparisonSpec.compare`
evaluates them on a pair of rows.  :func:`union_of_rcks` builds the spec
the paper uses for FSrck: "the union of top five RCKs derived by our
algorithms".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.rck import RelativeKey
from repro.metrics.registry import DEFAULT_REGISTRY, MetricRegistry
from repro.relations.relation import Row

#: One feature: (left attribute, right attribute, operator name).
Feature = Tuple[str, str, str]


@dataclass(frozen=True)
class ComparisonSpec:
    """An ordered, executable list of comparison features.

    Operator names are resolved to predicates **once, at construction**
    (through the bound ``registry``) — evaluating a spec never goes back
    to the registry, which ``tests/matching/test_comparison.py`` pins
    with a lookup-count regression test.  Passing a *different* registry
    to :meth:`compare` still works and resolves through that registry
    instead; an operator the bound registry does not know defers its
    resolution to call time (so specs naming custom-registry metrics
    still construct, exactly as before).

    >>> spec = ComparisonSpec((("FN", "FN", "dl(0.8)"), ("LN", "LN", "=")))
    >>> len(spec)
    2
    """

    features: Tuple[Feature, ...]
    registry: MetricRegistry = field(
        default=DEFAULT_REGISTRY, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.features:
            raise ValueError("a comparison spec needs at least one feature")
        if len(set(self.features)) != len(self.features):
            raise ValueError("duplicate features in comparison spec")
        resolved = []
        for _, _, operator_name in self.features:
            try:
                resolved.append(self.registry.resolve(operator_name))
            except (KeyError, ValueError):
                # Unknown to the bound registry; a call-time registry may
                # still know it — resolve (or fail) lazily then.
                resolved.append(None)
        object.__setattr__(self, "_predicates", tuple(resolved))

    def __len__(self) -> int:
        return len(self.features)

    def _bound_predicates(self, registry: Optional[MetricRegistry]):
        if registry is None or registry is self.registry:
            if None in self._predicates:
                return tuple(
                    self.registry.resolve(operator_name)
                    for _, _, operator_name in self.features
                )
            return self._predicates
        return tuple(
            registry.resolve(operator_name)
            for _, _, operator_name in self.features
        )

    def compare(
        self,
        left_row: Row,
        right_row: Row,
        registry: Optional[MetricRegistry] = None,
    ) -> Tuple[bool, ...]:
        """The agreement vector of the two rows under this spec."""
        return tuple(
            bool(predicate(left_row[left_attr], right_row[right_attr]))
            for (left_attr, right_attr, _), predicate in zip(
                self.features, self._bound_predicates(registry)
            )
        )

    def attribute_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """The (left, right) attribute pairs, operators dropped."""
        return tuple(
            (left_attr, right_attr) for left_attr, right_attr, _ in self.features
        )


def union_of_rcks(keys: Sequence[RelativeKey]) -> ComparisonSpec:
    """The union spec of several RCKs (the paper's "union of top five").

    A comparison vector has one feature per *attribute pair*: when the same
    pair occurs in several keys with different operators (e.g. ``FN = FN``
    in one key and ``FN ≈dl FN`` in another), the similarity operator is
    kept — it is the more error-tolerant test, and the Fellegi–Sunter
    model's independence assumption forbids near-duplicate features.
    First-key-first order is preserved.
    """
    if not keys:
        raise ValueError("need at least one RCK")
    chosen: dict = {}
    order: List[Tuple[str, str]] = []
    for key in keys:
        for atom in key.atoms:
            pair = (atom.left, atom.right)
            operator = atom.operator.name
            if pair not in chosen:
                chosen[pair] = operator
                order.append(pair)
            elif chosen[pair] == "=" and operator != "=":
                chosen[pair] = operator
    return ComparisonSpec(
        tuple((left, right, chosen[(left, right)]) for left, right in order)
    )


def equality_spec(attribute_pairs: Iterable[Tuple[str, str]]) -> ComparisonSpec:
    """A spec comparing the given pairs with plain equality.

    The naive configuration a matcher uses without RCK guidance — the
    baseline FS vector in the experiments.
    """
    return ComparisonSpec(
        tuple((left, right, "=") for left, right in attribute_pairs)
    )
