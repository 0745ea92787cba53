"""Constant transformations / synonym rules — Section 8's second extension.

"One can augment similarity relations with constants, to capture
domain-specific synonym rules along the same lines as [3, 5, 23]" — e.g.
``"United States" → "USA"``, ``"Street" → "St"``, ``"Bill" → "William"``.

:class:`SynonymTable` normalizes values by replacing whole tokens (and
optionally whole values) with canonical forms; :class:`SynonymizedMetric`
wraps any base metric so similarity is computed on normalized values.  The
wrapped metric still satisfies the generic axioms of Section 2.1
(normalization is a function, so reflexivity/symmetry/equality-subsumption
are preserved), which makes the resulting thresholded operators legal
members of Θ — they can appear inside MDs like any other operator.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Mapping, Tuple

from repro.metrics.base import StringMetric

_TOKEN_RE = re.compile(r"[^\W_]+|\S", re.UNICODE)


class SynonymTable:
    """Canonical-form lookup for tokens and whole values.

    Mappings are case-insensitive; the canonical form is kept as given.
    Chains are resolved at construction ("Wm" → "Bill" → "William"
    becomes "Wm" → "William"); cycles are rejected.
    """

    def __init__(
        self,
        token_synonyms: Mapping[str, str] | None = None,
        value_synonyms: Mapping[str, str] | None = None,
    ) -> None:
        self._tokens = self._resolve(token_synonyms or {})
        self._values = self._resolve(value_synonyms or {})

    @staticmethod
    def _resolve(mapping: Mapping[str, str]) -> Dict[str, str]:
        lowered = {key.lower(): value for key, value in mapping.items()}
        resolved: Dict[str, str] = {}
        for key in lowered:
            seen = {key}
            current = lowered[key]
            while current.lower() in lowered:
                nxt = lowered[current.lower()]
                if nxt.lower() in seen or nxt.lower() == current.lower():
                    raise ValueError(
                        f"synonym cycle involving {current!r}"
                    )
                seen.add(current.lower())
                current = nxt
            resolved[key] = current
        return resolved

    def canonical_token(self, token: str) -> str:
        """The canonical form of one token (itself when unmapped)."""
        return self._tokens.get(token.lower(), token)

    def normalize(self, value: str) -> str:
        """Normalize a whole value: value-level mapping, then per token.

        >>> table = SynonymTable({"St": "Street"}, {"USA": "United States"})
        >>> table.normalize("10 Oak St")
        '10 Oak Street'
        >>> table.normalize("usa")
        'United States'
        """
        whole = self._values.get(value.lower())
        if whole is not None:
            return whole
        tokens = _TOKEN_RE.findall(value)
        if not tokens:
            return value
        normalized = [self.canonical_token(token) for token in tokens]
        return " ".join(
            token for token in normalized if token.strip()
        ) if normalized != tokens else value

    def __len__(self) -> int:
        return len(self._tokens) + len(self._values)


def us_address_synonyms() -> SynonymTable:
    """A starter table for US postal data (the [3, 5] flavour)."""
    return SynonymTable(
        token_synonyms={
            "St": "Street", "Ave": "Avenue", "Rd": "Road", "Dr": "Drive",
            "Ln": "Lane", "Ct": "Court", "Pl": "Place", "Blvd": "Boulevard",
            "Apt": "Apartment", "N": "North", "S": "South", "E": "East",
            "W": "West",
        },
        value_synonyms={
            "USA": "United States",
            "U.S.": "United States",
            "U.S.A.": "United States",
        },
    )


def common_nickname_synonyms() -> SynonymTable:
    """First-name nicknames → formal names."""
    return SynonymTable(
        token_synonyms={
            "Bill": "William", "Wm": "William", "Bob": "Robert",
            "Rob": "Robert", "Dick": "Richard", "Rick": "Richard",
            "Jim": "James", "Jimmy": "James", "Mike": "Michael",
            "Tom": "Thomas", "Tony": "Anthony", "Liz": "Elizabeth",
            "Beth": "Elizabeth", "Kate": "Katherine", "Kathy": "Katherine",
            "Peggy": "Margaret", "Maggie": "Margaret", "Jack": "John",
            "Ted": "Edward", "Ed": "Edward", "Chuck": "Charles",
            "Chris": "Christopher", "Dan": "Daniel", "Dave": "David",
            "Steve": "Steven", "Joe": "Joseph", "Jen": "Jennifer",
            "Sue": "Susan", "Pat": "Patricia",
        }
    )


class SynonymizedMetric(StringMetric):
    """A base metric evaluated on synonym-normalized values.

    ``name`` is derived from the base metric (``"syn_dl"`` for DL) so the
    operator registry can expose it alongside the raw metric.
    """

    def __init__(self, base: StringMetric, table: SynonymTable) -> None:
        self.base = base
        self.table = table

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"syn_{self.base.name}"

    def similarity(self, left: str, right: str) -> float:
        normalized_left = self.table.normalize(left)
        normalized_right = self.table.normalize(right)
        if normalized_left == normalized_right:
            return 1.0
        return self.base.similarity(normalized_left, normalized_right)

    def similar(self, left: str, right: str, theta: float) -> bool:
        normalized_left = self.table.normalize(left)
        normalized_right = self.table.normalize(right)
        if normalized_left == normalized_right:
            return True
        return self.base.similar(normalized_left, normalized_right, theta)


def merged_tables(tables: Iterable[SynonymTable]) -> SynonymTable:
    """Combine several tables; later tables win on conflicts."""
    token_map: Dict[str, str] = {}
    value_map: Dict[str, str] = {}
    for table in tables:
        token_map.update(table._tokens)
        value_map.update(table._values)
    return SynonymTable(token_map, value_map)


def register_synonym_metrics(registry, table: SynonymTable) -> Tuple[str, ...]:
    """Register synonymized variants of the standard metrics.

    Adds ``syn_dl``, ``syn_lev`` and ``syn_jw`` to ``registry`` so MDs may
    use operators like ``syn_dl(0.8)``.  Returns the registered names.
    """
    from repro.metrics.damerau_levenshtein import DamerauLevenshtein
    from repro.metrics.jaro import JaroWinkler
    from repro.metrics.levenshtein import Levenshtein

    factories = {
        "syn_dl": lambda: SynonymizedMetric(DamerauLevenshtein(), table),
        "syn_lev": lambda: SynonymizedMetric(Levenshtein(), table),
        "syn_jw": lambda: SynonymizedMetric(JaroWinkler(), table),
    }
    for name, factory in factories.items():
        registry.register(name, factory)
    return tuple(factories)
