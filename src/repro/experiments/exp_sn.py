"""Experiment 3 — Sorted Neighborhood with and without RCKs (Fig. 10(a–c)).

Protocol (Section 6.2):

* the same datasets and windowing keys as Exp-2;
* **SN**: the 25 hand-written equational-theory rules of
  :data:`HAND_RULES` (the [20]-style baseline);
* **SNrck**: the top five RCKs as the rules;
* window size 10; report precision, recall and wall-clock time per K.

The merge/purge method of Hernández & Stolfo [20] decides matches with
the rules of an *equational theory*: a pair matches when all conditions
of some rule hold.  That is exactly a relative key, so both
configurations run as pinned keys through one front door,
:class:`repro.api.Workspace` in ``direct`` mode, on Exp-2's shared
window candidates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import Workspace
from repro.core.rck import RelativeKey
from repro.datagen.noise import NoiseModel
from repro.datagen.schemas import extended_mds
from repro.matching.evaluate import Pair, evaluate_matches

from .exp_fs import DEFAULT_SIZES, prepare
from .harness import Table, resolution_spec_document, timed

_JW = "jw(0.9)"

#: A 25-rule equational theory over the extended credit/billing schemas,
#: as ``(name, [(left, right, operator), ...])``.
#:
#: [20]'s exact rule set is not published as a machine-readable artefact;
#: this reconstructs one in its style: identifier-anchored rules, full
#: name + address rules, phone/email rules, and a tail of looser rules
#: relying on partial evidence.  Like typical hand-written theories, most
#: comparisons are exact equality (which misses typographic variants — the
#: recall cost RCK-derived rules avoid) and a few rules are permissive
#: (which admits household members and namesakes — the precision cost).
#: The *shape* of the experiment only requires a fixed, hand-written
#: baseline.
HAND_RULES = (
    # --- identifier-anchored rules -----------------------------------
    ("card-exact-name", [("c#", "c#", "="), ("FN", "FN", "="), ("LN", "LN", "=")]),
    ("card-lastname", [("c#", "c#", "="), ("LN", "LN", "=")]),
    ("card-address", [("c#", "c#", "="), ("street", "street", "="), ("zip", "zip", "=")]),
    ("card-phone", [("c#", "c#", "="), ("tel", "phn", "=")]),
    ("card-email", [("c#", "c#", "="), ("email", "email", "=")]),
    # --- name + address rules ----------------------------------------
    ("name-street-zip", [("FN", "FN", "="), ("LN", "LN", "="), ("street", "street", "="), ("zip", "zip", "=")]),
    ("name-street-city", [("FN", "FN", "="), ("LN", "LN", "="), ("street", "street", "="), ("city", "city", "=")]),
    ("lastname-street-exact", [("LN", "LN", "="), ("street", "street", "="), ("city", "city", "=")]),
    ("name-city-state-zip", [("FN", "FN", _JW), ("LN", "LN", "="), ("city", "city", "="), ("state", "state", "="), ("zip", "zip", "=")]),
    ("initials-street-zip", [("FN", "FN", _JW), ("LN", "LN", "="), ("street", "street", "="), ("zip", "zip", "=")]),
    # --- phone rules -------------------------------------------------
    ("phone-lastname", [("tel", "phn", "="), ("LN", "LN", "=")]),
    ("phone-firstname", [("tel", "phn", "="), ("FN", "FN", "=")]),
    ("phone-street", [("tel", "phn", "="), ("street", "street", "=")]),
    ("phone-zip-gender", [("tel", "phn", "="), ("zip", "zip", "="), ("gender", "gender", "=")]),
    # --- email rules -------------------------------------------------
    ("email-lastname", [("email", "email", "="), ("LN", "LN", "=")]),
    ("email-zip", [("email", "email", "="), ("zip", "zip", "=")]),
    ("email-phone", [("email", "email", "="), ("tel", "phn", "=")]),
    ("email-city", [("email", "email", "="), ("city", "city", "=")]),
    # --- looser tail (the error-prone rules of a hand theory) ---------
    ("name-zip", [("FN", "FN", "="), ("LN", "LN", "="), ("zip", "zip", "=")]),
    ("name-city", [("FN", "FN", "="), ("LN", "LN", "="), ("city", "city", "=")]),
    ("lastname-street", [("LN", "LN", "="), ("street", "street", "=")]),
    ("name-gender-state", [("FN", "FN", "="), ("LN", "LN", "="), ("gender", "gender", "="), ("state", "state", "=")]),
    ("street-zip-gender", [("street", "street", "="), ("zip", "zip", "="), ("gender", "gender", "=")]),
    ("similar-name-county", [("FN", "FN", _JW), ("LN", "LN", _JW), ("county", "county", "="), ("gender", "gender", "=")]),
    ("fuzzy-name-same-zip", [("FN", "FN", _JW), ("LN", "LN", _JW), ("zip", "zip", "=")]),
)


def hand_rule_keys(target) -> List[RelativeKey]:
    """:data:`HAND_RULES` as relative keys to ``target``, in rule order.

    >>> from repro.datagen.schemas import extended_pair, extended_target
    >>> keys = hand_rule_keys(extended_target(extended_pair()))
    >>> len(keys)
    25
    >>> print(keys[3])
    ([c#, tel], [c#, phn] || [=, =])
    """
    return [RelativeKey.from_triples(target, triples) for _, triples in HAND_RULES]


def match_on_keys(dataset, keys, candidates) -> List[Pair]:
    """The candidates some key matches, in candidate order.

    One spec pinning ``keys`` in ``direct`` mode, compiled and matched
    by a :class:`repro.api.Workspace`: the keys chased as MDs, a match
    read off the chase's first round (some key's comparisons all agree
    on ``D``) — a rule set runs through the same chase kernel as any
    spec.
    """
    return _probed_match(dataset, keys, candidates)[0]


def _probed_match(dataset, keys, candidates) -> Tuple[List[Pair], int]:
    """:func:`match_on_keys`, plus the predicate probes it made: the
    chase's metric evaluations (a hash-joined equality atom counts its
    tuple hits) and similarity-memo hits together."""
    document = resolution_spec_document(
        dataset.pair,
        dataset.target,
        extended_mds(dataset.pair),
        rcks=keys,
        execution={"mode": "direct"},
    )
    workspace = Workspace.from_dict(document)
    report = workspace.match(
        dataset.credit, dataset.billing, candidates=candidates, provenance=False
    )
    stats = workspace.plan.stats
    return list(report.matches), stats.metric_evaluations + stats.cache_hits


def run_point(
    size: int,
    seed: int = 0,
    noise: Optional[NoiseModel] = None,
    window: int = 10,
) -> Dict[str, object]:
    """One K: run SN (25 hand rules) and SNrck (top-5 RCKs).

    Besides the wall-clock seconds, each side records its predicate
    probes: the count Fig. 10(c)'s "fewer, tighter rules" claim is
    about, and one no scheduler can reorder.
    """
    dataset, candidates, rcks = prepare(size, seed, noise, window)

    (rck_matches, rck_probes), rck_seconds = timed(
        _probed_match, dataset, rcks, candidates
    )
    rck_quality = evaluate_matches(rck_matches, dataset.true_matches)

    (base_matches, base_probes), base_seconds = timed(
        _probed_match, dataset, hand_rule_keys(dataset.target), candidates
    )
    base_quality = evaluate_matches(base_matches, dataset.true_matches)

    return {
        "K": size,
        "SNrck precision": rck_quality.precision,
        "SN precision": base_quality.precision,
        "SNrck recall": rck_quality.recall,
        "SN recall": base_quality.recall,
        "SNrck seconds": rck_seconds,
        "SN seconds": base_seconds,
        "SNrck probes": rck_probes,
        "SN probes": base_probes,
        "candidates": len(candidates),
    }


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    seed: int = 0,
    noise: Optional[NoiseModel] = None,
    window: int = 10,
) -> List[Dict[str, object]]:
    """Figs. 10(a–c): one record per K."""
    return [run_point(size, seed, noise, window) for size in sizes]


def render(records: Sequence[Dict[str, object]]) -> str:
    """The Fig. 10(a–c) series as a text table."""
    columns = [
        "K", "SNrck precision", "SN precision", "SNrck recall", "SN recall",
        "SNrck seconds", "SN seconds", "SNrck probes", "SN probes",
        "candidates",
    ]
    table = Table(
        "Fig 10(a-c): Sorted Neighborhood with vs without RCKs", columns
    )
    for record in records:
        table.add(*(record[column] for column in columns))
    return table.render()
