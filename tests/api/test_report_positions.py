"""The batch answer as positions over the chased candidate set.

``Workspace.match`` keeps the matched positions and one rule mask per
match; ``MatchReport.matches`` / ``.provenance`` / ``.clusters`` are
views over them (:mod:`repro.api.report`,
:class:`~repro.matching.clustering.ClusterList`).  Here they are held to
a pair-level reference kept in this file — a tuple per match, a
provenance dict keyed by those tuples, and clusters folded by the
node-tuple :class:`~repro.matching.clustering.Clusters` union-find — on
generated candidate lists (a pair listed twice, none at all), tids at
the edges of a C int and of 64 bits and beyond, ``enforce`` and
``direct`` mode, with and without provenance; and the memory the report
holds is pinned under tracemalloc.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.api.workspace as workspace_module
from repro.api import MatchReport, Workspace
from repro.core.semantics import InstancePair
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.matching.clustering import Clusters
from repro.plan.blocking import CandidateSet
from repro.relations.relation import Relation

# ----------------------------------------------------------------------
# The pair-level reference
# ----------------------------------------------------------------------


def reference_clusters(matches):
    """Transitive closure over ``("L" | "R", tid)`` node tuples, in the
    order each cluster's first record appears in ``matches``."""
    clusters = Clusters()
    for left_tid, right_tid in matches:
        clusters.union(("L", left_tid), ("R", right_tid))
    return clusters.groups()


def reference_answer(workspace, left, right, candidates, provenance):
    """``(matches, provenance, clusters)`` a tuple per match: the matches
    read off the chase pair by pair, each one's rules OR-ed over every
    position it sits at and named in a dict keyed by the pair."""
    plan, spec = workspace.plan, workspace.spec
    candidates = CandidateSet.of(candidates)
    result = plan.enforce(
        InstancePair(plan.pair, left, right),
        resolver=spec.resolver(),
        candidate_pairs=candidates,
        max_rounds=spec.max_rounds,
    )
    if spec.mode == "direct":
        per_rule = [set(positions) for positions in result.first_round]
        matched = sorted(set().union(*per_rule))
    else:
        matched = list(result.matching(plan.target.attribute_pairs()))
        per_rule = [set(positions) for positions in result.holding] if provenance else []
    matches = [candidates[i] for i in matched]
    names = {}
    if provenance:
        rules = {}
        for pair, i in zip(matches, matched):
            rules.setdefault(pair, set()).update(
                index for index, positions in enumerate(per_rule) if i in positions
            )
        names = {
            pair: tuple(plan.rules[index].name for index in sorted(indexes))
            for pair, indexes in rules.items()
        }
    return matches, names, reference_clusters(matches)


# ----------------------------------------------------------------------
# Generated runs
# ----------------------------------------------------------------------

SOURCE = generate_dataset(14, seed=5)


@lru_cache(maxsize=None)
def workspace_for(mode):
    return (
        Workspace.builder()
        .pair(SOURCE.pair)
        .target(SOURCE.target)
        .mds(extended_mds(SOURCE.pair))
        .blocking("hash", key_length=1)
        .execution(mode=mode, top_k=5)
        .workspace()
    )


def _top_tid():
    return max(max(SOURCE.credit.tids()), max(SOURCE.billing.tids()))


#: Tid offsets: none, past a C int either way, the top tid at 2**63 - 1,
#: and beyond 64 bits either way.
OFFSETS = (0, 2**31, -(2**31), 2**63 - 1 - _top_tid(), 2**64 + 7, -(2**70))


@lru_cache(maxsize=None)
def shifted(offset):
    def shift(relation):
        copy = Relation(relation.schema)
        for row in relation:
            copy.insert(row.values(), tid=row.tid + offset)
        return copy

    return shift(SOURCE.credit), shift(SOURCE.billing)


EVERY_PAIR = sorted(
    (left, right) for left in SOURCE.credit.tids() for right in SOURCE.billing.tids()
)
TRUE_PAIRS = sorted(SOURCE.true_matches)

@st.composite
def candidate_lists(draw):
    """Candidate lists biased toward matching pairs, some pairs listed
    twice."""
    pairs = draw(st.lists(st.sampled_from(TRUE_PAIRS), max_size=25))
    pairs += draw(st.lists(st.sampled_from(EVERY_PAIR), max_size=25))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    return pairs


def assert_positional_report_is_the_pair_level_one(mode, offset, candidates, provenance):
    workspace = workspace_for(mode)
    left, right = shifted(offset)
    candidates = [(l + offset, r + offset) for l, r in candidates]
    report = workspace.match(left, right, candidates=candidates, provenance=provenance)
    matches, names, clusters = reference_answer(
        workspace, left, right, candidates, provenance
    )

    assert list(report.matches) == matches and report.matches == matches
    assert all(isinstance(tid, int) for pair in report.matches for tid in pair)
    assert [report.matches[k] for k in range(len(matches))] == matches
    assert report.matches[1:4] == tuple(matches[1:4])
    assert report.matches[::-2] == tuple(matches[::-2])
    assert all(pair in report.matches for pair in matches)

    assert dict(report.provenance) == names and report.provenance == names
    assert list(report.provenance) == list(names) and len(report.provenance) == len(names)
    for pair in set(candidates) - set(names):
        assert pair not in report.provenance
        assert report.provenance.get(pair) is None

    assert list(report.clusters) == clusters and report.clusters == clusters
    assert report.clusters[::2] == tuple(clusters[::2])
    for cluster, expected in zip(report.clusters, clusters):
        assert (cluster.left_tids, cluster.right_tids) == (
            expected.left_tids, expected.right_tids
        )

    assert report.to_json() == json.dumps(report.to_dict(), sort_keys=True)
    # ... and renders byte for byte as the same answer a tuple per match.
    pairwise = MatchReport(
        matches=tuple(matches),
        candidates=tuple(report.candidates),
        clusters=tuple(clusters),
        provenance=names,
        stats=report.stats,
        fingerprint=report.fingerprint,
        mode=report.mode,
    )
    assert report.to_json() == pairwise.to_json()
    return report


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    mode=st.sampled_from(["enforce", "direct"]),
    offset=st.sampled_from(OFFSETS),
    candidates=candidate_lists(),
    provenance=st.booleans(),
)
@example(mode="enforce", offset=0, candidates=[], provenance=True)
@example(mode="direct", offset=-(2**70), candidates=[], provenance=False)
@example(mode="enforce", offset=2**64 + 7, candidates=TRUE_PAIRS[:3] * 2, provenance=True)
@example(mode="direct", offset=OFFSETS[3], candidates=TRUE_PAIRS[:3] * 2, provenance=True)
def test_the_positional_report_is_the_pair_level_one(mode, offset, candidates, provenance):
    assert_positional_report_is_the_pair_level_one(mode, offset, candidates, provenance)


@pytest.mark.parametrize("mode", ["enforce", "direct"])
@pytest.mark.parametrize("offset", OFFSETS)
def test_a_pair_listed_twice_matches_twice_and_names_its_rules_once(mode, offset):
    report = assert_positional_report_is_the_pair_level_one(
        mode, offset, TRUE_PAIRS + TRUE_PAIRS[:4], provenance=True
    )
    doubled = [
        (left + offset, right + offset)
        for left, right in TRUE_PAIRS[:4]
        if (left + offset, right + offset) in report.provenance
    ]
    assert doubled
    assert all(list(report.matches).count(pair) == 2 for pair in doubled)
    assert len(report.matches) - len(report.provenance) == len(doubled)


def test_the_views_index_as_a_tuple_does():
    report = workspace_for("enforce").match(
        SOURCE.credit, SOURCE.billing, candidates=TRUE_PAIRS
    )
    for view in (report.matches, report.clusters):
        assert view[-1] == view[len(view) - 1]
        with pytest.raises(IndexError):
            view[len(view)]
        with pytest.raises(TypeError, match="not str"):
            view["0"]
        with pytest.raises(TypeError, match="not float"):
            view[0.0]
    assert report.matches.find(("0", 1)) == -1 and ("0", 1) not in report.matches


# ----------------------------------------------------------------------
# What the report holds
# ----------------------------------------------------------------------


def test_the_report_holds_a_few_bytes_a_match(monkeypatch):
    """On the sparse shape (K=2000, sorted-neighbourhood window 10, seed
    7: 1 932 matches of 2 157 candidates, 400 clusters) a report holds
    at most 24 bytes a match under tracemalloc beyond the candidate set
    — positions, a one-byte rule mask, the clusters' tid columns — and
    clustering allocates at most 200 bytes a match on its way.  A tuple
    per match, a provenance dict keyed by them and a frozenset pair per
    cluster held some 270 bytes a match, and clustering them took some
    430."""
    data = generate_dataset(2000, seed=7)
    workspace = (
        Workspace.builder()
        .pair(data.pair)
        .target(data.target)
        .mds(extended_mds(data.pair))
        .blocking("sorted-neighborhood", window=10)
        .execution(top_k=5)
        .workspace()
    )
    candidates = workspace.candidates(data.credit, data.billing)
    # Once before: the similarity memo is full, so only the report grows.
    workspace.match(data.credit, data.billing, candidates=candidates)
    clustering = {}
    cluster = workspace_module.cluster_matches

    def measured(matches):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        clusters = cluster(matches)
        clustering["peak"] = tracemalloc.get_traced_memory()[1] - before
        return clusters

    monkeypatch.setattr(workspace_module, "cluster_matches", measured)
    gc.collect()
    tracemalloc.start()
    try:
        report = workspace.match(data.credit, data.billing, candidates=candidates)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    matches = len(report.matches)
    assert matches > 1_500 and len(report.clusters) > 300
    assert held <= 24 * matches
    assert clustering["peak"] <= 200 * matches
