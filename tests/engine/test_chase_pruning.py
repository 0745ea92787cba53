"""The chases the engine does not run, held to the engine that runs them.

A delta chase runs only when its verdict can change the store
(:mod:`repro.engine.matcher`).  Three of the decisions are *exact* —

* rule 2: a re-examination is not chased when, on current values, no
  rule's LHS holds on a pair leaving the record's cluster and every pair
  inside it agrees on every RHS pair (``_cannot_union``);
* rule 4: an arriving delta's second chase is skipped when the first
  matched every pair (``_all_matched``);
* rule 3's second-chase trigger: a record counts as repaired only where
  a rule can read (``_any_repaired`` over the plan's read attributes)

— so forcing any of them to "run it anyway" (:func:`never_skip`) may
change nothing the store holds.  Hypothesis streams under generated rule
sets check exactly that on every blocking × store × ingest mode; one
constructed stream per rule shows the skip's *boundary* matters (each is
the smallest stream on which the obvious wrong version of the rule ends
in other clusters).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from functools import lru_cache, partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.parser import parse_md
from repro.core.schema import LEFT, RIGHT, ComparableLists, RelationSchema, SchemaPair
from repro.datagen.generator import generate_dataset
from repro.datagen.mdgen import generate_workload
from repro.datagen.streams import arrival_stream
from repro.matching.evaluate import evaluate_matches

import store_state

SKIPS = ("cannot_union", "all_matched", "unread_repair")


def never_skip(matcher, skip: str):
    """Force one exact skip of ``matcher`` to "run the chase anyway"."""
    if skip == "unread_repair":
        # Repaired anywhere, as before the plan knew what a rule reads.
        store = matcher.store
        names = [store.relation(side).schema.attribute_names for side in (LEFT, RIGHT)]
        matcher._any_repaired = lambda pairs: any(
            store.is_repaired(side, tid, names[side])
            for pair in pairs
            for side, tid in zip((LEFT, RIGHT), pair)
        )
    else:
        assert skip in SKIPS
        setattr(matcher, "_" + skip, lambda *args: False)
    return matcher


def _run(workspace, events, cuts=None, skip=None):
    """Stream ``events`` — one by one, or as micro-batches split at the
    ``cuts`` positions; everything the store ends up holding, the
    per-event ``merged`` flags and probed pairs, and the chase counters."""
    matcher = workspace.stream()
    if skip is not None:
        never_skip(matcher, skip)
    if cuts is None:
        results = [matcher.ingest(side, values) for side, values in events]
    else:
        bounds = [0] + sorted({cut for cut in cuts if 0 < cut < len(events)}) + [len(events)]
        results = [
            result
            for start, end in zip(bounds, bounds[1:])
            for result in matcher.ingest_batch(events[start:end])
        ]
    observed = (
        store_state.state(matcher.store),
        [(result.merged, result.candidates, result.cascade_truncated) for result in results],
    )
    counters = dict(workspace.metrics.counters)
    matcher.store.close(commit=False)
    return observed, counters, results


# ----------------------------------------------------------------------
# Hypothesis: generated rule sets, every configuration
# ----------------------------------------------------------------------

ARITY = 4

#: Near-duplicates make the similarity operators fire, differing lengths
#: make the consensus rewrite, nulls exercise the null rule of ``=``, and
#: so few values that records share buckets, clusters grow and repairs
#: cascade.
VALUES = st.sampled_from([None, "mark", "marx", "mark s", "clare", "x"])

EVENTS = st.lists(
    st.tuples(
        st.sampled_from([LEFT, RIGHT]),
        st.lists(VALUES, min_size=ARITY, max_size=ARITY),
    ),
    min_size=2,
    max_size=40,
)

#: ``(lhs, rhs_left, rhs_right)`` positions of one extra rule
#: ``A<lhs> = B<lhs> -> A<rhs_left> <=> B<rhs_right>``: with
#: ``rhs_left != rhs_right`` its RHS pairs an attribute another rule's
#: LHS may read with one no LHS names — the read set needs its closure.
CROSS_RULE = st.tuples(*[st.integers(0, ARITY - 1)] * 3)

#: Where a stream is cut into micro-batches (none: one batch).
CUTS = st.lists(st.integers(1, 39), max_size=4)

BLOCKING = {
    "hash": {"backend": "hash"},
    "sorted-neighborhood": {"backend": "sorted-neighborhood", "window": 3},
}

_store_files = itertools.count()


def _generated_workspace(workspace_for, seed, md_count, cross_rule, blocking, store, tmp):
    # Target = A0/B0, A1/B1; with bias 0.5 half the RHS pairs fall
    # outside it (chased and repaired in a chase, never in the store).
    workload = generate_workload(
        md_count, target_length=2, arity=ARITY, max_lhs=2, seed=seed,
        rhs_target_bias=0.5,
    )
    lhs, rhs_left, rhs_right = cross_rule
    sigma = list(workload.sigma) + [
        parse_md(
            f"R1[A{lhs}] = R2[B{lhs}] -> R1[A{rhs_left}] <=> R2[B{rhs_right}]",
            workload.pair,
        )
    ]
    sections = {"blocking": BLOCKING[blocking]}
    if store == "sqlite":
        sections["persistence"] = {
            "backend": "sqlite", "path": str(tmp / f"s{next(_store_files)}.db"),
        }
    return workspace_for(workload.target, sigma, **sections)


@pytest.mark.parametrize("store", ("memory", "sqlite"))
@pytest.mark.parametrize("blocking", sorted(BLOCKING))
@settings(max_examples=25, deadline=None)
# Two streams of this space, found by random search and shrunk, on which
# a micro-batch that screened its records with one pooled chase and
# skipped those next to no repair ended elsewhere than per-record ingest
# unless it counted as repaired what the pooled chase itself moved
# (first) and what an earlier batch record's merge moved (second).
# ``ingest_batch`` no longer screens; they stay as known hard cases of
# batch ≡ stream.
@example(
    seed=4510, md_count=4, cross_rule=(3, 3, 0), cuts=[],
    rows=[
        (LEFT, ["clare", None, "x", "clare"]),
        (RIGHT, [None, "mark", None, "clare"]),
        (RIGHT, ["mark s", None, None, "clare"]),
    ],
)
@example(
    seed=8412, md_count=3, cross_rule=(3, 0, 1), cuts=[1, 2, 3, 4, 5],
    rows=[
        (LEFT, ["mark s", None, None, "marx"]),
        (RIGHT, [None, None, None, "clare"]),
        (LEFT, [None, None, None, "clare"]),
        (RIGHT, [None, "marx", "mark", "marx"]),
        (RIGHT, ["mark s", "mark", "mark s", None]),
        (RIGHT, ["marx", "marx", "mark s", "clare"]),
        (LEFT, ["mark", None, "mark s", "x"]),
    ],
)
# A stream on which rule 2 without its RHS half — "no LHS holds on a pair
# leaving the cluster" alone — skips a re-examination whose first round
# rewrites the record and so lets a leaving pair fire in the second.
@example(
    seed=4235, md_count=4, cross_rule=(0, 0, 3), cuts=[],
    rows=[(LEFT, [None] * ARITY)] * 5 + [
        (LEFT, ["mark", None, "mark", "clare"]),
        (RIGHT, [None, "mark", "clare", "mark"]),
        (RIGHT, ["mark", None, "clare", None]),
        (RIGHT, ["clare", None, "mark", None]),
        (LEFT, ["mark", None, "clare", "mark"]),
    ],
)
@given(
    seed=st.integers(0, 10_000), md_count=st.integers(1, 4), cross_rule=CROSS_RULE,
    cuts=CUTS, rows=EVENTS,
)
def test_every_exact_skip_leaves_the_store_as_the_unpruned_engine_does(
    workspace_for, tmp_path_factory, blocking, store, seed, md_count, cross_rule, cuts, rows,
):
    tmp = tmp_path_factory.mktemp("pruning") if store == "sqlite" else None
    events = [
        (side, {f"{'AB'[side]}{i}": value for i, value in enumerate(values)})
        for side, values in rows
    ]

    def run(in_batches, skip=None):
        workspace = _generated_workspace(
            workspace_for, seed, md_count, cross_rule, blocking, store, tmp
        )
        return _run(workspace, events, cuts if in_batches else None, skip)

    pruned, counters, results = run(False)
    # Micro-batches are per-record ingest under one commit: the same
    # store, the same per-event results, matches included, and exactly
    # the same chases, run and skipped.
    batched, batched_counters, batched_results = run(True)
    assert batched == pruned and batched_results == results
    assert _chase_counters(batched_counters) == _chase_counters(counters)
    for in_batches in (False, True):
        for skip in SKIPS:
            unpruned, forced, _ = run(in_batches, skip)
            assert unpruned == pruned, (in_batches, skip)
            if not in_batches:
                # The forced engine ran at least the chases the pruned one did.
                assert _chases(forced) >= _chases(counters)
            assert skip == "unread_repair" or not forced.get(
                f"engine.chases.skipped.{skip}"
            )


def _chase_counters(counters):
    return {name: n for name, n in counters.items() if name.startswith("engine.chases.")}


def _chases(counters):
    return sum(
        counters.get(f"engine.chases.{kind}", 0)
        for kind in ("arrival", "current", "reexamination")
    )


# ----------------------------------------------------------------------
# One constructed stream per rule: where the boundary of the skip is
# ----------------------------------------------------------------------

KBT = ("K", "A", "B", "T")


def _one_block_workspace(workspace_for, left, right, target, *rules, backend="hash"):
    """Rules over ``R(left)`` / ``S(right)``, every record of one ``K``
    in one block (hash on ``K``, or one sorted-neighborhood window)."""
    pair = SchemaPair(RelationSchema("R", left), RelationSchema("S", right))
    blocking = (
        {"backend": "hash", "key_pairs": [["K", "K"]]}
        if backend == "hash"
        else {"backend": "sorted-neighborhood", "window": 10, "key_pairs": [["K", "K"]]}
    )
    return workspace_for(
        ComparableLists(pair, [l for l, _ in target], [r for _, r in target]),
        [parse_md(rule, pair) for rule in rules],
        blocking=blocking,
    )


#: Same ``A`` is a match, same ``B`` is a match; ``B`` is a target
#: attribute, so a cluster's consensus rewrites what the second rule reads.
SAME_A_OR_SAME_B = (
    "R[A] = S[A] -> R[B] <=> S[B] & R[T] <=> S[T]",
    "R[B] = S[B] -> R[B] <=> S[B] & R[T] <=> S[T]",
)


def _clusters(observed):
    return observed[0]["clusters"]


@pytest.mark.parametrize("backend", ("hash", "sorted-neighborhood"))
def test_a_reexamination_with_a_pair_leaving_the_cluster_is_chased(workspace_for, backend):
    """Rule 2 asks about the *other* side of each pair.  ``R1`` merges
    with ``L0`` and the consensus lengthens ``L0``'s ``B``; re-examined,
    ``L0`` now equals ``R0`` on ``B`` — a union only the re-examination
    finds (``R0`` is in no pair of ``R1``'s delta).  A rule 2 that looks
    the record itself up in its own cluster skips it, and so does one
    that tests the LHS on arrival values."""
    workspace = partial(
        _one_block_workspace, workspace_for, KBT, KBT, [("B", "B"), ("T", "T")],
        *SAME_A_OR_SAME_B, backend=backend,
    )
    events = [
        (LEFT, {"K": "k", "A": "a1", "B": "xy", "T": "t"}),
        (RIGHT, {"K": "k", "A": "a2", "B": "abcdef", "T": "t"}),
        (RIGHT, {"K": "k", "A": "a1", "B": "abcdef", "T": "t"}),
    ]
    pruned, counters, results = _run(workspace(), events)
    assert _clusters(pruned) == [[["L", 0], ["R", 0], ["R", 1]]]
    assert [result.merged for result in results] == [False, False, True]
    # R1's ingest: its arrival chase, then L0 re-examined (R1 itself,
    # repaired nowhere, is not).  What each found is what is reported.
    assert counters["engine.chases.reexamination"] == 1
    assert "engine.chases.skipped.cannot_union" not in counters
    assert results[2].matches == ((0, 1), (0, 0))
    assert results[2].candidates == ((0, 1), (0, 0), (0, 1))
    assert _run(workspace(), events, skip="cannot_union")[0] == pruned

    # ... and once R0 is in, re-examining finds every pair at home.
    late = events + [(RIGHT, {"K": "k", "A": "a1", "B": "abcdefgh", "T": "t"})]
    pruned, counters, results = _run(workspace(), late)
    assert _clusters(pruned) == [[["L", 0], ["R", 0], ["R", 1], ["R", 2]]]
    # L0, R0 and R1 are lengthened to R2's B; each is re-examined,
    # each finds only cluster members that agree with it, none is chased.
    assert counters["engine.chases.skipped.cannot_union"] == 3
    assert counters["engine.chases.reexamination"] == 1
    assert results[3].matches == ((0, 2),)
    assert len(results[3].candidates) == 1 + 3 + 1 + 1
    assert _run(workspace(), late, skip="cannot_union")[0] == pruned


def test_a_reexamination_whose_leaving_pairs_cannot_fire_is_skipped(workspace_for):
    """Rule 2's LHS half: a pair leaving the cluster does not stop the
    skip when no rule's LHS holds on it *now*.  ``R1`` joins ``L0`` on
    ``A`` and the consensus lengthens ``L0``'s ``B``; re-examined, ``L0``
    still differs from the bystander ``R0`` on ``A`` and on ``B``, and
    agrees with ``R1`` on ``B`` and ``T``: not chased, counted, and the
    chase it would have been finds nothing new."""
    workspace = partial(
        _one_block_workspace, workspace_for, KBT, KBT, [("B", "B"), ("T", "T")],
        *SAME_A_OR_SAME_B,
    )
    events = [
        (LEFT, {"K": "k", "A": "a1", "B": "xy", "T": "t"}),
        (RIGHT, {"K": "k", "A": "a2", "B": "pq", "T": "t"}),
        (RIGHT, {"K": "k", "A": "a1", "B": "abcdef", "T": "t"}),
    ]
    pruned, counters, results = _run(workspace(), events)
    assert _clusters(pruned) == [[["L", 0], ["R", 1]]]
    assert pruned[0]["rows"]["left"][0][2]["B"] == "abcdef"
    # R1's ingest probed L0 and then re-examined L0, whose pair with R0
    # leaves the cluster.
    assert results[2].candidates == ((0, 1), (0, 0), (0, 1))
    assert results[2].matches == ((0, 1),)
    assert counters["engine.chases.skipped.cannot_union"] == 1
    assert "engine.chases.reexamination" not in counters
    forced, forced_counters, forced_results = _run(workspace(), events, skip="cannot_union")
    assert forced == pruned
    assert forced_counters["engine.chases.reexamination"] == 1
    # The forced chase matched L0's pair at home again, and nothing else.
    assert forced_results[2].matches == ((0, 1),)


def test_a_home_pair_disagreeing_outside_the_target_is_chased(workspace_for):
    """Rule 2's RHS half: a pair inside the cluster that disagrees on an
    RHS pair can rewrite the record mid-chase.  ``C`` is identified by
    the first rule but is no target attribute, so the store's consensus
    never reconciles it: ``L0`` keeps ``C = c1`` beside ``R1``'s ``c22``.
    Re-examining ``L0`` (its ``A`` lengthened by the consensus), no rule
    holds on the leaving pair ``(L0, R0)``; but round 1 joins ``L0``'s
    and ``R1``'s ``C`` and resolves it to ``c22``, which ``R0`` carries,
    so round 2 fires the second rule on ``(L0, R0)`` — a union only this
    chase finds."""
    rules = (
        "R[A] = S[A] -> R[A] <=> S[A] & R[C] <=> S[C] & R[T] <=> S[T]",
        "R[C] = S[C] -> R[A] <=> S[A] & R[T] <=> S[T]",
        "R[B] = S[B] -> R[A] <=> S[A] & R[T] <=> S[T]",
    )
    schema = ("K", "A", "B", "C", "T")
    workspace = partial(
        _one_block_workspace, workspace_for, schema, schema, [("A", "A"), ("T", "T")],
        *rules,
    )
    events = [
        (LEFT, {"K": "k", "A": "a", "B": "b1", "C": "c1", "T": "t"}),
        (RIGHT, {"K": "k", "A": "zz", "B": "b0", "C": "c22", "T": "t"}),
        (RIGHT, {"K": "k", "A": "aaa", "B": "b1", "C": "c22", "T": "t"}),
    ]
    pruned, counters, results = _run(workspace(), events)
    assert _clusters(pruned) == [[["L", 0], ["R", 0], ["R", 1]]]
    assert [result.merged for result in results] == [False, False, True]
    assert results[2].matches == ((0, 1), (0, 0))
    # L0's re-examination, then R0's (its A rewritten to aaa; its one pair,
    # with L0, is at home but still disagrees on C): both are chased.
    assert counters["engine.chases.reexamination"] == 2
    assert "engine.chases.skipped.cannot_union" not in counters
    assert _run(workspace(), events, skip="cannot_union")[0] == pruned


def test_the_second_chase_runs_while_one_pair_is_undecided(workspace_for):
    """Rule 4 compares a chase's matches with *its own* pairs.  ``R1``'s
    arrival chase matches one of its two pairs (``L1``, same ``A``); the
    other, ``L0``, matches only on current values — its ``B`` was
    lengthened by an earlier consensus.  A rule 4 satisfied by "something
    matched" never runs that second chase."""
    workspace = partial(
        _one_block_workspace, workspace_for, KBT, KBT, [("B", "B"), ("T", "T")],
        *SAME_A_OR_SAME_B,
    )
    events = [
        (LEFT, {"K": "k", "A": "a1", "B": "xy", "T": "t"}),
        (RIGHT, {"K": "k", "A": "a1", "B": "abcdef", "T": "t"}),
        (LEFT, {"K": "k", "A": "a3", "B": "q", "T": "t"}),
        (RIGHT, {"K": "k", "A": "a3", "B": "abcdef", "T": "t"}),
    ]
    pruned, counters, results = _run(workspace(), events)
    assert _clusters(pruned) == [[["L", 0], ["L", 1], ["R", 0], ["R", 1]]]
    assert results[3].matches[:2] == ((1, 1), (0, 1))
    assert counters["engine.chases.current"] == 1
    assert "engine.chases.skipped.all_matched" not in counters
    assert _run(workspace(), events, skip="all_matched")[0] == pruned

    # A fifth record every pair of which matches on arrival values: the
    # involved records are repaired, and the second chase has nothing
    # left to decide.
    late = events + [(RIGHT, {"K": "k", "A": "a1", "B": "q", "T": "t"})]
    late[2] = (LEFT, {"K": "k", "A": "a1", "B": "q", "T": "t"})
    pruned, counters, _ = _run(workspace(), late)
    assert counters["engine.chases.skipped.all_matched"] >= 1
    forced, forced_counters, _ = _run(workspace(), late, skip="all_matched")
    assert forced == pruned
    assert "engine.chases.skipped.all_matched" not in forced_counters
    assert forced_counters["engine.chases.current"] > counters.get("engine.chases.current", 0)


def test_a_repair_reaches_a_rule_through_an_rhs_pair(workspace_for):
    """The read set is closed under sharing an RHS pair.  No LHS names
    ``S[Y]``, but the first rule identifies it with ``R[X]``, which the
    second reads: ``R0``'s ``Y``, lengthened by consensus, is what makes
    ``L1`` equal ``R0`` on ``X`` in the current-values chase.  A read set
    of LHS attributes alone calls ``R0`` unrepaired and never runs it."""
    workspace = partial(
        _one_block_workspace, workspace_for, ("K", "X", "T"), ("K", "X", "Y", "T"),
        [("X", "Y"), ("T", "T")],
        "R[K] = S[K] -> R[X] <=> S[Y]",
        "R[X] = S[X] -> R[X] <=> S[Y] & R[T] <=> S[T]",
    )
    plan = workspace().plan
    assert plan.read_attributes == ({"K", "X"}, {"K", "X", "Y"})
    events = [
        (LEFT, {"K": "k", "X": "abcdef", "T": "t"}),
        (RIGHT, {"K": "k", "X": "abcdef", "Y": "ab", "T": "t"}),
        (LEFT, {"K": "k", "X": "q", "T": "t"}),
    ]
    pruned, counters, results = _run(workspace(), events)
    assert pruned[0]["rows"]["right"] == [
        [0, dict(events[1][1]), dict(events[1][1], Y="abcdef")]
    ]
    assert _clusters(pruned) == [[["L", 0], ["L", 1], ["R", 0]]]
    assert counters["engine.chases.current"] == 1
    assert results[2].matches == ((1, 0),)
    assert _run(workspace(), events, skip="unread_repair")[0] == pruned


def test_a_repair_no_rule_can_read_triggers_nothing(workspace_for, ext_target):
    """Under the Section 6.2 rules ``gender`` is identified by ϕ1/ϕ5 and
    read by no LHS (like ``MI``, ``county``, ``state``).  A consensus that
    moves only ``gender`` is written, re-probes nothing and does not make
    the record "repaired" for the next delta's second chase."""
    workspace = workspace_for(ext_target)
    for side in (LEFT, RIGHT):
        assert {"MI", "county", "state", "gender"}.isdisjoint(
            workspace.plan.read_attributes[side]
        )
    matcher = workspace.stream()
    store = matcher.store
    probes = []
    neighbors = store.neighbors
    store.neighbors = lambda side, tid: probes.append((side, tid)) or neighbors(side, tid)
    holder = {
        "FN": "Mark", "LN": "Clifford", "street": "10 Oak Street", "city": "Murray Hill",
        "zip": "07974", "email": "mc@gm.com",
    }
    matcher.ingest(LEFT, dict(holder, tel="908-1111111"))
    chases = workspace.plan.stats.enforcements
    result = matcher.ingest(RIGHT, dict(holder, phn="908-1111111", gender="M"))
    assert result.merged and store.left[0]["gender"] == "M"
    assert store.is_repaired(LEFT, 0, ["gender"])
    assert not store.is_repaired(LEFT, 0, workspace.plan.read_attributes[LEFT])
    # One probe per arrival, none again; one chase for the second record.
    assert probes == [(LEFT, 0), (RIGHT, 0)]
    assert workspace.plan.stats.enforcements - chases == 1
    counters = workspace.metrics.counters
    assert counters["engine.chases.skipped.unread_repair"] == 1
    # The next delta involves L0, repaired where no rule reads: one chase.
    other = matcher.ingest(RIGHT, dict(holder, FN="Zoe", LN="Smith", email="zs@gm.com"))
    assert other.candidates == ((0, 1),) and not other.merged
    assert counters["engine.chases.arrival"] == 2
    assert "engine.chases.current" not in counters
    assert "engine.chases.reexamination" not in counters


def test_a_reexamination_reads_current_values(workspace_for):
    """Rule 1: what a re-examination can add comes from repairs, so it
    reads current values — here ones no chase of arrival values could
    rebuild.  ``L0``'s ``B`` and ``C`` are lengthened by two members of
    its own side (never in a pair of ``L0``'s), one ingest apart; only
    with both does ``L0`` equal the bystander ``R0``, which sits in
    ``L0``'s window and in nobody else's."""
    schema = ("G", "K", "A", "B", "C", "T")
    pair = SchemaPair(RelationSchema("R", schema), RelationSchema("S", schema))
    target = [("B", "B"), ("C", "C"), ("T", "T")]
    identified = " & ".join(f"R[{name}] <=> S[{name}]" for name, _ in target)
    workspace = workspace_for(
        ComparableLists(pair, [l for l, _ in target], [r for _, r in target]),
        [
            parse_md(f"R[A] = S[A] -> {identified}", pair),
            parse_md(f"R[B] = S[B] & R[C] = S[C] -> {identified}", pair),
        ],
        # One run (every record has G = g) ranked by K; a window reaches
        # two ranks either way.
        blocking={
            "backend": "sorted-neighborhood", "window": 3,
            "key_pairs": [["G", "G"], ["K", "K"]],
        },
    )

    def record(rank, a, b, c):
        return {"G": "g", "K": str(rank), "A": a, "B": b, "C": c, "T": "t"}

    events = [
        (RIGHT, record(1, "a0", "long-b", "long-c")),  # R0, the bystander
        (LEFT, record(2, "a1", "b", "c")),             # L0
        (RIGHT, record(3, "a1", "b", "c")),            # R1: same A as L0
        (LEFT, record(4, "a1", "long-b", "c")),        # L1: lengthens B
        (LEFT, record(5, "a1", "b", "long-c")),        # L2: lengthens C
    ]
    observed, counters, results = _run(workspace, events)
    assert [result.merged for result in results] == [False, False, True, True, True]
    assert _clusters(observed) == [[["L", 0], ["L", 1], ["L", 2], ["R", 0], ["R", 1]]]
    # L2's own delta is its pair with R1; (L0, R0) is what re-examining
    # L0 on current values found (beside L0's pair at home).
    assert results[4].matches == ((2, 1), (0, 0), (0, 1))
    # Five arrivals, four of them with a neighbor: four arrival chases
    # and not one more — a re-examination re-reads no arrival evidence.
    assert counters["engine.chases.arrival"] == 4


# ----------------------------------------------------------------------
# Rule 1 is a semantics decision: held to the results it replaced
# ----------------------------------------------------------------------

#: Per seed, for the 2760-event bench stream (``generate_dataset(2300,
#: seed)``, ``arrival_stream``) under hash (``key_length=1``) and
#: sorted-neighborhood (``window=10``) blocking: digests of the final
#: clusters and of every record's arrival + current values, and
#: ``store.merges`` — recorded at the commit *before* re-examinations
#: stopped re-reading arrival values (PR 21, e1e9413).
BEFORE = {
    1: (("220caa4e479b171e", "b4ea2f8c47e9084b", 2230), ("8d7b1c0d8d276314", "45502571235e4b5c", 2214)),
    2: (("2766771d5829efcd", "2bfea1ad73266c80", 2232), ("70ca9ff3c52c7e0a", "615937690c73b2bc", 2225)),
    3: (("b8e7734b53206936", "6cbcfa03c9325413", 2228), ("ea95c8a5b0726707", "8f73c5e22cdcc68c", 2213)),
    4: (("2af3a9d0b3e6cec7", "3756cc77ec249941", 2223), ("b5bfc40355ce26a0", "4833a8bc340eeae4", 2206)),
    5: (("309db59aaed4ab13", "1a30e5d66adcc1ff", 2227), ("aaa4c3516d16a917", "28c4b25c5ca388f4", 2216)),
    6: (("789d4baac3d61885", "b7719b1c22348690", 2226), ("ad247993ebf34ab7", "fd4ad5c9ad477715", 2216)),
    7: (("1806c3b6b7769b38", "483cd6a222efdf5d", 2234), ("dda15eb7d4233213", "b998929a4526bec5", 2219)),
    8: (("b5d322447eabdd70", "7495942d9d4b1bb1", 2225), ("2496ab35b413ad98", "bec761a4b4125b15", 2210)),
    9: (("d6e134f20181fd75", "b9e3decd05fabc97", 2241), ("f0f4d050cb8ba084", "6de0191826725804", 2225)),
    10: (("60e443d495372503", "875faf5dfff26203", 2224), ("ad3248f08a7d830e", "870607bbc722c675", 2215)),
    11: (("a803c7f0fd0a49dc", "7d97fdcf4ab61b1f", 2237), ("3ca4671b5413131e", "17a52739e1f84557", 2228)),
    12: (("0fd64e6dbf6ad0b3", "8f64a25f448011d8", 2243), ("1e39946b059d8baf", "b5d99216e3c5800c", 2231)),
    13: (("1311334ed37e10a7", "a1a598d0d47de843", 2240), ("31261d47c5f934ca", "1671066d3c9017cd", 2226)),
}

BENCH_BLOCKING = (
    {"backend": "hash", "key_length": 1},
    {"backend": "sorted-neighborhood", "window": 10},
)


def _digest(document) -> str:
    text = json.dumps(document, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@lru_cache(maxsize=2)
def _bench_source(seed):
    source = generate_dataset(2300, seed=seed)
    return source, list(arrival_stream(source, seed=seed).events)


def _bench_stream(workspace_for, seed, blocking):
    """The bench stream of ``seed`` through a fresh memory store: the
    workspace, the final clusters and ``(cluster digest, value digest,
    merges)``."""
    source, events = _bench_source(seed)
    workspace = workspace_for(source, blocking=blocking)
    matcher = workspace.stream()
    matcher.ingest_stream(events)
    store = matcher.store
    clusters = store.clusters()
    after = (
        _digest([[sorted(c.left_tids), sorted(c.right_tids)] for c in clusters]),
        _digest(store_state.rows(store)),
        store.merges,
    )
    return workspace, clusters, after


@pytest.mark.parametrize("position", (0, 1), ids=("hash", "sorted-neighborhood"))
@pytest.mark.parametrize("seed", (7, 3))
def test_the_bench_streams_end_where_they_did(workspace_for, seed, position):
    """Seeds 7 (the benchmark's pinned one) and 3: same clusters, same
    values, same merges as before — at 1.7 / 0.7 chases per record where
    there were 3.6 / 2.8."""
    workspace, _, after = _bench_stream(workspace_for, seed, BENCH_BLOCKING[position])
    assert after == BEFORE[seed][position]
    counters = workspace.metrics.counters
    chases = workspace.plan.stats.enforcements
    assert chases == _chases(counters)
    assert chases / len(_bench_source(seed)[1]) < (1.8, 0.8)[position]
    # Every skip earns its keep on a real stream.
    for skip in SKIPS:
        assert counters[f"engine.chases.skipped.{skip}"] > 0


@pytest.mark.slow
def test_seed_sweep_differs_from_before_on_seed_11_only(workspace_for, capsys):
    """Seeds 1–13 × both blockings (~30 s, hence ``-m slow``).
    Re-reading arrival evidence in a re-examination was a retry in
    another pair context, and on one stream of 26 it decided a pair
    differently: seed 11 ends one union short of before (``R1632`` no
    longer joins ``L394``'s cluster), under both blockings.  Anything
    else is a bug.  Prints the README's table: chases per record and
    pairwise agreement (F1) with ``Workspace.match``."""
    differing = []
    with capsys.disabled():
        print("\nseed blocking      merges  chases/record  agreement")
        for seed in sorted(BEFORE):
            for position, blocking in enumerate(BENCH_BLOCKING):
                workspace, clusters, after = _bench_stream(workspace_for, seed, blocking)
                if after != BEFORE[seed][position]:
                    differing.append((seed, blocking["backend"], after[2]))
                source, events = _bench_source(seed)
                per_record = workspace.plan.stats.enforcements / len(events)
                streamed, batch = (
                    {pair for cluster in found for pair in cluster.implied_pairs()}
                    for found in (
                        clusters,
                        workspace.match(source.credit, source.billing).clusters,
                    )
                )
                agreement = evaluate_matches(streamed, frozenset(batch)).f1
                print(
                    f"{seed:4d} {blocking['backend'][:12]:13s} {after[2]:6d}"
                    f"  {per_record:13.2f}  {agreement:.6f}"
                )
    assert differing == [
        (11, "hash", BEFORE[11][0][2] - 1),
        (11, "sorted-neighborhood", BEFORE[11][1][2] - 1),
    ]
