"""Cost pins for the hash-joined equality atoms, by counts.

One block-structured instance — 80 blocks of 25 x 25 tuples, 50 000
candidate pairs over 4 000 tuples, the shape hash blocking produces — is
chased three times: as blocking hands it over (the kernel joins),
shuffled (sorted into the same candidate set on entry: the same chase,
the same work), and with no atom it can index (every atom filters the
pairs).  All three must agree on everything but the work, and the work
must show what the join is for: selection costs what it keeps, not what
it reads, and finding a pair needs no table beside the runs the chase
already holds.
"""

from __future__ import annotations

import random
import tracemalloc
from contextlib import nullcontext
from unittest import mock

from repro.core.parser import parse_md
from repro.core.schema import RelationSchema, SchemaPair
from repro.core.semantics import InstancePair
from repro.plan import compile_plan
from repro.relations.relation import Relation

NAMES = ("id", "name", "phone", "city")
BLOCKS, SIDE = 80, 25

RULES = (
    "R[id] = S[id] -> R[phone] <=> S[phone]",
    "R[phone] = S[phone] & R[name] ~dl(0.8) S[name] -> R[city] <=> S[city]",
    "R[name] = S[name] & R[city] = S[city] -> R[phone] <=> S[phone]",
)


def _instance():
    """Per block 25 tuples a side over 12 entities: about one pair in
    twelve agrees on ``id``; a phone or a city is missing here and there,
    so the second and third rule only fire on what a round repaired."""
    rng = random.Random(21)
    pair = SchemaPair(RelationSchema("R", NAMES), RelationSchema("S", NAMES))
    left, right = Relation(pair.left), Relation(pair.right)
    pairs = []
    for block in range(BLOCKS):
        tids = range(block * SIDE, (block + 1) * SIDE)
        for relation in (left, right):
            for tid in tids:
                entity = f"{block}-{rng.randrange(12)}"
                relation.insert(
                    {
                        "id": entity,
                        "name": f"name {entity}" + rng.choice(("", "", " jr")),
                        "phone": rng.choice((f"555-{entity}", None)),
                        "city": rng.choice((f"city of {entity}", None, None)),
                    },
                    tid=tid,
                )
        pairs.extend((l, r) for l in tids for r in tids)
    return pair, InstancePair(pair, left, right), pairs


def _chase(pair, instance, pairs, joins=True):
    """One traced-by-tracemalloc chase, stability check included; with
    ``joins`` off no value can be indexed, so every ``=`` atom filters."""
    plan = compile_plan(sigma=[parse_md(text, pair) for text in RULES])
    unjoinable = mock.patch("repro.plan.executor.Counter", side_effect=TypeError)
    tracemalloc.start()
    with nullcontext() if joins else unjoinable:
        result = plan.enforce(instance, candidate_pairs=pairs)
        chased = result.pairs
        holding = [sorted(chased[i] for i in positions) for positions in result.holding]
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return plan.stats, result, holding, peak


def test_a_joined_chase_does_a_quarter_of_the_work_and_holds_no_table():
    pair, instance, pairs = _instance()
    assert len(pairs) == 50_000 and pairs == sorted(pairs)
    shuffled = list(pairs)
    random.Random(4).shuffle(shuffled)

    joined_stats, joined, joined_holding, joined_peak = _chase(pair, instance, pairs)
    shuffled_stats, reordered, reordered_holding, _ = _chase(pair, instance, shuffled)
    scanned_stats, scanned, scanned_holding, scanned_peak = _chase(
        pair, instance, pairs, joins=False
    )

    # A shuffled list is the same candidate set: the same chase, the same
    # work, join for join.
    assert list(reordered.pairs) == pairs
    assert (reordered.rounds, reordered.applications, reordered.repairs) == (
        joined.rounds, joined.applications, joined.repairs
    )
    assert reordered_holding == joined_holding
    assert (shuffled_stats.metric_evaluations, shuffled_stats.cache_hits) == (
        joined_stats.metric_evaluations, joined_stats.cache_hits
    )

    # Same chase ...
    assert joined.rounds == scanned.rounds > 2
    assert joined.applications == scanned.applications > 5_000
    assert joined.repairs == scanned.repairs and len(joined.repairs) > 1_000
    assert joined_holding == scanned_holding and all(joined_holding)
    assert joined.stable and scanned.stable
    assert sorted(joined.matches([("city", "city")])) == sorted(
        scanned.matches([("city", "city")])
    )
    # ... a quarter of the atom tests (a join counts its probes) ...
    assert joined_stats.metric_evaluations * 4 <= scanned_stats.metric_evaluations
    assert joined_stats.cache_hits <= scanned_stats.cache_hits
    # ... and no more memory: a ``pair -> position`` table over the list
    # would be as fast and cost a fifth more at the peak.
    assert joined_peak <= 1.05 * scanned_peak
