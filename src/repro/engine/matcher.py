"""Incremental entity resolution: match records as they arrive.

A batch run (:meth:`repro.api.Workspace.match`) re-blocks, re-compares
and re-enforces the full instance every time.  The
:class:`IncrementalMatcher` — built by :meth:`repro.api.Workspace.stream`
over the workspace's compiled plan — instead keeps a warm
:class:`~repro.engine.store.MatchStore` and, for each arriving record:

1. inserts and indexes it (:meth:`~repro.engine.store.MatchStore.add`;
   its blocking keys are derived here, once, and reused by every probe);
2. probes only the affected index buckets for the candidate neighborhood;
3. chases the *delta* — the new record's pairs with its neighbors — with
   the plan's one kernel, the store itself being the instance: the kernel
   projects the few tuples the pairs mention straight off the store's
   rows (:attr:`~repro.engine.store.MatchStore.instances`), never copying or
   rescanning the full instance;
4. reads match decisions off the identified target cells (nothing else:
   a delta chase runs no stability pass), merges identity clusters, and
   re-resolves each grown cluster's target values to the member
   consensus, so later arrivals compare against the cleaned records (the
   dynamic semantics accumulating over the stream);
5. re-examines the neighborhood of every record that consensus repaired.

Per-ingest work is therefore proportional to the record's bucket
neighborhood, which is what makes streaming ingest sublinear in the store
size (asserted by ``tests/engine/test_equivalence.py`` via the store's
comparison counter).

**A chase runs only when its verdict can change the store.**  The paper's
dynamic semantics evaluates an MD's LHS on ``D`` once and afterwards on
the updated ``D'``; a record's arrival values never change, so (1) a
*re-examination* chases current values only — arrival evidence is read
once per pair, in the delta of the later of its two arrivals (the
streaming counterpart of the batch kernel's rounds ≥ 2).  (2) A
re-examination is not chased when, on current values, no rule's LHS
holds on a pair leaving the record's cluster and every pair inside it
already carries equal values on every rule's RHS pairs: enforcing the
rules would then identify only cells that agree — no cell changes, so
nothing beyond the first round fires, and that round's matches all lie
in the cluster (:meth:`IncrementalMatcher._cannot_union`; a
re-examination with no pair leaving the cluster is the plainest case).
(3) Which cells a chase identifies depends only on the values of the
attributes a rule reads
(:attr:`~repro.plan.compile.EnforcementPlan.read_attributes`), so a
repair that moves none of them is written to the store and otherwise
ignored: it queues no re-examination and does not count as "repaired"
for the second chase.  (4) An arriving delta's second, current-values
chase is skipped when the first matched every pair.  Rules 2, 4 and the
second-chase half of 3 cannot change what the store ends up holding
(``tests/engine/test_chase_pruning.py`` runs the engine with each forced
off and compares); rule 1 and the re-examination half of 3 give up
re-chasing a neighborhood on evidence every pair of it was already
judged on — in a different pair context, which on rare streams decided a
pair differently (README, "One ingest pays for its delta").  The chases
that ran and the ones skipped are counted by kind in the metrics
registry (``engine.chases.*``).

A micro-batch (:meth:`IncrementalMatcher.ingest_batch`) is this same
per-record ingest applied to its events in order, under one durable
transaction: the stream's outcome is defined record by record, so a
batch equals the stream by construction and buys one commit — and one
unit of rollback — per batch.

Because the outcome is a function of the records in arrival order, a
durable store commits an ingest as its *input*: each ingest runs inside
:meth:`~repro.engine.store.MatchStore.ingesting`, which logs the record
it adds, and a matcher built over a store replays the logged tail
through :meth:`IncrementalMatcher._ingest_one` before it serves
(:meth:`~repro.engine.store.MatchStore.attach`).
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.schema import LEFT, RIGHT
from repro.core.semantics import ValueResolver, prefer_informative
from repro.matching.evaluate import Pair
from repro.plan.blocking import CandidateSet
from repro.plan.compile import EnforcementPlan

from .store import Node, node_of

_SIDES = {"L": LEFT, "R": RIGHT}

#: Records one ingest examines at most: the arriving one, then repaired
#: ones, each a round of the cascade (a safety valve; clean data stops
#: after the first).
MAX_CASCADE = 256


def _side_tid(node: Node) -> Tuple[int, int]:
    tag, tid = node
    return _SIDES[tag], tid


def _normalize_event(event) -> Tuple[int, Dict[str, object], Optional[int]]:
    """A stream event as ``(side, values, tid)``.

    Accepts ``(side, values)`` / ``(side, values, tid)`` tuples or objects
    with ``side``, ``values`` and optionally ``tid`` attributes, such as
    :class:`repro.datagen.streams.StreamEvent`.
    """
    if isinstance(event, tuple):
        if len(event) == 2:
            side, values = event
            return side, dict(values), None
        side, values, tid = event
        return side, dict(values), tid
    return event.side, dict(event.values), getattr(event, "tid", None)


@dataclass(frozen=True)
class IngestResult:
    """Outcome of ingesting one record.

    Attributes
    ----------
    side, tid:
        Where the record landed in the store.
    candidates:
        The pairs probed: the new record × its neighborhood, then every
        re-examined record × its neighborhood.
    matches:
        What the chases that ran found among them (a re-examination
        reports current-value matches only, and none when it was skipped
        because its chase could union nothing).
    merged:
        Whether any cluster merge happened (False for re-ingested
        duplicates that were already in the right cluster).
    cascade_truncated:
        True when the repair cascade hit :data:`MAX_CASCADE` and left some
        repaired records' neighborhoods unexamined (never on clean data).
    """

    side: int
    tid: int
    candidates: Tuple[Pair, ...]
    matches: Tuple[Pair, ...]
    merged: bool
    cascade_truncated: bool = False


@dataclass
class _MergeOutcome:
    """What one record's merge phase (the cascade loop) did to the store."""

    pairs: List[Pair]
    matches: List[Pair]
    merged: bool
    rounds: int
    truncated: bool


class IncrementalMatcher:
    """Streaming execution of a compiled plan over a warm store.

    Matching decisions use the same machinery as the batch run — the
    plan's RCKs for candidate generation and its enforcement chase for
    decisions — so a stream ingested record-by-record converges to the
    clusters :meth:`repro.api.Workspace.match` finds on the same data.
    :meth:`repro.api.Workspace.stream` builds one from a spec: ``plan`` is
    the workspace's plan, ``store`` a :class:`~repro.engine.store.MatchStore`
    or :class:`~repro.engine.sqlite.SQLiteMatchStore` configured from the
    same spec, and ``max_rounds`` its ``execution.max_rounds``: the round
    budget of every delta chase.

    >>> # matcher = workspace.stream()
    >>> # matcher.ingest(RIGHT, {"FN": "Mark", ...})
    """

    def __init__(
        self,
        plan: EnforcementPlan,
        store,
        resolver: ValueResolver = prefer_informative,
        max_rounds: int = 100,
    ) -> None:
        if not isinstance(plan, EnforcementPlan):
            raise TypeError(
                "IncrementalMatcher takes a compiled EnforcementPlan and a "
                f"store, got {type(plan).__name__}; build one from a spec "
                "with repro.api.Workspace.stream()"
            )
        if plan.target is None:
            raise ValueError("the given plan was compiled without a target")
        if store.target != plan.target:
            raise ValueError("store was built for a different target")
        self.plan = plan
        self.target = plan.target
        self.resolver = resolver
        self.max_rounds = max_rounds
        self.store = store
        #: Whether the store streams under sorted-neighborhood semantics
        #: (drives the engine.sn_* observability signals).
        self._sn_blocking = store.passes["family"] == "sorted-neighborhood"
        self._target_pairs = self.target.attribute_pairs()
        # Observability: the plan's tracer and registry (a Workspace hands
        # its own to the plan), which the delta chases record into too.
        self.tracer = plan.tracer
        self.metrics = plan.metrics
        # A durable store's committed tail is replayed through this
        # matcher's per-record ingest before it serves.
        store.attach(self._ingest_one)

    # ------------------------------------------------------------------
    # Streaming ingestion
    # ------------------------------------------------------------------

    def ingest(
        self, side: int, values: Dict[str, object], tid: Optional[int] = None
    ) -> IngestResult:
        """Ingest one record: index, probe, enforce on the delta, merge.

        When a merge changes a cluster's consensus values (see
        :meth:`_resolve_cluster`) on an attribute some rule reads, the
        repaired record's neighborhood is re-examined on current values —
        the streaming counterpart of the batch chase re-scanning its
        candidate pairs after a round of updates.  The cascade stops
        immediately when no merge repairs anything a rule can read (the
        common, clean-data case); :data:`MAX_CASCADE` bounds the number of
        re-examinations per ingest as a safety valve, and hitting it is
        reported via :attr:`IngestResult.cascade_truncated`.
        """
        # One ingest = one durable transaction (no-op for memory stores).
        with self._transaction():
            result = self._ingest_one(side, values, tid)
            self._gauge_store()
        return result

    @contextmanager
    def _transaction(self):
        """One durable transaction around the body: commit when it
        completes, roll the store back when it raises — a failed ingest
        or micro-batch leaves nothing for a later commit to persist."""
        try:
            yield
        except BaseException:
            self.store.rollback()
            raise
        self.store.commit()

    def _ingest_one(
        self, side: int, values: Dict[str, object], tid: Optional[int]
    ) -> IngestResult:
        """Add one record, run its merge phase, count it; no commit."""
        started = time.perf_counter()
        with self.tracer.span("ingest", side=side) as span, self.store.ingesting():
            chases = self.plan.stats.enforcements
            tid = self.store.add(side, values, tid=tid)
            outcome = self._merge_phase(side, tid)
            span.set("tid", tid)
            span.set("candidates", len(outcome.pairs))
            span.set("matches", len(outcome.matches))
            span.set("cascade", outcome.rounds)
            span.set("chases", self.plan.stats.enforcements - chases)
        metrics = self.metrics
        metrics.observe("engine.ingest_seconds", time.perf_counter() - started)
        metrics.count("engine.ingests")
        if outcome.merged:
            metrics.count("engine.merges")
        return IngestResult(
            side,
            tid,
            tuple(outcome.pairs),
            tuple(outcome.matches),
            outcome.merged,
            cascade_truncated=outcome.truncated,
        )

    def _merge_phase(self, side: int, tid: int) -> _MergeOutcome:
        """One record's cascade loop: probe, chase, merge, repair, repeat.

        Round 1 is the arriving record's delta (:meth:`_match_pairs`:
        arrival values, then current ones if that can add a match); every
        later round re-examines one repaired record's neighborhood on
        current values, unless that chase could union nothing
        (:meth:`_cannot_union`).
        """
        store = self.store
        read = self.plan.read_attributes
        all_pairs: List[Pair] = []
        all_matches: List[Pair] = []
        matched: Set[Pair] = set()
        merged = False
        queue = deque([(side, tid)])
        queued = {(side, tid)}
        rounds = 0
        while queue and rounds < MAX_CASCADE:
            rounds += 1
            round_side, round_tid = queue.popleft()
            queued.discard((round_side, round_tid))
            # Probed under the keys the record was indexed with (its
            # arrival values': the buckets were keyed on them).
            other_tids = store.neighbors(round_side, round_tid)
            if self._sn_blocking:
                self.metrics.count("engine.sn_probes")
            store.comparisons += len(other_tids)
            if not other_tids:
                continue
            # The pairs as the chase reads them, over the probe's list (its
            # tids ascend, each once): one run when the record is left, a
            # run of one per partner when it is right.
            if round_side == LEFT:
                delta = CandidateSet([round_tid], [0, len(other_tids)], other_tids)
            else:
                delta = CandidateSet(
                    other_tids, range(len(other_tids) + 1), [round_tid] * len(other_tids)
                )
            all_pairs.extend(delta)
            if rounds > 1 and self._cannot_union(round_side, round_tid, delta):
                self.metrics.count("engine.chases.skipped.cannot_union")
                continue
            if rounds == 1:
                found = self._match_pairs(delta)
            else:
                found = self._chase(delta, "reexamination")
            touched: List[Node] = []
            for match in found:
                if match not in matched:
                    matched.add(match)
                    all_matches.append(match)
                left_tid, right_tid = match
                left_node = node_of(LEFT, left_tid)
                if store.union(left_node, node_of(RIGHT, right_tid)):
                    merged = True
                    touched.append(left_node)
            for root in {store.find(node) for node in touched}:
                for record, cells in self._resolve_cluster(root).items():
                    if read[record[0]].isdisjoint(cells):
                        # Written, but where no rule reads: no verdict
                        # can change, nothing to re-examine.
                        self.metrics.count("engine.chases.skipped.unread_repair")
                        continue
                    if record not in queued:
                        queue.append(record)
                        queued.add(record)
        return _MergeOutcome(
            pairs=all_pairs,
            matches=all_matches,
            merged=merged,
            rounds=rounds,
            truncated=bool(queue),
        )

    def _gauge_store(self) -> None:
        """Store growth as gauges: index/cluster size over the stream."""
        store = self.store
        metrics = self.metrics
        metrics.gauge("engine.left_rows", len(store.left))
        metrics.gauge("engine.right_rows", len(store.right))
        if self._sn_blocking:
            # Live block-run count: how far the window chain is split
            # (counted per pass, never by scanning the runs).
            metrics.gauge("engine.sn_blocks", store.blocking.block_count())

    def ingest_stream(self, events: Iterable) -> List[IngestResult]:
        """Ingest a sequence of events in arrival order.

        Events are ``(side, values)`` tuples or objects with ``side``,
        ``values`` and (optionally) ``tid`` attributes, such as
        :class:`repro.datagen.streams.StreamEvent`.
        """
        results: List[IngestResult] = []
        for event in events:
            side, values, tid = _normalize_event(event)
            results.append(self.ingest(side, values, tid=tid))
        return results

    def ingest_batch(self, events: Iterable) -> List[IngestResult]:
        """Ingest a micro-batch: :meth:`ingest` per event, one commit.

        Each event runs the exact per-record ingest, in order, so the
        per-event results, the final store, the ``comparisons`` /
        ``merges`` counters and the chases run are those of
        :meth:`ingest_stream` over the same events by construction
        (``tests/serve/test_batch_invariance.py`` and the service
        differential suite pin it).  What the batch amortises is the
        durable transaction: one ``commit()`` covers the whole batch, so a
        crash re-presents the batch as a unit instead of splitting it, and
        a batch that raises is rolled back as a unit.
        """
        normalized = [_normalize_event(event) for event in events]
        if not normalized:
            return []
        metrics = self.metrics
        started = time.perf_counter()
        with self._transaction(), self.tracer.span("ingest_batch", size=len(normalized)):
            results = [
                self._ingest_one(side, values, tid) for side, values, tid in normalized
            ]
            metrics.observe("engine.batch_seconds", time.perf_counter() - started)
            metrics.count("engine.batches")
            metrics.observe("engine.batch_size", len(results))
            self._gauge_store()
        return results

    # ------------------------------------------------------------------
    # Delta enforcement
    # ------------------------------------------------------------------

    def _match_pairs(self, delta: CandidateSet) -> List[Pair]:
        """Decide an arriving delta by local enforcement; no store side effects.

        Every pair is chased over the involved records' *arrival* values —
        the batch chase evaluates every candidate pair on pristine values
        in its first round, and this keeps that guarantee under streaming
        (a consensus repair can never destroy evidence two records arrived
        with).  A second chase over the *current* values adds the matches
        that only repairs enable — the streaming analogue of the batch
        chase's later rounds — and runs only when it can add one: some
        involved record was repaired where a rule reads
        (:meth:`_any_repaired`; on equal read values the two chases
        identify the same cells) and the first chase left a pair
        undecided (:meth:`_all_matched`).
        """
        matches = self._chase(delta, "arrival")
        if self._any_repaired(delta):
            if self._all_matched(delta, matches):
                self.metrics.count("engine.chases.skipped.all_matched")
            else:
                for match in self._chase(delta, "current"):
                    if match not in matches:
                        matches.append(match)
        return matches

    # The three exact skips: each answers "can this chase add anything?"
    # from state the engine already holds, and the store ends up the same
    # whatever they answer (tests/engine/test_chase_pruning.py forces
    # each to "run it anyway" and compares).

    def _any_repaired(self, delta: CandidateSet) -> bool:
        """Whether a consensus repair moved any record the delta involves
        off its arrival values on an attribute some rule reads (the store
        compares the two rows in place)."""
        read = self.plan.read_attributes
        is_repaired = self.store.is_repaired
        return any(
            is_repaired(side, tid, read[side])
            for side, tids in ((LEFT, delta.lefts), (RIGHT, set(delta.rights)))
            for tid in tids
        )

    @staticmethod
    def _all_matched(delta: CandidateSet, matches: Sequence[Pair]) -> bool:
        """Whether a chase matched every pair of its delta (both hold
        each pair once): no further chase of these pairs can add one."""
        return len(matches) == len(delta)

    def _cannot_union(self, side: int, tid: int, delta: CandidateSet) -> bool:
        """Whether a chase of record ``(side, tid)``'s re-examined pairs
        can union nothing, read off current values: (b) every pair inside
        its cluster carries equal values (``==``) on every rule's RHS
        pairs, and (a) no rule's LHS holds on a pair leaving it.

        Under (b) round 1's unions all merge agreeing classes, which
        resolve to nothing: no cell changes, so no round 2.  Under (a)
        round 1 fires only pairs inside the cluster, where every match
        is refused by ``store.union``.  With no pair leaving the cluster
        (a) holds outright.
        """
        store, plan = self.store, self.plan
        members = store.cluster_nodes(side, tid)
        record = store.relation(side)[tid]
        other, other_tids = (RIGHT, delta.rights) if side == LEFT else (LEFT, delta.lefts)
        others = store.relation(other)
        leaving = []
        for other_tid in other_tids:
            row = others[other_tid]
            t1, t2 = (record, row) if side == LEFT else (row, record)
            if node_of(other, other_tid) not in members:
                leaving.append((t1, t2))
            elif any(t1[left] != t2[right] for left, right in plan.rhs_pairs):
                return False
        return not any(
            plan.key_matches(rule.lhs, t1, t2)
            for t1, t2 in leaving
            for rule in plan.rules
        )

    def _chase(self, delta: CandidateSet, kind: str) -> List[Pair]:
        """One enforcement chase over the delta, read off the store.

        ``kind`` names who asked and thereby the values read: an
        ``"arrival"`` chase reads the records as ingested; a
        ``"current"`` chase (an arriving delta's second) and a
        ``"reexamination"`` (a repaired record's neighborhood, chased
        again) read the current values.  The instance is the store's own
        (:attr:`~repro.engine.store.MatchStore.instances`, taken per chase:
        a durable store's rollback replaces it) and the kernel projects
        only the tuples occurring in ``delta``, so nothing is copied or
        rescanned: the cost is bounded by the delta.  A pair matches
        when the chase identified all target cells, exactly the batch
        matcher's decision rule: both run
        :meth:`EnforcementPlan.enforce` on the same compiled rules, and
        the plan's similarity cache persists across ingests (a stream of
        near-duplicates keeps hitting it).
        """
        self.metrics.count("engine.chases." + kind)
        result = self.plan.enforce(
            self.store.instances[kind == "arrival"],
            resolver=self.resolver,
            candidate_pairs=delta,
            max_rounds=self.max_rounds,
        )
        return result.matches(self._target_pairs)

    def _resolve_cluster(self, node: Node) -> Dict[Tuple[int, int], Dict[str, object]]:
        """Re-resolve a cluster's target values to the member consensus.

        For every identified attribute pair, the resolver picks one value
        from the *arrival* values of all cluster members, and that
        consensus becomes every member's current value — the streaming
        analogue of the batch chase resolving each merged cell class.
        Resolving from arrival values keeps the outcome independent of
        arrival order (the same member multiset always yields the same
        consensus, where chaining pairwise repairs would not).  Each
        member's rows are read once, each changed record written once.

        Returns ``{(side, tid): {attribute: value}}`` — per record whose
        current values changed the cells that moved, records in the order
        their first cell changed (the order the caller re-examines in).
        """
        store = self.store
        members = store.cluster_nodes(*_side_tid(node))
        if len(members) < 2:
            return {}
        records = sorted(_side_tid(member) for member in members)
        arrivals = [store.arrival_row(side, tid) for side, tid in records]
        currents = [store.relation(side)[tid] for side, tid in records]
        changes: List[Dict[str, object]] = [{} for _ in records]
        changed: List[int] = []
        for target_pair in self._target_pairs:
            names = [target_pair[side] for side, _ in records]
            resolved = self.resolver(
                [row[name] for row, name in zip(arrivals, names)]
            )
            for position, (row, name) in enumerate(zip(currents, names)):
                change = changes[position]
                if change.get(name, row[name]) != resolved:
                    if not change:
                        changed.append(position)
                    change[name] = resolved
        for position in changed:
            store.repair(*records[position], changes[position])
        return {records[position]: changes[position] for position in changed}
