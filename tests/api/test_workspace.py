"""Workspace: one compile, agreeing execution modes, fingerprinted stores,
and pins that the pre-1.1 entry points are gone."""

import gc
import importlib
import weakref
from array import array

import pytest

from repro.api import SpecBuilder, SpecError, Workspace
from repro.core.schema import LEFT, RIGHT
from repro.datagen.generator import figure1_instances
from repro.datagen.schemas import paper_mds, paper_target
from repro.engine import SQLiteMatchStore, save_store
from repro.relations.relation import Relation


@pytest.fixture
def fig1_workspace():
    pair, credit, billing = figure1_instances()
    workspace = (
        Workspace.builder()
        .pair(pair)
        .target(paper_target(pair))
        .mds(paper_mds(pair))
        .execution(mode="enforce")
        .workspace()
    )
    return workspace, credit, billing


def fig1_events(credit, billing):
    return [(LEFT, row.values()) for row in credit] + [
        (RIGHT, row.values()) for row in billing
    ]


class TestSingleCompile:
    def test_plan_compiled_exactly_once_across_modes(self, fig1_workspace, monkeypatch):
        import repro.api.workspace as workspace_module

        workspace, credit, billing = fig1_workspace
        calls = []
        real_compile = workspace_module.compile_plan

        def counting_compile(*args, **kwargs):
            calls.append(1)
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(workspace_module, "compile_plan", counting_compile)
        workspace.deduce()
        report = workspace.match(credit, billing)
        matcher = workspace.stream()
        matcher.ingest_stream(fig1_events(credit, billing))
        workspace.explain()
        assert len(calls) == 1
        # ... and the plan's own counter agrees, before and after reuse.
        assert report.stats["compiles"] == 1
        assert workspace.plan.stats.compiles == 1
        assert matcher.plan is workspace.plan

    def test_report_carries_fingerprint_and_mode(self, fig1_workspace):
        workspace, credit, billing = fig1_workspace
        report = workspace.match(credit, billing)
        assert report.fingerprint == workspace.fingerprint
        assert report.mode == "enforce"
        document = report.to_dict()
        assert document["spec_fingerprint"] == workspace.fingerprint
        assert document["matches"]

    def test_the_candidate_list_is_held_once(self, fig1_workspace, monkeypatch):
        """``match`` makes one candidate set of the pairs handed in; the
        chase and the report hold that set, not copies of it."""
        workspace, credit, billing = fig1_workspace
        plan = workspace.plan
        chased = []
        enforce = plan.enforce

        def keep(instance, **options):
            result = enforce(instance, **options)
            chased.append((options["candidate_pairs"], result.pairs))
            return result

        monkeypatch.setattr(plan, "enforce", keep)
        report = workspace.match(credit, billing, candidates=[(0, 0), (0, 1)])
        (handed, held), = chased
        assert tuple(report.candidates) == ((0, 0), (0, 1))
        assert handed is held is report.candidates

    @pytest.mark.parametrize("offset", [2**31, -(2**31) - 5, 2**70])
    def test_tids_beyond_a_c_int_match_as_small_ones_do(self, fig1_workspace, offset):
        """A tid outside a C int (an external record id, say) widens the
        candidate set's columns instead of overflowing them: blocked or
        handed in, the match is the small-tid one's, shifted."""
        workspace, credit, billing = fig1_workspace

        def shifted(relation):
            copy = Relation(relation.schema)
            for row in relation:
                copy.insert(row.values(), tid=row.tid + offset)
            return copy

        def shift(pairs):
            return [(left + offset, right + offset) for left, right in pairs]

        wide_credit, wide_billing = shifted(credit), shifted(billing)
        blocked = workspace.match(credit, billing)
        assert blocked.matches
        report = workspace.match(wide_credit, wide_billing)
        assert list(report.candidates) == shift(blocked.candidates)
        assert list(report.matches) == shift(blocked.matches)
        everything = [(left, right) for left in credit.tids() for right in billing.tids()]
        handed = workspace.match(credit, billing, candidates=everything)
        report = workspace.match(wide_credit, wide_billing, candidates=shift(everything))
        assert list(report.matches) == shift(handed.matches)


    def test_the_chase_result_is_let_go_before_clustering(
        self, fig1_workspace, monkeypatch
    ):
        """Matches and provenance are read off the chase's result, then it
        is dropped — its classes, working values and stability state are
        freed by their reference counts (the collector is off, as in
        ``repro match``) before ``cluster_matches`` runs."""
        import repro.api.workspace as workspace_module

        workspace, credit, billing = fig1_workspace
        plan = workspace.plan
        results = []
        enforce = plan.enforce

        def watch(instance, **options):
            result = enforce(instance, **options)
            results.append(weakref.ref(result))
            return result

        alive = []
        cluster = workspace_module.cluster_matches

        def clustering(matches):
            alive.extend(result() is not None for result in results)
            return cluster(matches)

        monkeypatch.setattr(plan, "enforce", watch)
        monkeypatch.setattr(workspace_module, "cluster_matches", clustering)
        enabled = gc.isenabled()
        gc.disable()
        try:
            report = workspace.match(credit, billing)
        finally:
            if enabled:
                gc.enable()
        assert alive == [False]
        assert report.matches and report.provenance


class TestModesAgree:
    def test_batch_stream_and_enforce_agree_from_one_spec(self, fig1_workspace):
        workspace, credit, billing = fig1_workspace
        batch = workspace.match(credit, billing)

        matcher = workspace.stream()
        matcher.ingest_stream(fig1_events(credit, billing))
        streamed = {
            pair
            for cluster in matcher.store.clusters()
            for pair in cluster.implied_pairs()
        }
        assert set(batch.matches) == streamed

    @pytest.mark.parametrize("seed", (42, 3))
    @pytest.mark.parametrize("mode", ("enforce", "direct"))
    def test_modes_agree_on_generated_stream(self, mode, seed):
        """Under either mode a stream chases the rules a batch match runs
        (under ``direct``, the keys as MDs), so both end in one set of
        clusters.  Seed 3 under ``direct`` streamed clusters the
        row-by-row key matcher never formed."""
        from repro.datagen.generator import generate_dataset
        from repro.datagen.schemas import extended_mds
        from repro.datagen.streams import duplicate_burst_stream

        dataset = generate_dataset(300, seed=seed)
        workspace = (
            SpecBuilder()
            .pair(dataset.pair)
            .target(dataset.target)
            .mds(extended_mds(dataset.pair))
            .execution(mode=mode)
            .workspace()
        )
        matcher = workspace.stream()
        matcher.ingest_stream(duplicate_burst_stream(dataset, seed=5).events)
        streamed = {
            (cluster.left_tids, cluster.right_tids)
            for cluster in matcher.store.clusters()
        }

        candidates = matcher.store.blocking.candidates(
            dataset.credit, dataset.billing
        )
        report = workspace.match(
            dataset.credit, dataset.billing, candidates=candidates
        )
        batch = {
            (cluster.left_tids, cluster.right_tids)
            for cluster in report.clusters
        }
        assert streamed == batch

    def test_pinned_keys_without_mds_match_what_direct_matches(
        self, small_dataset
    ):
        """An ``enforce`` spec with no MDs chases its pinned keys: it
        matches what the same keys match under ``direct``, not nothing."""
        from repro.datagen.schemas import extended_mds

        dataset = small_dataset
        direct = (
            SpecBuilder()
            .pair(dataset.pair)
            .target(dataset.target)
            .mds(extended_mds(dataset.pair))
            .execution(mode="direct")
            .workspace()
        )
        keys = direct.deduce()
        assert len(keys) == 5
        keys_only = (
            SpecBuilder()
            .pair(dataset.pair)
            .target(dataset.target)
            .mds([])
            .rcks(keys)
            .execution(mode="enforce")
            .workspace()
        )
        candidates = direct.candidates(dataset.credit, dataset.billing)
        assert keys_only.candidates(dataset.credit, dataset.billing) == candidates
        expected = direct.match(dataset.credit, dataset.billing, candidates)
        report = keys_only.match(dataset.credit, dataset.billing, candidates)
        assert len(expected.matches) > 250
        assert report.matches == expected.matches
        assert [rule.name for rule in keys_only.plan.rules] == [
            rule.name for rule in direct.plan.rules
        ]

    def test_direct_mode_provenance_names_keys(self, fig1_workspace):
        workspace, credit, billing = fig1_workspace
        direct = Workspace.from_dict(
            {
                **workspace.spec.to_dict(),
                "execution": {
                    **workspace.spec.to_dict()["execution"],
                    "mode": "direct",
                },
            }
        )
        report = direct.match(credit, billing)
        assert report.mode == "direct"
        for pair in report.matches:
            assert report.provenance[pair]
            assert all(name.startswith("rck") for name in report.provenance[pair])

    def test_enforcement_beats_direct_rules_on_fig1(
        self, workspace_for, sigma, target
    ):
        """Enforcement finds matches single-rule application cannot.

        With only ϕ1 (the given matching key) as a *direct* rule, t1–t4
        is unmatchable; enforcement of Σc = {ϕ1, ϕ2, ϕ3} first equalizes
        addresses/names through ϕ2/ϕ3 and then fires ϕ1 — one rule set,
        two execution modes.
        """
        from repro.core.rck import RelativeKey

        _, credit, billing = figure1_instances()
        phi1_as_key = RelativeKey.from_triples(
            target,
            [("LN", "LN", "="), ("addr", "post", "="), ("FN", "FN", "dl(0.8)")],
        )
        matches = {
            mode: workspace_for(
                target, sigma, rcks=[phi1_as_key], execution={"mode": mode}
            ).match(credit, billing, candidates=[(0, 1)]).matches
            for mode in ("direct", "enforce")
        }
        assert matches == {"direct": (), "enforce": ((0, 1),)}

    def test_enforce_mode_provenance_names_rules(self, fig1_workspace):
        workspace, credit, billing = fig1_workspace
        report = workspace.match(credit, billing)
        assert any(
            name.startswith("md")
            for pair in report.matches
            for name in report.provenance[pair]
        )

    def test_a_pair_listed_twice_names_the_rules_of_both_positions(
        self, monkeypatch
    ):
        """Provenance is per pair: a pair the candidate list holds twice is
        reported at both positions, each naming the rules of the mask the
        chase holds there, in declared rule order.  A real chase gives one
        pair's positions one mask, and ``Provenance`` names that mask; the
        masks are crafted here (``md0`` and ``md2`` where the chase holds
        all three) so that a report not reading them fails."""
        workspace = (
            Workspace.builder()
            .schema("R", ["A", "B"], "S", ["A", "B"])
            .target(["A"], ["A"])
            .mds([
                "R[B] = S[B] -> R[A] <=> S[A]",
                "R[A] = S[A] -> R[B] <=> S[B]",
                "R[B] = S[B] -> R[B] <=> S[B]",
            ])
            .workspace()
        )
        plan = workspace.plan
        left = Relation(plan.pair.left, [{"A": "a", "B": "b"}])
        right = Relation(plan.pair.right, [{"A": "a", "B": "b"}, {"A": "x", "B": "y"}])
        enforce = plan.enforce

        def crafted(*args, **kwargs):
            result = enforce(*args, **kwargs)
            # The list is chased sorted: positions 0 and 1 are (0, 0).
            assert list(result.pairs) == [(0, 0), (0, 0), (0, 1)]
            assert list(result.holding_masks) == [0b111, 0b111, 0]
            result.__dict__["holding_masks"] = array("B", [0b101, 0b101, 0])
            return result

        monkeypatch.setattr(plan, "enforce", crafted)
        report = workspace.match(left, right, candidates=[(0, 0), (0, 1), (0, 0)])
        assert report.matches == ((0, 0), (0, 0))
        assert report.provenance == {(0, 0): ("md0", "md2")}
        assert report.to_dict()["provenance"] == [
            {"pair": [0, 0], "rules": ["md0", "md2"]}
        ] * 2


class TestSelfMatch:
    def test_one_relation_on_both_sides_is_refused(self, self_pair):
        """Matching a relation against itself is the relation and its
        copy: one ``Relation`` object on both sides is refused, naming
        that route."""
        workspace = (
            Workspace.builder()
            .pair(self_pair)
            .target(["A", "B"], ["A", "B"])
            .mds("R[A] = R[A] -> R[A] <=> R[A] & R[B] <=> R[B]")
            .workspace()
        )
        relation = Relation(self_pair.left, [{"A": "a", "B": "b", "C": "c"}])
        with pytest.raises(ValueError, match=r"relation\.copy\(\)"):
            workspace.match(relation, relation)


class TestValuePolicies:
    def test_policy_changes_resolved_values(self, fig1_workspace):
        workspace, credit, billing = fig1_workspace
        spec_doc = workspace.spec.to_dict()
        spec_doc["resolution"] = {"policy": "lexicographic-min"}
        lexical = Workspace.from_dict(spec_doc)
        assert lexical.spec.resolver()(["b", None, "a"]) == "a"
        # Different policy, different fingerprint — stores can't mix.
        assert lexical.fingerprint != workspace.fingerprint


class TestSnapshotFingerprint:
    def test_stream_restore_same_spec_roundtrips(self, fig1_workspace, tmp_path):
        workspace, credit, billing = fig1_workspace
        matcher = workspace.stream()
        matcher.ingest_stream(fig1_events(credit, billing))
        path = tmp_path / "store.db"
        save_store(matcher.store, path)

        restored = SQLiteMatchStore(path)
        assert restored.spec_fingerprint == workspace.fingerprint
        resumed = workspace.stream(store=restored)
        assert resumed.store.clusters() == matcher.store.clusters()
        restored.close()

    def test_stream_rejects_store_from_other_spec(self, fig1_workspace, tmp_path):
        workspace, credit, billing = fig1_workspace
        matcher = workspace.stream()
        matcher.ingest_stream(fig1_events(credit, billing))
        path = tmp_path / "store.db"
        save_store(matcher.store, path)

        other_doc = workspace.spec.to_dict()
        other_doc["rules"]["top_k"] = 2
        other = Workspace.from_dict(other_doc)
        with SQLiteMatchStore(path) as restored:
            with pytest.raises(SpecError, match="built from spec"):
                other.stream(store=restored)

    def test_legacy_store_is_stamped_on_first_use(self, fig1_workspace, tmp_path):
        workspace, credit, billing = fig1_workspace
        matcher = workspace.stream()
        matcher.ingest_stream(fig1_events(credit, billing))
        matcher.store.spec_fingerprint = None  # as built outside the spec API
        path = tmp_path / "store.db"
        save_store(matcher.store, path)

        restored = SQLiteMatchStore(path)
        assert restored.spec_fingerprint is None
        resumed = workspace.stream(store=restored)
        assert resumed.store.spec_fingerprint == workspace.fingerprint
        restored.close()
        # ... and the stamp was committed with the store.
        with SQLiteMatchStore(path) as reopened:
            assert reopened.spec_fingerprint == workspace.fingerprint


class TestRemovedEntryPoints:
    """2.0 removed the pre-1.1 surface: ``Workspace`` is the only way in."""

    @pytest.mark.parametrize(
        "module",
        [
            "repro.matching.pipeline",
            "repro.matching.blocking",
            "repro.matching.windowing",
            "repro.engine.indexes",
        ],
    )
    def test_shim_modules_are_gone(self, module):
        with pytest.raises(ImportError):
            importlib.import_module(module)

    def test_incremental_matcher_takes_a_plan_not_raw_mds(
        self, fig1_workspace, sigma, target
    ):
        from repro.engine import IncrementalMatcher

        with pytest.raises(TypeError, match="Workspace.stream"):
            IncrementalMatcher(sigma, target)
        workspace, _, _ = fig1_workspace
        with pytest.raises(TypeError):
            IncrementalMatcher(workspace.plan, top_k=5)

    @pytest.mark.parametrize("knob", ["tracer", "metrics"])
    def test_incremental_matcher_records_into_its_plans_tracer_and_registry(
        self, fig1_workspace, knob
    ):
        """A matcher has no tracer or registry of its own: one passed in
        would have replaced the shared plan's, and the workspace's batch
        runs would have recorded into it."""
        from repro.engine import IncrementalMatcher, MatchStore

        workspace, _, _ = fig1_workspace
        plan = workspace.plan
        store = MatchStore(plan.target, plan.blocking)
        with pytest.raises(TypeError, match=knob):
            IncrementalMatcher(plan, store, **{knob: None})
        matcher = IncrementalMatcher(plan, store)
        assert matcher.tracer is plan.tracer is workspace.tracer
        assert matcher.metrics is plan.metrics is workspace.metrics


class TestRetiredTuning:
    """11.0 retired the similarity-memo switches, the cascade option and
    the JSONL trace format, and every name that carried them."""

    @pytest.mark.parametrize("keyword, value", [("cached", False), ("cache_limit", 4)])
    def test_compile_plan_takes_no_memo_switch(self, sigma, target, keyword, value):
        from repro.plan.compile import compile_plan

        with pytest.raises(TypeError, match=keyword):
            compile_plan(sigma, target, **{keyword: value})

    def test_incremental_matcher_takes_no_cascade_bound(self, fig1_workspace):
        from repro.engine import IncrementalMatcher, MatchStore

        workspace, _, _ = fig1_workspace
        plan = workspace.plan
        with pytest.raises(TypeError, match="max_cascade"):
            IncrementalMatcher(plan, MatchStore(plan.target, plan.blocking), max_cascade=1)

    def test_write_trace_takes_no_format(self, tmp_path):
        from repro.obs import Tracer, write_trace

        with pytest.raises(TypeError, match="format"):
            write_trace(Tracer(), tmp_path / "trace.json", format="chrome")
        assert not (tmp_path / "trace.json").exists()

    @pytest.mark.parametrize(
        "owner, name",
        [
            ("plan", "cached"),
            ("plan", "cache_limit"),
            ("plan", "clear_cache"),
            ("matcher", "max_cascade"),
            ("repro.obs", "TRACE_FORMATS"),
            ("repro.obs.export", "TRACE_FORMATS"),
            ("repro.plan.sn_index:WindowedSNIndex", "largest_block"),
        ],
    )
    def test_a_retired_name_is_gone(self, fig1_workspace, owner, name):
        workspace, _, _ = fig1_workspace
        if owner == "plan":
            holder = workspace.plan
        elif owner == "matcher":
            holder = workspace.stream()
        else:
            module, _, attribute = owner.partition(":")
            holder = importlib.import_module(module)
            if attribute:
                holder = getattr(holder, attribute)
        assert not hasattr(holder, name)

    def test_explain_header_names_no_cache_switch(self, fig1_workspace):
        workspace, _, _ = fig1_workspace
        spec = workspace.spec
        assert workspace.explain().splitlines()[1] == (
            f"# execution: mode={spec.mode}, policy={spec.policy}, "
            f"top_k={spec.top_k}"
        )
