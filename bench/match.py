"""``match_dense`` and ``match_sparse``: ``repro match`` as a child process.

End to end the program is the CLI — process start to exit, interpreter
start-up included, because users pay it.  The traced pass replays the
sequence ``cmd_match`` performs (load spec, compile, load CSVs, block,
enforce, report, render JSON) in this process with a span around each
call, so the layers can be summed against the CLI wall.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import inputs
from .common import (
    ChildResult,
    cluster_keys,
    clusters_digest,
    expected_digest,
    implied_pairs,
    pair_f1,
    percentile,
    run_child,
)
from .hostspeed import AsMeasured, HostSpeed
from .result import Measure, PassResult, median_of, uncompensated
from .trace import Recorder

#: The replayed stages, in ``cmd_match`` order; their times plus
#: ``cli.startup_s`` are what ``cli.attribution_gap_frac`` sums.
STAGES = (
    "api.spec.load_validate",
    "api.workspace.compile",
    "relations.csvio.load",
    "plan.blocking.candidates",
    "api.workspace.match",
    "api.report.to_json",
    "cli.write",
)

#: Spans whose summed duration is the metric ``<span>_s``: the replayed
#: stages that are one layer each, and the three shadowed callables.
TIMED_SPANS = (
    "relations.csvio.load",
    "api.spec.load_validate",
    "api.workspace.compile",
    "core.findrcks.deduce",
    "matching.clustering.cluster",
    "api.report.to_json",
    "plan.blocking.candidates",
    "plan.executor.enforce",
)

#: Metric -> the program's own span whose self time it is.
PROGRAM_SPANS = {
    "plan.factorise.build_s": "repro:factorise",
    "plan.executor.chase_round_s": "repro:chase-round",
    "plan.executor.resolve_merged_s": "repro:resolve-merged",
    "plan.executor.stability_s": "repro:stability-check",
}

DL_OPERATOR = "dl(0.8)"
DL_SAMPLE = 20000
DL_CHUNK = 1000


class MatchWorkload:
    def __init__(self, name: str, seed: int, seconds: float, tiny: bool, workdir: Path,
                 host: HostSpeed):
        self.name = name
        self.host = host
        #: The set-up runs in this process.
        self.setup_timeline = host.local
        self.seed = seed
        self.tiny = tiny
        self.config = inputs.sizes(tiny)[name]
        self.repeats = inputs.repeats_for(self.config, seconds, tiny)
        self.dir = workdir / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.spec_path = self.dir / "spec.json"
        self.traced_spec_path = self.dir / "spec_traced.json"
        self.left_path = self.dir / "credit.csv"
        self.right_path = self.dir / "billing.csv"
        self.runs: List[Dict[str, object]] = []
        self.last_report: Optional[Dict[str, object]] = None

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        """Generate the instance pair from the seed and hand it over as
        files: a spec and two CSVs (plus the spec copy with the program's
        own spans switched on, for the traced pass)."""
        from repro.relations.csvio import save_relation

        source = inputs.dataset(self.config["K"], self.seed)
        blocking = self.config["blocking"]
        inputs.build_spec(source, blocking).save(self.spec_path)
        inputs.build_spec(source, blocking, traced=True).save(self.traced_spec_path)
        save_relation(source.credit, self.left_path)
        save_relation(source.billing, self.right_path)
        self.truth = set(source.true_matches)
        self.rows = len(source.credit) + len(source.billing)
        self.total_pairs = source.total_pairs

    def close(self) -> None:
        pass

    # -- end-to-end pass -------------------------------------------------

    def _cli(self, tag: str, cpu: Optional[int] = None) -> ChildResult:
        """One CLI run, on the program CPU unless told otherwise."""
        argv = [
            sys.executable, "-m", "repro", "match",
            "--spec", str(self.spec_path),
            "--left", str(self.left_path),
            "--right", str(self.right_path),
            "--json",
        ]
        return run_child(
            argv, self.dir / f"out_{tag}.json",
            self.host.program_cpu if cpu is None else cpu,
        )

    def warmup(self) -> None:
        self._cli("warmup")

    def repeat(self, index: int) -> None:
        child = self._cli(f"r{index}")
        run: Dict[str, object] = {
            "repeat": index, "wall_s": child.wall, "started": child.started,
            "rss_mb": child.rss_mb,
            "returncode": child.returncode, "problem": None,
        }
        # Checking happens after the clock stopped.
        if child.returncode != 0:
            run["problem"] = f"exit code {child.returncode}"
        else:
            try:
                report = json.loads(child.stdout)
                keys = cluster_keys(report["clusters"])
                run.update(
                    matches=len(report["matches"]),
                    fingerprint=report["spec_fingerprint"],
                    digest=clusters_digest(keys),
                    stdout_bytes=len(child.stdout),
                )
                if report["stats"].get("rounds_exhausted", 0):
                    run["problem"] = "rounds_exhausted"
                self.last_report = report
            except (ValueError, KeyError, TypeError) as error:
                run["problem"] = f"unreadable report: {error!r}"
        self.runs.append(run)

    def _timings(self, timeline) -> Dict[str, Measure]:
        """Each CLI wall is divided by the slowdown of the child's CPU
        while it ran."""
        walls = [
            run["wall_s"] / timeline.slowdown(run["started"], run["started"] + run["wall_s"])
            for run in self.runs
        ]
        wall_ms = [wall * 1000.0 for wall in walls]
        return {
            "records_per_s": Measure(
                self.rows / median_of(walls).value, [self.rows / w for w in walls]
            ),
            "latency_p50_ms": Measure(percentile(wall_ms, 50), wall_ms),
            # A percentile needs ten samples beyond it; a handful of CLI
            # runs supports none above the median, and "close to the
            # slowest run" would gate on this host's bursts.
            "latency_p95_ms": Measure(
                percentile(wall_ms, 50), wall_ms,
                note=f"{len(wall_ms)} CLI runs support no percentile above the median",
            ),
        }

    def finish(self) -> PassResult:
        problems = [
            f"repeat {run['repeat']}: {run['problem']}"
            for run in self.runs if run["problem"]
        ]
        good = [run for run in self.runs if not run["problem"]]
        for field in ("matches", "fingerprint", "digest"):
            if len({run[field] for run in good}) > 1:
                problems.append(f"{field} differs across repeats")
        f1 = 0.0
        if self.last_report is not None:
            keys = cluster_keys(self.last_report["clusters"])
            matches = {tuple(pair) for pair in self.last_report["matches"]}
            f1 = pair_f1(matches, self.truth)
            if implied_pairs(keys) < matches:
                problems.append("clusters do not cover the reported matches")
            pinned = expected_digest(self.name, self.seed, self.tiny)
            if pinned is not None and good and good[-1]["digest"] != pinned:
                problems.append(
                    f"cluster digest {good[-1]['digest'][:12]} != pinned {pinned[:12]}"
                )
        metrics = {
            **self._timings(self.host.program),
            "peak_rss_mb": Measure(
                max(run["rss_mb"] for run in self.runs),
                [run["rss_mb"] for run in self.runs],
            ),
            "f1": Measure(f1),
        }
        return PassResult(
            metrics, attempted=len(self.runs),
            failed_ops=sum(1 for run in self.runs if run["problem"]), problems=problems,
            raw={
                "runs": self.runs, "rows": self.rows,
                "cluster_digest": good[-1]["digest"] if good else None,
                "uncompensated": uncompensated(self._timings(AsMeasured)),
            },
        )

    # -- traced pass -----------------------------------------------------

    def _replay(self, recorder: Recorder, traced: bool):
        """The ``cmd_match`` sequence in this process, a span per stage.

        ``traced`` adds what costs something: wrappers on the nested
        public callables and the program's own ``observability`` spans.
        """
        import repro.api.workspace as workspace_module
        from contextlib import ExitStack

        from repro.api import ResolutionSpec, Workspace
        from repro.relations.csvio import load_relation

        with recorder.span("run"), ExitStack() as wrappers:
            with recorder.span("api.spec.load_validate"):
                spec = ResolutionSpec.from_file(
                    self.traced_spec_path if traced else self.spec_path
                )
                spec.fingerprint()
            workspace = Workspace(spec)
            if traced:
                wrappers.enter_context(recorder.wrap(
                    workspace_module, "find_rcks", "core.findrcks.deduce"))
                wrappers.enter_context(recorder.wrap(
                    workspace_module, "cluster_matches", "matching.clustering.cluster"))
            with recorder.span("api.workspace.compile"):
                plan = workspace.plan
            if traced:
                wrappers.enter_context(
                    recorder.wrap(plan, "enforce", "plan.executor.enforce"))
            with recorder.span("relations.csvio.load"):
                left = load_relation(plan.pair.left, self.left_path)
                right = load_relation(plan.pair.right, self.right_path)
            with recorder.span("plan.blocking.candidates"):
                candidates = workspace.candidates(left, right)
            with recorder.span("api.workspace.match"):
                report = workspace.match(left, right, candidates=candidates)
            with recorder.span("api.report.to_json"):
                text = json.dumps(report.to_dict(), sort_keys=True)
            with recorder.span("cli.write"):
                (self.dir / "out_replay.json").write_text(text + "\n", encoding="utf-8")
        return workspace, left, right, candidates, report

    def _probe(self, knob: str, value, left, right, candidates, reference):
        """Enforce again with one existing ``execution`` knob flipped.

        Returns ``(seconds, plan stats, note)``; seconds is ``None`` with
        the reason in the note once a later change removed the knob.
        """
        from repro.api import ResolutionSpec, Workspace
        from repro.api.spec import SpecError

        document = json.loads(self.spec_path.read_text(encoding="utf-8"))
        document.setdefault("execution", {})[knob] = value
        try:
            workspace = Workspace(ResolutionSpec.from_dict(document))
        except SpecError as error:
            return None, None, f"execution.{knob} is gone: {error.errors[0]}"
        recorder = Recorder(self.name)
        plan = workspace.plan
        # ``workers=2`` forks a multiprocessing pool from this process, and
        # the pool ends its workers with SIGTERM, expecting them to die at
        # once.  With the benchmark's handler inherited they unwind instead,
        # and one was seen waiting for a lock for ever while Pool.terminate
        # waited for it; so the probe runs under the default disposition,
        # as the program's own CLI would.  Only the host-speed sampler is
        # alive here, and it ends itself once the benchmark is gone.
        handler = signal.signal(signal.SIGTERM, signal.SIG_DFL)
        try:
            # Unpinned: a parallel strategy is judged on both CPUs.
            with self.host.unpinned(), recorder.wrap(plan, "enforce", "enforce"):
                report = workspace.match(left, right, candidates=candidates)
        finally:
            signal.signal(signal.SIGTERM, handler)
        note = None
        if set(report.matches) != set(reference.matches):
            note = f"execution.{knob}={value!r} changed the matches"
        return recorder.total("enforce"), plan.stats, note

    def _dl_call_us(self, left, right, candidates) -> Measure:
        """Median µs per ``dl(0.8)`` call on value pairs the chase sees."""
        from repro.metrics.registry import default_registry

        predicate = default_registry().resolve(DL_OPERATOR)
        rng = random.Random(self.seed)
        sample = rng.sample(candidates, min(DL_SAMPLE, len(candidates)))
        values = [(left[l]["FN"], right[r]["FN"]) for l, r in sample]
        per_call = []
        for start in range(0, len(values), DL_CHUNK):
            chunk = values[start:start + DL_CHUNK]
            began = time.perf_counter()
            for a, b in chunk:
                predicate(a, b)
            per_call.append((time.perf_counter() - began) / len(chunk) * 1e6)
        return median_of(per_call)

    def trace(self) -> PassResult:
        problems: List[str] = []
        # The children of this pass run on the benchmark's own CPU, where
        # the replay they are summed against runs too: the other CPU has
        # another speed and a tenth of it goes to the sampler.
        own_cpu = self.host.own_cpu
        startup = [
            run_child(
                [sys.executable, "-c", "import repro.cli"], self.dir / "out_startup.txt",
                own_cpu,
            ).wall
            for _ in range(3)
        ]
        cli = self._cli("traced_base", own_cpu)
        if cli.returncode != 0:
            problems.append(f"CLI exit code {cli.returncode}")

        untraced = Recorder(self.name)
        self._replay(untraced, traced=False)
        recorder = Recorder(self.name)
        workspace, left, right, candidates, report = self._replay(recorder, traced=True)
        recorder.adopt(workspace.tracer.spans())

        stats = workspace.plan.stats
        truth_kept = len(self.truth & set(candidates))
        enforce_s = recorder.total("plan.executor.enforce")
        stage_sum = sum(recorder.total(stage) for stage in STAGES)
        startup_s = median_of(startup).value
        probes = stats.metric_evaluations + stats.cache_hits
        metrics: Dict[str, Measure] = {
            "cli.startup_s": median_of(startup),
            "cli.attribution_gap_frac": Measure(
                (cli.wall - startup_s - stage_sum) / cli.wall,
                note=f"CLI wall {cli.wall:.3f} s, layers {startup_s + stage_sum:.3f} s",
            ),
            "relations.csvio.rows": Measure(len(left) + len(right)),
            "api.workspace.report_s": Measure(
                recorder.total("api.workspace.match") - enforce_s
            ),
            "plan.blocking.candidates": Measure(len(candidates)),
            "plan.blocking.reduction_ratio": Measure(1.0 - len(candidates) / self.total_pairs),
            "plan.blocking.pair_completeness": Measure(truth_kept / len(self.truth)),
            "plan.executor.pairs_compared": Measure(stats.pairs_compared),
            "plan.executor.metric_evaluations": Measure(stats.metric_evaluations),
            "plan.executor.cache_hit_frac": Measure(
                stats.cache_hits / probes if probes else 0.0
            ),
            "plan.executor.chase_rounds": Measure(stats.chase_rounds),
            "plan.executor.rule_applications": Measure(stats.rule_applications),
            "plan.executor.match_yield": Measure(len(report.matches) / len(candidates)),
            "plan.factorise.groups_built": Measure(stats.groups_built),
            "plan.factorise.ratio": Measure(stats.factorisation_ratio),
            "obs.trace_overhead_frac": Measure(
                recorder.total("run") / untraced.total("run") - 1.0,
                note=f"replay {untraced.total('run'):.3f} s untraced, "
                     f"{recorder.total('run'):.3f} s traced",
            ),
        }
        for span in TIMED_SPANS:
            metrics[f"{span}_s"] = Measure(recorder.total(span))
        for metric, span in PROGRAM_SPANS.items():
            metrics[metric] = Measure(recorder.self_time(span))

        # The strategy probe is a diagnostic for "wins on the clock or is
        # deleted": one per workload, on the workload that stresses what
        # the strategy is for (``inputs.FULL`` says which).
        knob, value, metric = self.config["probe"]
        seconds, probe_stats, note = self._probe(
            knob, value, left, right, candidates, report)
        metrics[metric] = Measure(seconds, note=note)
        if seconds is not None and note:
            problems.append(note)
        if knob == "workers" and seconds is not None:
            reason = probe_stats.serial_fallback_reason
            metrics["plan.parallel.fallback_reason"] = Measure(
                float(reason is not None), note=f"reason: {reason}")
        if self.config["dl_microbench"]:
            metrics["metrics.dl.call_us"] = self._dl_call_us(left, right, candidates)

        if set(report.matches) != {
            tuple(pair) for pair in json.loads(cli.stdout)["matches"]
        }:
            problems.append("the replay and the CLI disagree on the matches")
        return PassResult(
            metrics, attempted=1, failed_ops=0, problems=problems,
            raw={"cli_wall_s": cli.wall, "startup_s": startup},
            spans=recorder.spans,
        )
