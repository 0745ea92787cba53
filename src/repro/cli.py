"""Command-line interface: ``python -m repro <command>``.

Drives the full pipeline from plain files, so the library is usable
without writing Python.  Every pipeline command is **spec-driven**: pass
``--spec spec.json`` (a :class:`repro.api.ResolutionSpec` document) and
the command builds a :class:`repro.api.Workspace` from it.

* ``spec``    — the spec itself: ``spec validate`` checks a document and
  reports **all** problems at once (exit 2 when invalid);
* ``deduce``  — print the spec's quality RCKs;
* ``check``   — decide Σ ⊨m φ for an MD given on the command line
  (``--explain`` prints the closure's derivation, or what it misses);
* ``match``   — match two CSV files (``--json`` prints the full
  :class:`~repro.api.report.MatchReport`);
* ``plan``    — ``plan explain`` prints the compiled ``EnforcementPlan``;
* ``demo``    — run the paper's Fig. 1 example end to end;
* ``engine``  — the incremental streaming engine: ``engine ingest``
  streams CSV records into a persistent match store — a durable SQLite
  database whatever the ``--store`` file is called (stores embed the
  spec fingerprint and resuming under a different spec is rejected),
  ``engine stats`` reports counters, ``engine query`` prints a cluster;
* ``serve``   — run the asyncio HTTP resolution service (``repro.serve``);
* ``trace``   — inspect trace files written with ``--trace`` on ``match``
  or ``engine ingest``: ``trace summarize`` aggregates per-span timings,
  ``trace validate`` schema-checks a file (what CI smoke runs).

The tuning flags (``--top-k``, ``--window``, ``--port``, ...) are views
of spec options: ``_TUNING_FLAGS`` maps each to its document path, and a
flag the user typed is lowered into the spec and validated there.

Exit codes: 0 on success, 1 for a negative ``check`` verdict, 2 for any
user-facing error (bad input, missing file, invalid spec) — every such
error is printed to stderr, never raised as a traceback.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.api import ResolutionSpec, SpecError, Workspace
from repro.api.spec import OPTIONS
from repro.obs import read_trace, summarize_trace, validate_trace
from repro.core.explain import explain
from repro.core.parser import parse_md
from repro.relations.csvio import load_relation
from repro.relations.relation import Relation


class CliError(Exception):
    """A user-facing CLI failure (bad input, missing file, ...)."""


def _load_csv_relation(schema, path: Path) -> Relation:
    """Load a CSV with or without the __tid__ column
    (:func:`~repro.relations.csvio.load_relation`); a file it cannot
    open or read is one ``error: <path>: ...`` line."""
    try:
        return load_relation(schema, path)
    except OSError as error:
        raise CliError(f"{path}: {error.strerror or error}") from None
    except ValueError as error:
        raise CliError(str(error)) from None


# ----------------------------------------------------------------------
# Spec resolution: --spec, with explicitly passed tuning flags applied
# ----------------------------------------------------------------------

#: The tuning flags, each a view of one spec option: ``flag -> (document
#: path, what it tunes)``.  The option's field supplies the flag's type,
#: choices and default, and its check validates what the user typed.
_TUNING_FLAGS = {
    "-m": ("rules.top_k", "max RCKs"),
    "--top-k": ("rules.top_k", "RCKs to use"),
    "--window": ("blocking.window", "sorted-neighborhood window size"),
    "--backend": ("blocking.backend", "blocking backend to attach"),
    "--trace": (
        "observability.trace",
        "write a span trace of this run to this file, loadable in "
        "about:tracing or ui.perfetto.dev (inspect it with `repro trace "
        "summarize`)",
    ),
    "--host": ("serve.host", "bind address"),
    "--port": ("serve.port", "bind port, 0 for ephemeral"),
    "--max-batch": ("serve.max_batch", "ingest micro-batch size cap"),
    "--queue-limit": (
        "serve.queue_limit",
        "per-tenant ingest queue bound before 429 backpressure",
    ),
}


def _add_tuning_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Give ``parser`` the named rows of ``_TUNING_FLAGS``; each parses
    into ``args`` under its option's document path."""
    for flag in flags:
        path, what = _TUNING_FLAGS[flag]
        option = OPTIONS[path]
        choices = option.metadata["params"].get("choices")
        parser.add_argument(
            flag,
            dest=path,
            type=int if isinstance(option.default, int) else str,
            choices=choices,
            metavar=None if choices else path.rpartition(".")[2].upper(),
            help=f"{what}; default: the spec's {path}",
        )


def _effective_spec(args) -> ResolutionSpec:
    """The command's spec: the ``--spec`` file with the typed flags applied.

    Each tuning flag the user typed is written into the document at its
    option's path and the result is validated again, so a flag value is
    held to the spec's own check and is never silently ignored; a plain
    ``--spec`` run uses the file verbatim.
    """
    spec = ResolutionSpec.from_file(args.spec)
    typed = {
        path: value
        for path, value in vars(args).items()
        if path in OPTIONS and value is not None
    }
    if not typed:
        return spec
    document = spec.to_dict()
    for path, value in typed.items():
        section, _, key = path.partition(".")
        document[section][key] = value
    return ResolutionSpec.from_dict(document)


def _write_cli_trace(workspace: Workspace, args, **manifest_fields) -> None:
    """Write the run's trace to the spec's observability.trace path."""
    if workspace.spec.trace_path is None:
        return
    try:
        workspace.write_trace(
            argv=getattr(args, "argv", sys.argv[1:]), **manifest_fields
        )
    except OSError as error:
        raise CliError(f"cannot write trace: {error}") from None


def _workspace(spec: ResolutionSpec) -> Workspace:
    """A workspace whose compile errors surface as CLI errors."""
    workspace = Workspace(spec)
    try:
        workspace.plan
    except (KeyError, ValueError) as error:
        raise CliError(f"cannot compile the spec: {error}") from None
    return workspace


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_spec_validate(args) -> int:
    path = Path(args.file)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CliError(f"spec file not found: {path}") from None
    except json.JSONDecodeError as error:
        raise CliError(f"invalid JSON in {path}: {error}") from None
    errors = ResolutionSpec.validate_document(document)
    if errors:
        for message in errors:
            print(f"error: {message}", file=sys.stderr)
        print(f"# {len(errors)} error(s) in {path}", file=sys.stderr)
        return 2
    spec = ResolutionSpec.from_dict(document)
    print(
        f"OK: {path} is a valid v{spec.version} ResolutionSpec "
        f"(fingerprint {spec.fingerprint()})"
    )
    return 0


def cmd_deduce(args) -> int:
    spec = _effective_spec(args)
    workspace = _workspace(spec)
    keys = workspace.deduce()
    print(f"# {len(keys)} RCK(s) relative to {workspace.plan.target}")
    for key in keys:
        print(key)
    return 0


def cmd_check(args) -> int:
    spec = _effective_spec(args)
    pair = spec.schema_pair()
    try:
        sigma = spec.parsed_mds(pair)
    except ValueError as error:
        raise CliError(f"cannot parse the spec's MDs: {error}") from None
    try:
        phi = parse_md(args.md, pair)
    except ValueError as error:
        raise CliError(f"cannot parse the MD to check: {error}") from None
    explanation = explain(pair, sigma, phi)
    if args.explain:
        print(explanation.render())
    else:
        print(f"Sigma |=m phi: {explanation.deduced}")
    return 0 if explanation.deduced else 1


def cmd_match(args) -> int:
    # A batch match allocates millions of objects and no cycles that grow
    # with the input (the reference counts free it as it goes), so every
    # collection would walk the whole heap to find nothing:
    # tests/test_cli.py pins the cyclic garbage a match leaves at two sizes.
    # The caller's setting is restored: main() is also called in-process.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _match(args)
    finally:
        if enabled:
            gc.enable()


def _match(args) -> int:
    spec = _effective_spec(args)
    workspace = _workspace(spec)
    plan = workspace.plan
    left = _load_csv_relation(plan.pair.left, Path(args.left))
    right = _load_csv_relation(plan.pair.right, Path(args.right))
    try:
        report = workspace.match(left, right)
    except (KeyError, ValueError) as error:
        raise CliError(f"matching failed: {error}") from None
    _write_cli_trace(
        workspace, args,
        command="match", left=str(args.left), right=str(args.right),
    )
    exhausted = report.stats.get("rounds_exhausted", 0)
    if exhausted:
        print(
            f"warning: the chase hit its round budget "
            f"(execution.max_rounds={spec.max_rounds}) before reaching a "
            f"stable instance in {exhausted} enforcement(s); matches may be "
            f"incomplete — raise execution.max_rounds "
            f"(rules in play: {', '.join(r.name for r in plan.rules)})",
            file=sys.stderr,
        )
    if args.output:
        with Path(args.output).open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["left_tid", "right_tid"])
            writer.writerows(report.matches)
    if args.json:
        report.write_json(sys.stdout)
        sys.stdout.write("\n")
        return 0
    if not args.output:
        for left_tid, right_tid in report.matches:
            print(f"{left_tid},{right_tid}")
    print(
        f"# {len(report.matches)} match(es) from {len(report.candidates)} candidate "
        f"pair(s); keys used: {len(plan.keys)}",
        file=sys.stderr,
    )
    return 0


def cmd_plan_explain(args) -> int:
    workspace = _workspace(_effective_spec(args))
    if args.json:
        document = workspace.plan.to_dict()
        document["spec_fingerprint"] = workspace.fingerprint
        print(json.dumps(document, sort_keys=True))
    else:
        print(workspace.explain())
    return 0


def _open_engine_store(path: Path):
    """Open an existing ``--store``: a SQLite store, whatever its name.

    Anything else — a missing file, foreign or corrupt content, a wrong
    version — is an actionable :class:`CliError`, and a file that is not
    a store is left as it was found.
    """
    import sqlite3

    from repro.engine import SQLiteMatchStore

    if not path.exists():
        raise CliError(f"store not found: {path}")
    try:
        return SQLiteMatchStore(path)
    except (ValueError, KeyError, TypeError, sqlite3.Error) as error:
        raise CliError(f"cannot open store {path}: {error}") from None


def cmd_engine_ingest(args) -> int:
    from repro.core.schema import LEFT, RIGHT

    spec = _effective_spec(args)
    workspace = _workspace(spec)
    pair = workspace.plan.pair
    store_path = Path(args.store)
    # Both files are read before the store is touched: a malformed row
    # leaves it as it was.
    arrivals = [
        (side, _load_csv_relation(schema, Path(data_path)))
        for side, schema, data_path in (
            (LEFT, pair.left, args.left),
            (RIGHT, pair.right, args.right),
        )
        if data_path is not None
    ]
    store = None
    try:
        store = (
            _open_engine_store(store_path)
            if store_path.exists()
            else workspace.open_store(store_path)
        )
        matcher = workspace.stream(store=store)
    except (SpecError, ValueError) as error:
        # Covers e.g. a store built for a different schema/target, or a
        # tail another release wrote.
        if store is not None:
            store.close(commit=False)
        reason = "; ".join(error.errors) if isinstance(error, SpecError) else error
        raise CliError(f"{store_path}: {reason}") from None
    merges_before = store.merges
    ingested = 0
    for side, relation in arrivals:
        for row in relation:
            matcher.ingest(side, row.values())
            ingested += 1
    # Every ingest already committed durably, as its input; an empty
    # unit folds the tail into the checkpoint the stats below describe.
    store.commit()
    _write_cli_trace(
        workspace,
        args,
        command="engine ingest",
        store=str(store_path),
        ingested=ingested,
    )
    stats = store.stats()
    store.close()
    stats["ingested"] = ingested
    stats["new_merges"] = store.merges - merges_before
    stats["spec_fingerprint"] = store.spec_fingerprint
    # Work counters of this run's compiled plan (cache state is
    # per-process; it is not persisted in the store).
    stats["plan"] = matcher.plan.stats.as_dict()
    if args.json:
        print(json.dumps(stats, sort_keys=True))
    else:
        print(
            f"# ingested {ingested} record(s) into {store_path} "
            f"({stats['new_merges']} new merge(s))"
        )
        print(
            f"# store: {stats['left_rows']}+{stats['right_rows']} rows, "
            f"{stats['matched_clusters']} matched cluster(s), "
            f"{stats['comparisons']} comparison(s) so far"
        )
    return 0


def cmd_engine_stats(args) -> int:
    store = _open_engine_store(Path(args.store))
    stats = store.stats()
    if args.json:
        print(json.dumps(stats, sort_keys=True))
        return 0
    print(f"# store {args.store}")
    print(f"backend: {stats['backend']}")
    if "disk_bytes" in stats:
        print(f"disk_bytes: {stats['disk_bytes']}")
    for key in (
        "pending_events", "left_rows", "right_rows", "matched_clusters",
        "largest_cluster", "comparisons", "merges",
    ):
        print(f"{key}: {stats[key]}")
    for name, index_stats in stats["indexes"].items():
        print(
            f"index {name}: {index_stats['buckets']} bucket(s), "
            f"largest {index_stats['largest_bucket']}"
        )
    return 0


def cmd_engine_query(args) -> int:
    from repro.core.schema import LEFT, RIGHT

    store = _open_engine_store(Path(args.store))
    side = LEFT if args.side == "left" else RIGHT
    pending = store.pending_events
    if store.is_pending(side, args.tid):
        raise CliError(
            f"{args.side} record {args.tid} is among the {pending} acknowledged "
            f"event(s) {args.store} has not checkpointed yet; `repro engine "
            f"ingest --spec <spec> --store {args.store}` replays them"
        )
    if pending:
        print(
            f"note: {args.store} has {pending} event(s) ingested since its "
            "last checkpoint; this answer is from the checkpoint",
            file=sys.stderr,
        )
    relation = store.relation(side)
    if args.tid not in relation:
        raise CliError(
            f"no {args.side} record with tid {args.tid} in {args.store}"
        )
    cluster = store.cluster_of(side, args.tid)
    if args.json:
        print(json.dumps({
            "side": args.side,
            "tid": args.tid,
            "left_tids": sorted(cluster.left_tids),
            "right_tids": sorted(cluster.right_tids),
        }, sort_keys=True))
        return 0
    print(
        f"# cluster of {args.side} tid {args.tid}: "
        f"{cluster.size} record(s)"
    )
    for member_side, name, tids in (
        (LEFT, store.pair.left.name, sorted(cluster.left_tids)),
        (RIGHT, store.pair.right.name, sorted(cluster.right_tids)),
    ):
        member_relation = store.relation(member_side)
        for tid in tids:
            values = member_relation[tid].values()
            rendered = ", ".join(
                f"{key}={value}" for key, value in values.items()
                if value is not None
            )
            print(f"{name}[{tid}]: {rendered}")
    return 0


def _read_trace_file(path: str):
    try:
        return read_trace(path)
    except FileNotFoundError:
        raise CliError(f"trace file not found: {path}") from None
    except ValueError as error:
        raise CliError(str(error)) from None


def cmd_serve(args) -> int:
    """Run the asyncio resolution service until SIGINT/SIGTERM."""
    # The service binds plain HTTP only, so asyncio is imported as on a
    # CPython built without OpenSSL: a ``None`` in ``sys.modules`` makes
    # its ``import ssl`` fail, and ``_ssl``, ``libssl`` and ``libcrypto``
    # (≈ 4 MB resident) stay unloaded.  The entry is taken out again, so
    # a later ``import ssl`` still works.
    blocked = "ssl" not in sys.modules
    if blocked:
        sys.modules["ssl"] = None
    try:
        from repro.serve import ResolutionServer, serve_forever
    finally:
        if blocked:
            sys.modules.pop("ssl", None)

    serve_forever(ResolutionServer(_effective_spec(args)))
    return 0


def cmd_trace_summarize(args) -> int:
    document = _read_trace_file(args.file)
    problems = validate_trace(document)
    if problems:
        raise CliError(
            f"{args.file} is not a valid trace:\n"
            + "\n".join(f"  {problem}" for problem in problems)
        )
    print(summarize_trace(document))
    return 0


def cmd_trace_validate(args) -> int:
    document = _read_trace_file(args.file)
    problems = validate_trace(document)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        print(f"# {len(problems)} problem(s) in {args.file}", file=sys.stderr)
        return 2
    spans = sum(
        1
        for event in document.get("traceEvents", [])
        if isinstance(event, dict) and event.get("ph") == "X"
    )
    print(f"OK: {args.file} is a valid trace ({spans} span event(s))")
    return 0


def cmd_demo(args) -> int:
    from repro.datagen.generator import figure1_instances
    from repro.datagen.schemas import paper_mds, paper_target

    pair, credit, billing = figure1_instances()
    workspace = (
        Workspace.builder()
        .pair(pair)
        .target(paper_target(pair))
        .mds(paper_mds(pair))
        .execution(mode="direct", top_k=6)
        .workspace()
    )
    print("Deduced RCKs from the paper's MDs:")
    for key in workspace.deduce():
        print(f"  {key}")
    report = workspace.match(
        credit, billing,
        candidates=[(l, r) for l in range(2) for r in range(4)],
    )
    print("Matches on the Fig. 1 instances (credit tid, billing tid):")
    for pair_ in report.matches:
        print(f"  {pair_}")
    return 0


def _add_spec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spec", required=True,
        help="ResolutionSpec JSON (the declarative form of every other flag)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Matching dependencies and relative candidate keys "
        "(Fan et al., VLDB 2009).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec = sub.add_parser(
        "spec", help="work with ResolutionSpec documents (repro.api)"
    )
    spec_sub = spec.add_subparsers(dest="spec_command", required=True)
    validate = spec_sub.add_parser(
        "validate",
        help="validate a spec document, reporting every error at once",
    )
    validate.add_argument("file", help="ResolutionSpec JSON file")
    validate.set_defaults(func=cmd_spec_validate)

    deduce = sub.add_parser("deduce", help="deduce quality RCKs from MDs")
    _add_spec_options(deduce)
    _add_tuning_flags(deduce, "-m")
    deduce.set_defaults(func=cmd_deduce)

    check = sub.add_parser("check", help="decide Sigma |=m phi")
    _add_spec_options(check)
    check.add_argument(
        "--explain", action="store_true",
        help="print the derivation (or failure report)",
    )
    check.add_argument("md", help="the MD phi, in the text syntax")
    check.set_defaults(func=cmd_check)

    match = sub.add_parser("match", help="match two CSV files with RCKs")
    _add_spec_options(match)
    match.add_argument("--left", required=True, help="left relation CSV")
    match.add_argument("--right", required=True, help="right relation CSV")
    match.add_argument("-o", "--output", help="write pairs CSV here")
    match.add_argument(
        "--json", action="store_true",
        help="print the full MatchReport as JSON (pairs, clusters, "
        "provenance, plan stats, spec fingerprint)",
    )
    _add_tuning_flags(match, "--top-k", "--window", "--trace")
    match.set_defaults(func=cmd_match)

    plan = sub.add_parser(
        "plan", help="the compiled enforcement kernel (repro.plan)"
    )
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)
    explain = plan_sub.add_parser(
        "explain",
        help="compile a spec and print the EnforcementPlan",
    )
    _add_spec_options(explain)
    _add_tuning_flags(explain, "--top-k", "--backend", "--window")
    explain.add_argument(
        "--json", action="store_true", help="print the plan as JSON"
    )
    explain.set_defaults(func=cmd_plan_explain)

    demo = sub.add_parser("demo", help="run the Fig. 1 example")
    demo.set_defaults(func=cmd_demo)

    engine = sub.add_parser(
        "engine", help="incremental streaming entity-resolution engine"
    )
    engine_sub = engine.add_subparsers(dest="engine_command", required=True)

    ingest = engine_sub.add_parser(
        "ingest", help="stream CSV records into a persistent match store"
    )
    _add_spec_options(ingest)
    ingest.add_argument(
        "--store", required=True,
        help="SQLite store file, whatever its suffix (created when "
        "missing, updated in place)",
    )
    ingest.add_argument("--left", help="left relation CSV to ingest")
    ingest.add_argument("--right", help="right relation CSV to ingest")
    ingest.add_argument(
        "--json", action="store_true", help="print stats as JSON"
    )
    _add_tuning_flags(ingest, "--top-k", "--trace")
    ingest.set_defaults(func=cmd_engine_ingest)

    stats = engine_sub.add_parser("stats", help="report store counters")
    stats.add_argument("--store", required=True, help="SQLite store file")
    stats.add_argument(
        "--json", action="store_true", help="print stats as JSON"
    )
    stats.set_defaults(func=cmd_engine_stats)

    query = engine_sub.add_parser(
        "query", help="print the identity cluster of a record"
    )
    query.add_argument("--store", required=True, help="SQLite store file")
    query.add_argument(
        "--side", required=True, choices=("left", "right"),
        help="which relation the record belongs to",
    )
    query.add_argument("--tid", required=True, type=int, help="tuple id")
    query.add_argument(
        "--json", action="store_true", help="print the cluster as JSON"
    )
    query.set_defaults(func=cmd_engine_query)

    serve = sub.add_parser(
        "serve",
        help="run the asyncio HTTP resolution service (repro.serve)",
    )
    _add_spec_options(serve)
    _add_tuning_flags(serve, "--host", "--port", "--max-batch", "--queue-limit")
    serve.set_defaults(func=cmd_serve)

    trace = sub.add_parser(
        "trace", help="inspect trace files written with --trace (repro.obs)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize", help="aggregate a trace into a per-span table"
    )
    summarize.add_argument("file", help="trace file written with --trace")
    summarize.set_defaults(func=cmd_trace_summarize)
    trace_validate = trace_sub.add_parser(
        "validate", help="schema-check a trace file (exit 2 on problems)"
    )
    trace_validate.add_argument(
        "file", help="trace file written with --trace"
    )
    trace_validate.set_defaults(func=cmd_trace_validate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    # The command line as invoked, for trace manifests (sys.argv is the
    # test runner's when main() is called programmatically).
    args.argv = list(argv)
    try:
        return args.func(args)
    except SpecError as error:
        for message in error.errors:
            print(f"error: {message}", file=sys.stderr)
        return 2
    except CliError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed our stdout (e.g. `repro trace summarize | head`);
        # exit quietly instead of tracebacking.  Redirect stdout to devnull
        # so the interpreter's shutdown flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
