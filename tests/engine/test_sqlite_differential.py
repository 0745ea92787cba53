"""The backend differential suite: SQLite ≡ in-memory, bit for bit.

Runs the full spec-driven streaming stack against both persistence
backends and asserts the *complete* observable state agrees — per-event
match results, final clusters, arrival and consensus values, cost
counters, index statistics — across every arrival scenario
:mod:`repro.datagen.streams` generates, plus the acceptance scenario the
durable backend exists for: killing the process mid-stream and resuming
from the database equals a never-interrupted run.
"""

from __future__ import annotations

import json
import re
import sqlite3

import pytest

from repro.api import Workspace
from repro.core.schema import LEFT, RIGHT
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.datagen.streams import (
    arrival_stream,
    duplicate_burst_stream,
    late_duplicate_stream,
)
from repro.engine import SQLiteMatchStore
from repro.relations.relation import Row

from store_state import recipe_config, state as _state

SCENARIOS = [duplicate_burst_stream, arrival_stream, late_duplicate_stream]
SCENARIO_IDS = ["duplicate-burst", "arrival", "late-duplicate"]


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(150, seed=11)


def _builder(dataset):
    return (
        Workspace.builder()
        .pair(dataset.pair)
        .target(dataset.target)
        .mds(extended_mds(dataset.pair))
        .execution(top_k=5)
    )


def _memory_workspace(dataset) -> Workspace:
    return _builder(dataset).workspace()


def _sqlite_workspace(dataset, path) -> Workspace:
    return _builder(dataset).persistence("sqlite", str(path)).workspace()


def _result_log(results):
    return [
        (r.side, r.tid, r.candidates, r.matches, r.merged,
         r.cascade_truncated)
        for r in results
    ]


def test_persistence_section_never_enters_fingerprint(dataset, tmp_path):
    """Same rules, different store backend → one fingerprint (so a store
    built under either spec resumes under the other)."""
    memory = _memory_workspace(dataset)
    durable = _sqlite_workspace(dataset, tmp_path / "s.db")
    assert memory.fingerprint == durable.fingerprint


@pytest.mark.parametrize("make_stream", SCENARIOS, ids=SCENARIO_IDS)
def test_backends_agree_on_every_scenario(dataset, make_stream, tmp_path):
    events = list(make_stream(dataset, seed=5).events)

    memory = _memory_workspace(dataset).stream()
    memory_results = memory.ingest_stream(events)

    durable = _sqlite_workspace(dataset, tmp_path / "store.db").stream()
    durable_results = durable.ingest_stream(events)

    assert _result_log(durable_results) == _result_log(memory_results)
    assert _state(durable.store) == _state(memory.store)
    durable.store.close()


@pytest.mark.parametrize("make_stream", SCENARIOS, ids=SCENARIO_IDS)
def test_kill_and_resume_equals_uninterrupted(dataset, make_stream, tmp_path):
    """Stop mid-stream, reopen the database cold, finish: same state."""
    events = list(make_stream(dataset, seed=5).events)
    cut = len(events) // 2
    path = tmp_path / "resumable.db"

    uninterrupted = _memory_workspace(dataset).stream()
    uninterrupted.ingest_stream(events)

    first = _sqlite_workspace(dataset, path).stream()
    first_results = first.ingest_stream(events[:cut])
    # Simulate the process dying: drop the connection, keep the file.
    first.store.close()

    # A brand-new workspace (fresh compile, fresh connection) resumes.
    resumed = _sqlite_workspace(dataset, path).stream()
    resumed_results = resumed.ingest_stream(events[cut:])

    assert _state(resumed.store) == _state(uninterrupted.store)
    combined = _result_log(first_results) + _result_log(resumed_results)
    direct = _result_log(
        _memory_workspace(dataset).stream().ingest_stream(events)
    )
    assert combined == direct
    resumed.store.close()


def test_uncommitted_tail_is_invisible_after_crash(dataset, tmp_path):
    """A transaction in flight when the process dies never surfaces: a
    matcher reopening the file replays the ten committed ingests, and
    only those."""
    path = tmp_path / "crash.db"
    events = list(arrival_stream(dataset, seed=5).events)
    matcher = _sqlite_workspace(dataset, path).stream()
    matcher.ingest_stream(events[:10])
    # A half-applied ingest the crash interrupts before commit:
    matcher.store.add(events[10].side, dict(events[10].values))
    matcher.store.comparisons += 999
    matcher.store.connection.close()  # die without commit

    reopened = _sqlite_workspace(dataset, path).stream().store
    assert len(reopened.left) + len(reopened.right) == 10
    assert reopened.comparisons != 999
    alone = _memory_workspace(dataset).stream()
    alone.ingest_stream(events[:10])
    assert _state(reopened) == _state(alone.store)
    reopened.close(commit=False)


def test_resume_under_changed_spec_is_rejected(dataset, tmp_path):
    from repro.api import SpecError

    path = tmp_path / "pinned.db"
    matcher = _sqlite_workspace(dataset, path).stream()
    matcher.ingest_stream(list(arrival_stream(dataset, seed=5).events)[:5])
    matcher.store.close()

    # Same blocking passes (so the store itself opens fine), different
    # matching semantics or rules — the fingerprint is what catches it.
    for other in (
        _builder(dataset).resolution("lexicographic-min"),
        _builder(dataset).execution(top_k=3),
    ):
        with pytest.raises(SpecError, match="built from spec"):
            other.persistence("sqlite", str(path)).workspace().stream()

    # Other passes are rejected by the store itself: its file keeps the
    # passes it was created to index under.
    longer_keys = (
        _builder(dataset)
        .persistence("sqlite", str(path))
        .blocking("hash", key_length=2)
        .workspace()
    )
    with pytest.raises(SpecError, match="different configuration"):
        longer_keys.stream()


# ----------------------------------------------------------------------
# Micro-batches over the durable store, and the failure paths around them
# ----------------------------------------------------------------------


def _chase_counters(workspace):
    stats = workspace.plan.stats
    return (
        stats.enforcements, stats.pairs_compared, stats.chase_rounds,
        stats.rule_applications, stats.rounds_exhausted,
    )


@pytest.mark.parametrize("blocking", ("hash", "sorted-neighborhood"))
@pytest.mark.parametrize("seed", (7, 3))
def test_batches_of_32_equal_per_record_ingest_on_both_stores(
    seed, blocking, tmp_path
):
    """The two axes the other suites cross only one at a time: the
    batch-invariance suite runs ``ingest_batch`` on the memory store, the
    scenarios above run ``ingest`` on both stores.  Here every cell of
    {memory, SQLite} × {per record, batches of 32} ends in the same
    results and the same store, and ran the same chases — a batch is
    per-record ingest under one commit, under either blocking family."""
    source = generate_dataset(150, seed=seed)
    events = list(arrival_stream(source, seed=seed).events)
    runs = {}
    for backend in ("memory", "sqlite"):
        for batch in (None, 32):
            builder = _builder(source).blocking(blocking)
            if backend == "sqlite":
                builder.persistence("sqlite", str(tmp_path / f"b{batch}.db"))
            workspace = builder.workspace()
            matcher = workspace.stream()
            if batch is None:
                results = matcher.ingest_stream(events)
            else:
                results = [
                    result
                    for start in range(0, len(events), batch)
                    for result in matcher.ingest_batch(events[start:start + batch])
                ]
            runs[backend, batch] = (
                _result_log(results), _state(matcher.store),
                _chase_counters(workspace),
            )
            matcher.store.close()
    log, state, _ = runs["memory", None]
    assert any(merged for *_, merged, _ in log)
    for run_log, run_state, _ in runs.values():
        assert run_log == log
        assert run_state == state
    assert len({chases for *_, chases in runs.values()}) == 1


def _probes(store):
    """Every stored record's candidate neighborhood."""
    return {
        (side, tid): store.neighbors(side, tid)
        for side in (LEFT, RIGHT)
        for tid in store.relation(side).tids()
    }


@pytest.mark.parametrize("blocking", ("hash", "sorted-neighborhood"))
def test_a_rolled_back_record_leaves_no_keys_behind(dataset, blocking, tmp_path):
    """What the store derives from a record dies with a rollback.

    A batch adds tid T (values V1, indexed under V1's keys) and then
    raises; the unit is rolled back; T then arrives with V2, whose keys
    differ.  Everything — the index, every probe, results, the whole
    store — must be as if only the surviving events had ever been seen;
    an index or key cache that outlived the rollback would hold T under
    V1.
    """
    events = list(arrival_stream(dataset, seed=5).events)
    survivors = events[:40]
    side = survivors[-1].side
    first, second = [e for e in events[40:] if e.side == side][:2]
    tid = first.tid

    def stream(name):
        return (
            _builder(dataset)
            .blocking(blocking)
            .persistence("sqlite", str(tmp_path / name))
            .workspace()
            .stream()
        )

    matcher = stream("rolled.db")
    store = matcher.store
    assert store.blocking.keys_for(side, Row(tid, dict(first.values))) != (
        store.blocking.keys_for(side, Row(tid, dict(second.values)))
    )
    matcher.ingest_batch(survivors)
    with pytest.raises(ValueError, match="already present"):
        # The second event re-uses a live tid: T is added, indexed and
        # probed before the batch fails.
        matcher.ingest_batch([(side, first.values, tid), survivors[0]])
    assert tid not in store.relation(side)
    result = matcher.ingest(side, second.values, tid=tid)

    fresh = stream("fresh.db")
    fresh.ingest_batch(survivors)
    expected = fresh.ingest(side, second.values, tid=tid)
    assert result == expected
    probes = _probes(store)
    assert probes == _probes(fresh.store)
    assert any(probes.values())
    assert _state(store) == _state(fresh.store)
    # ... and the next arrivals still agree.
    tail = [e for e in events[40:] if e.tid != tid or e.side != side][:20]
    assert matcher.ingest_stream(tail) == fresh.ingest_stream(tail)
    assert _state(store) == _state(fresh.store)
    store.close()
    fresh.store.close()


@pytest.mark.parametrize("batch", (None, 8), ids=("ingest", "ingest_batch"))
def test_a_full_disk_mid_unit_leaves_the_last_commit_and_a_retry_goes_on(
    dataset, batch, tmp_path
):
    """``SQLITE_FULL`` in the middle of a unit: the file stops growing
    (``max_page_count`` capped at its size after 100 events) and ingest
    goes on until a commit's write-back fails with ``database or disk is
    full``.  The unit is rolled back whole — no transaction open, the
    store in process and reopened equal to its state before the unit —
    and once the cap is lifted, retrying the same unit and streaming on
    ends where an uninterrupted memory-store run does."""
    events = list(arrival_stream(dataset, seed=5).events)
    path = tmp_path / "full.db"
    matcher = _sqlite_workspace(dataset, path).stream()
    matcher.ingest_stream(events[:100])
    store = matcher.store
    (pages,) = store.connection.execute("PRAGMA page_count").fetchone()
    store.connection.execute(f"PRAGMA max_page_count = {pages}")

    def run(unit):
        if batch is None:
            (event,) = unit
            return [matcher.ingest(event.side, event.values, tid=event.tid)]
        return matcher.ingest_batch(unit)

    size = batch or 1
    for start in range(100, len(events), size):
        unit = events[start:start + size]
        before = _state(store)
        try:
            run(unit)
        except sqlite3.OperationalError as error:
            assert "database or disk is full" in str(error)
            break
    else:
        pytest.fail("the capped file never filled up")
    assert not store.connection.in_transaction
    assert _state(store) == before
    assert _replayed_state(dataset, store, tmp_path) == before

    store.connection.execute("PRAGMA max_page_count = 1073741823")
    run(unit)
    for rest in range(start + size, len(events), size):
        run(events[rest:rest + size])
    uninterrupted = _memory_workspace(dataset).stream()
    uninterrupted.ingest_stream(events)
    assert _state(store) == _state(uninterrupted.store)
    store.close()


def _replayed_state(dataset, store, tmp_path):
    """What a matcher reopening ``store``'s file sees: the checkpoint with
    the committed tail replayed.  It opens a snapshot, so ``store`` stays
    the file's one writer."""
    copy = tmp_path / "snapshot.db"
    target = sqlite3.connect(copy)
    store.connection.backup(target)
    target.close()
    reopened = _sqlite_workspace(dataset, copy).stream().store
    try:
        return _state(reopened)
    finally:
        reopened.close()
        for suffix in ("", "-wal", "-shm"):
            (tmp_path / f"snapshot.db{suffix}").unlink(missing_ok=True)


def test_close_closes_the_connection_when_its_commit_fails(dataset, tmp_path):
    """``close()`` checkpoints first; when that fails (``SQLITE_FULL``, as
    above) the error propagates and the connection is closed anyway."""
    events = list(arrival_stream(dataset, seed=5).events)
    path = tmp_path / "full.db"
    matcher = _sqlite_workspace(dataset, path).stream()
    matcher.ingest_stream(events[:100])
    store = matcher.store
    before = _state(store)
    (pages,) = store.connection.execute("PRAGMA page_count").fetchone()
    store.connection.execute(f"PRAGMA max_page_count = {pages}")
    for event in events[100:]:
        store.add(event.side, event.values, tid=event.tid)
    with pytest.raises(sqlite3.OperationalError, match="database or disk is full"):
        store.close()
    with pytest.raises(sqlite3.ProgrammingError, match="closed"):
        store.connection.execute("SELECT 1")
    reopened = _sqlite_workspace(dataset, path).stream().store
    assert _state(reopened) == before
    reopened.close()


def _reads_records(statements):
    return [statement for statement in statements if re.search(r"\brecords\b", statement)]


@pytest.mark.parametrize("first_call", ("add", "neighbors"))
@pytest.mark.parametrize("blocking", ("hash", "sorted-neighborhood"))
def test_a_reopened_store_builds_its_index_on_first_use(
    dataset, blocking, first_call, tmp_path
):
    """Opening a store, and building a matcher over it, reads no record;
    the first ``add`` or ``neighbors`` derives the index from one scan of
    the records, and every probe then equals the probe before close."""
    events = list(arrival_stream(dataset, seed=5).events)
    late = events[60]
    workspace = (
        _builder(dataset).blocking(blocking).persistence("sqlite", str(tmp_path / "s.db"))
    ).workspace()
    first = workspace.stream()
    first.ingest_stream(events[:60])
    expected = {"neighbors": _probes(first.store)}
    first.store.add(late.side, late.values, tid=late.tid)
    expected["add"] = _probes(first.store)
    first.store.rollback()
    first.store.close()

    store = SQLiteMatchStore(workspace.spec.persistence_path)
    statements = []
    store.connection.set_trace_callback(statements.append)
    workspace.stream(store=store)
    assert _reads_records(statements) == []
    if first_call == "add":
        store.add(late.side, late.values, tid=late.tid)
    else:
        store.neighbors(events[0].side, events[0].tid)
    assert _probes(store) == expected[first_call]
    scans = [s for s in _reads_records(statements) if s.startswith("SELECT side, tid, arrival")]
    assert len(scans) == 1
    store.close(commit=False)


@pytest.mark.parametrize("blocking", ("hash", "sorted-neighborhood"))
@pytest.mark.parametrize("version", (1, 2, 3))
def test_an_older_store_opens_as_version_4_and_streams_on(
    dataset, version, blocking, tmp_path
):
    """Files by versions 1 to 3 keep the blocking recipe in
    ``meta.config``; one by a version-2 build also has no ``events``
    tail (nor a ``release`` stamp), and one by a version-1 build kept its
    blocking index in two tables of postings besides.  Opening any of
    them upgrades it in one transaction — the postings dropped, an empty
    tail added, the recipe resolved to its passes, version 4 stamped, so
    an older build refuses the file rather than probe postings that no
    longer follow it, miss the records its tail holds or misread its
    configuration — and the stream goes on as if never interrupted."""
    events = list(arrival_stream(dataset, seed=5).events)
    cut = len(events) // 2
    path = tmp_path / f"v{version}.db"

    def workspace():
        return _builder(dataset).blocking(blocking).persistence("sqlite", str(path)).workspace()

    first = workspace().stream()
    first_results = first.ingest_stream(events[:cut])
    first.store.close()
    passes = json.loads(_meta(path, "config"))
    connection = sqlite3.connect(path)
    with connection:
        connection.execute(
            "UPDATE meta SET value = ? WHERE key = 'config'",
            (json.dumps(recipe_config(workspace())),),
        )
        if version < 3:
            connection.execute("DROP TABLE events")
            connection.execute("DELETE FROM meta WHERE key = 'release'")
        if version == 1:
            # The version-1 blocking tables, populated with postings a
            # probe would go wrong on: every record under one key.
            connection.execute(
                "CREATE TABLE buckets (idx INTEGER NOT NULL, key TEXT NOT NULL, "
                "side INTEGER NOT NULL, tid INTEGER NOT NULL)"
            )
            connection.execute("CREATE INDEX buckets_probe ON buckets (idx, key, side)")
            connection.execute(
                "CREATE TABLE ranks (idx INTEGER NOT NULL, block TEXT NOT NULL, "
                "key TEXT NOT NULL, side INTEGER NOT NULL, tid INTEGER NOT NULL)"
            )
            connection.execute(
                "INSERT INTO buckets SELECT 0, '[\"x\"]', side, tid FROM records"
            )
            connection.execute(
                "INSERT INTO ranks SELECT 0, 'x', '[\"x\"]', side, tid FROM records"
            )
        connection.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'", (str(version),)
        )
    connection.close()

    resumed = workspace().stream()
    tables = {
        name
        for (name,) in resumed.store.connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    }
    assert tables == {"meta", "records", "clusters", "counters", "events"}
    assert _meta(path, "schema_version") == "4"
    assert json.loads(_meta(path, "config")) == passes
    resumed_results = resumed.ingest_stream(events[cut:])
    assert resumed.store.pending_events == len(events) - cut

    uninterrupted = _builder(dataset).blocking(blocking).workspace().stream()
    assert _result_log(first_results) + _result_log(resumed_results) == _result_log(
        uninterrupted.ingest_stream(events)
    )
    assert _state(resumed.store) == _state(uninterrupted.store)
    resumed.store.close()
    # ... and the tail the upgraded file took resumes in another process.
    assert _state(workspace().stream().store) == _state(uninterrupted.store)


def _meta(path, key):
    """One ``meta`` value of the store file at ``path``, read aside."""
    connection = sqlite3.connect(path)
    try:
        (value,) = connection.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
    finally:
        connection.close()
    return value


def test_second_writer_gets_database_is_locked_and_nothing_half_applied(
    dataset, tmp_path
):
    """A writer holds SQLite's lock only inside ``commit()``, so another
    connection's write transaction is what it can meet: while one is
    open, an ingest fails at its commit with ``database is locked``
    (after the busy timeout: 5 s by default, 50 ms here), rolled back
    whole; once the lock is released, the retry succeeds as if alone."""
    events = list(arrival_stream(dataset, seed=5).events)
    path = tmp_path / "shared.db"
    matcher = _sqlite_workspace(dataset, path).stream()
    matcher.ingest_stream(events[:10])
    store = matcher.store
    (default_timeout,) = store.connection.execute("PRAGMA busy_timeout").fetchone()
    assert default_timeout == 5000
    store.connection.execute("PRAGMA busy_timeout=50")
    held = events[10]
    other = sqlite3.connect(path, isolation_level=None)
    other.execute("BEGIN IMMEDIATE")  # the write lock, held

    def observed():
        return (
            store.connection.execute(
                "SELECT COUNT(*) FROM records UNION ALL SELECT COUNT(*) FROM events"
            ).fetchall(),
            store.comparisons, store.merges,
        )

    before = observed()
    state_before = _state(store)
    with pytest.raises(sqlite3.OperationalError, match="database is locked"):
        matcher.ingest(held.side, held.values, tid=held.tid)
    # The failed commit rolled the unit back: nothing of it is left in
    # the file, in memory (reloaded from the checkpoint, the committed
    # tail replayed) or in the counters, and no transaction is open.
    assert observed() == before
    assert _state(store) == state_before
    assert not store.connection.in_transaction

    other.execute("ROLLBACK")
    other.close()
    retried = matcher.ingest(held.side, held.values, tid=held.tid)

    alone = _memory_workspace(dataset).stream()
    alone.ingest_stream(events[:10])
    assert retried == alone.ingest(held.side, held.values, tid=held.tid)
    assert _state(store) == _state(alone.store)
    store.close()
