"""A durable store is its input log plus a checkpoint.

A unit of matcher ingests commits only its records, as ``events`` rows;
the records, clusters and counters the engine derives from them are
written by a checkpoint.  Everything a crash can leave — a tail of
acknowledged events the checkpoint does not hold — must replay, through
a matcher built over the store, to the state an uninterrupted run
reaches.  A store no matcher replayed serves its last checkpoint and
refuses writes; a tail another release wrote is refused.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.api import Workspace
from repro.cli import main
from repro.core.schema import LEFT
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.datagen.streams import arrival_stream
from repro.engine import SQLiteMatchStore, save_store
from repro.engine.sqlite import store as store_module
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.relations.csvio import load_relation

from store_state import state

REPO = Path(__file__).resolve().parents[2]

#: The tail bound the crash tests run under: small, so a short stream
#: crosses checkpoints.
BOUND = 16


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(60, seed=11)


@pytest.fixture(scope="module")
def events(dataset):
    return list(arrival_stream(dataset, seed=5).events)


def _workspace(dataset, path=None) -> Workspace:
    builder = (
        Workspace.builder()
        .pair(dataset.pair)
        .target(dataset.target)
        .mds(extended_mds(dataset.pair))
        .execution(top_k=5)
    )
    if path is not None:
        builder.persistence("sqlite", str(path))
    return builder.workspace()


@pytest.fixture(scope="module")
def stream_state(dataset, events):
    """The state an uninterrupted run of the first 50 events ends in."""
    return _uninterrupted(dataset, events[:50])


def _uninterrupted(dataset, events):
    matcher = _workspace(dataset).stream()
    matcher.ingest_stream(events)
    return state(matcher.store)


def _ingest(matcher, events, cuts):
    """Ingest ``events`` in micro-batches ending at each of ``cuts``."""
    start = 0
    for end in sorted(set(cuts) | {len(events)}):
        if end > start:
            matcher.ingest_batch(events[start:end])
            start = end


# ----------------------------------------------------------------------
# A process killed after an acknowledged commit
# ----------------------------------------------------------------------

#: The writer: one commit per event, each acknowledged on stdout, then
#: it waits to be killed after the ``cut``-th.
CHILD = """
import sys, time
sys.path.insert(0, {tests!r})
from repro.engine.sqlite import store as store_module
from repro.datagen.generator import generate_dataset
from repro.datagen.streams import arrival_stream
from test_replay import BOUND, _workspace
store_module.CHECKPOINT_EVENTS = BOUND
dataset = generate_dataset(60, seed=11)
events = list(arrival_stream(dataset, seed=5).events)
matcher = _workspace(dataset, {path!r}).stream()
for acked, event in enumerate(events[:{cut}], 1):
    matcher.ingest(event.side, event.values, tid=event.tid)
    print(acked, flush=True)
time.sleep(120)
"""


@pytest.mark.parametrize(
    "cut, pending",
    [(BOUND - 1, BOUND - 1), (BOUND, 0), (BOUND + 1, 1), (2 * BOUND + 3, 3)],
    ids=["before-checkpoint", "at-checkpoint", "after-checkpoint", "second-window"],
)
def test_a_killed_writer_resumes_by_replaying_its_tail(
    dataset, events, tmp_path, cut, pending
):
    path = tmp_path / "killed.db"
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD.format(
            tests=str(REPO / "tests" / "engine"), path=str(path), cut=cut
        )],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src") + os.pathsep + str(REPO / "tests")},
    )
    try:
        for acked, line in enumerate(child.stdout, 1):
            assert int(line) == acked
            if acked == cut:
                break
        else:
            pytest.fail(f"the writer exited with {child.wait()} before {cut} acks")
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait()
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL

    # A reader serves the checkpoint and reports the tail beside it.
    reader = SQLiteMatchStore(path)
    assert reader.pending_events == pending
    assert len(reader.left) + len(reader.right) == cut - pending
    reader.close()
    # A matcher replays the tail: the state of the first ``cut`` events ...
    resumed = _workspace(dataset, path).stream()
    assert resumed.store.pending_events == 0
    assert state(resumed.store) == _uninterrupted(dataset, events[:cut])
    # ... and the rest of the stream ends where an uninterrupted run does.
    resumed.ingest_stream(events[cut:])
    assert state(resumed.store) == _uninterrupted(dataset, events)
    resumed.store.close()
    with SQLiteMatchStore(path) as closed:
        assert closed.pending_events == 0
        assert state(closed) == _uninterrupted(dataset, events)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_a_crash_anywhere_in_any_partition_replays_to_the_uninterrupted_run(
    dataset, events, stream_state, tmp_path_factory, data
):
    """In process: the writer streams the events in random micro-batches
    under a small tail bound, is abandoned without a close after a random
    acknowledged unit, and a new matcher finishes the stream in another
    random partition."""
    stream = events[:50]
    cut = data.draw(st.integers(1, len(stream)), label="cut")
    before = data.draw(st.lists(st.integers(1, cut), max_size=8), label="before")
    after = data.draw(st.lists(st.integers(cut, len(stream)), max_size=8), label="after")
    path = tmp_path_factory.mktemp("crash") / "store.db"
    bound = store_module.CHECKPOINT_EVENTS
    store_module.CHECKPOINT_EVENTS = 8
    try:
        writer = _workspace(dataset, path).stream()
        _ingest(writer, stream[:cut], before)
        # Dies: no close, no checkpoint (os._exit would do the same).
        writer.store.connection.close()
        resumed = _workspace(dataset, path).stream()
        _ingest(resumed, stream[cut:], [end - cut for end in after])
    finally:
        store_module.CHECKPOINT_EVENTS = bound
    assert state(resumed.store) == stream_state
    resumed.store.close()


def test_a_unit_with_a_change_outside_an_ingest_is_a_checkpoint(dataset, events, tmp_path):
    """A union made directly on the store rides the next ingest's unit: no
    replay of the ingest's event would redo it, so that unit checkpoints."""
    path = tmp_path / "mixed.db"
    matcher = _workspace(dataset, path).stream()
    matcher.ingest_stream(events[:6])
    assert matcher.store.pending_events == 6
    first, second = [(event.side, event.tid) for event in events[:2]]
    tags = {0: "L", 1: "R"}
    assert matcher.store.union((tags[first[0]], first[1]), (tags[second[0]], second[1]))
    matcher.ingest(events[6].side, events[6].values, tid=events[6].tid)
    assert matcher.store.pending_events == 0
    expected = state(matcher.store)
    matcher.store.connection.close()
    resumed = _workspace(dataset, path).stream()
    assert resumed.store.same((tags[first[0]], first[1]), (tags[second[0]], second[1]))
    assert state(resumed.store) == expected
    resumed.store.close()


# ----------------------------------------------------------------------
# What is refused
# ----------------------------------------------------------------------


def _abandoned(dataset, events, path, count):
    """A store whose writer died after ``count`` acknowledged ingests."""
    matcher = _workspace(dataset, path).stream()
    matcher.ingest_stream(events[:count])
    matcher.store.connection.close()


def _stamp_release(path, release):
    connection = sqlite3.connect(path)
    with connection:
        connection.execute("UPDATE meta SET value = ? WHERE key = 'release'", (release,))
    connection.close()


def test_a_tail_another_release_wrote_is_refused(dataset, events, tmp_path, capsys):
    path = tmp_path / "other.db"
    _abandoned(dataset, events, path, 5)
    _stamp_release(path, "0.0.1")
    with pytest.raises(ValueError, match=r"5 event\(s\) ingested by repro 0\.0\.1"):
        _workspace(dataset, path).stream()
    # Its release replays it; then any release resumes the checkpoint.
    _stamp_release(path, __version__)
    resumed = _workspace(dataset, path).stream()
    assert len(resumed.store.left) + len(resumed.store.right) == 5
    resumed.store.close()


def test_the_cli_refuses_another_releases_tail_in_one_line(tmp_path, capsys):
    spec = REPO / "examples" / "spec.json"
    credit = REPO / "examples" / "data" / "credit.csv"
    path = tmp_path / "other.db"
    workspace = Workspace.from_file(spec)
    matcher = workspace.stream(store=workspace.open_store(path))
    matcher.ingest_stream(
        (LEFT, row.values(), row.tid)
        for row in load_relation(workspace.plan.pair.left, credit)
    )
    matcher.store.connection.close()
    _stamp_release(path, "0.0.1")
    before = path.read_bytes()
    code = main(["engine", "ingest", "--spec", str(spec), "--store", str(path),
                 "--right", str(REPO / "examples" / "data" / "billing.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: {path}: store {path} holds 2 event(s) ingested by repro 0.0.1 "
        f"and not yet checkpointed; this is repro {__version__}: open and close "
        "the store once with repro 0.0.1 first\n"
    )
    assert path.read_bytes() == before


def test_a_checkpoint_another_release_wrote_opens_and_is_restamped(dataset, events, tmp_path):
    path = tmp_path / "older.db"
    matcher = _workspace(dataset, path).stream()
    matcher.ingest_stream(events[:5])
    matcher.store.close()
    _stamp_release(path, "0.0.1")
    resumed = _workspace(dataset, path).stream()
    resumed.ingest_stream(events[5:8])
    resumed.store.connection.close()
    # The tail's first unit stamped the release that wrote it.
    reopened = _workspace(dataset, path).stream()
    assert state(reopened.store) == _uninterrupted(dataset, events[:8])
    reopened.store.close()


def test_a_store_no_matcher_replayed_serves_its_checkpoint_and_refuses_writes(
    dataset, events, tmp_path, capsys
):
    path = tmp_path / "reader.db"
    matcher = _workspace(dataset, path).stream()
    matcher.ingest_stream(events[:10])
    matcher.store.commit()  # an empty unit: a checkpoint
    matcher.ingest_stream(events[10:14])
    checkpointed = _uninterrupted(dataset, events[:10])

    reader = SQLiteMatchStore(path)
    assert reader.pending_events == 4 == reader.stats()["pending_events"]
    assert state(reader) == checkpointed
    # Writing would fold a checkpoint the tail does not follow from.
    reader.add(LEFT, {"FN": "Late"})
    with pytest.raises(ValueError, match="4 pending event"):
        reader.commit()
    reader.rollback()
    with pytest.raises(ValueError, match="4 pending event"):
        save_store(reader, tmp_path / "copy.db")
    reader.close()  # nothing to write: the tail stays
    with SQLiteMatchStore(path) as again:
        assert again.pending_events == 4

    # The CLI readers serve the checkpoint; ``query`` says so.
    assert main(["engine", "stats", "--store", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["pending_events"] == 4
    tid = events[0].tid
    side = "left" if events[0].side == LEFT else "right"
    assert main(["engine", "query", "--store", str(path), "--side", side,
                 "--tid", str(tid)]) == 0
    err = capsys.readouterr().err
    assert err == (
        f"note: {path} has 4 event(s) ingested since its last checkpoint; "
        "this answer is from the checkpoint\n"
    )
    matcher.store.close()
    assert main(["engine", "query", "--store", str(path), "--side", side,
                 "--tid", str(tid)]) == 0
    assert capsys.readouterr().err == ""


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------


def test_a_checkpoint_is_a_span_a_counter_and_a_gauge(dataset, events, tmp_path):
    workspace = _workspace(dataset, tmp_path / "traced.db")
    store = workspace.open_store()
    store.tracer, store.metrics = tracer, metrics = Tracer(), MetricsRegistry()
    matcher = workspace.stream(store=store)
    results = matcher.ingest_stream(events[:12])
    assert metrics.gauges["store.pending_events"] == 12
    assert metrics.counters["store.commits"] == 13  # (the fingerprint stamp)
    assert metrics.counters["store.checkpoints"] == 1
    store.close()
    assert metrics.gauges["store.pending_events"] == 0
    assert metrics.counters["store.checkpoints"] == 2
    checkpoint = [span for span in tracer.spans() if span.name == "store.checkpoint"][-1]
    assert any(result.merged for result in results)
    # Twelve new records, each in a cluster that changed: one row each.
    assert checkpoint.attrs == {"events": 12, "records": 12, "clusters": 12}
