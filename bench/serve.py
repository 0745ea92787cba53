"""``serve_mixed``: a real ``repro serve`` child over SQLite, driven over
the wire with stdlib ``http.client`` on two keep-alive connections.

Set-up boots the child on an ephemeral port and bulk-loads the first
part of the stream.  Phase ``bulk`` (closed loop, both connections,
16-record ``POST /ingest``) gives capacity; phase ``online`` (open loop
at a fixed rate, schedule fixed by the seed: single-record ingests,
``GET /query`` and a small ``POST /match``) gives latency, each op timed
from the instant it was *due*.  It is the only workload where
``serve.http``, ``serve.batching``, ``serve.tenants`` and ``ingest_batch``
run, and it mixes writes, reads and a batch match on one tenant lock.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.schema import LEFT

from . import inputs
from .common import (
    ClusterKey,
    child_env,
    cluster_keys,
    clusters_digest,
    expected_digest,
    implied_pairs,
    pair_f1,
    percentile,
    segment_percentile,
    wait_child,
)
from .hostspeed import AsMeasured, HostSpeed, pin
from .result import Measure, PassResult, median_of, uncompensated

HOST = "127.0.0.1"
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 60.0
#: Phase online is cut into this many segments of at least SEGMENT_OPS
#: ops for the percentiles.  Five, so that a stall across a boundary
#: spoils two and the median of five still stands; each segment's p95 then
#: leaves only six samples beyond it, thirty-two over the phase.
SEGMENTS = 5
SEGMENT_OPS = 100


def _side(event) -> str:
    return "left" if event.side == LEFT else "right"


def _record(event) -> Dict[str, object]:
    """A stream event as the ``POST /ingest`` record shape."""
    return {
        "side": _side(event),
        "values": dict(event.values),
        "tid": event.tid,
    }


class Op:
    """One request of either phase, with its three timestamps."""

    __slots__ = ("kind", "method", "path", "body", "events", "due", "sent",
                 "done", "status", "reply", "problem")

    def __init__(self, kind: str, method: str, path: str, body=None, events=()):
        self.kind = kind
        self.method = method
        self.path = path
        self.body = body
        self.events = events
        self.due = self.sent = self.done = 0.0
        self.status: Optional[int] = None
        self.reply: object = None
        self.problem: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.problem is None

    def record(self) -> Dict[str, object]:
        return {
            "kind": self.kind, "due": self.due, "sent": self.sent,
            "done": self.done, "status": self.status, "problem": self.problem,
        }


class ServerChild:
    """The ``repro serve`` child: ephemeral port, always reaped."""

    def __init__(self, spec_path: Path, log_path: Path, cpu: int) -> None:
        self.log_path = log_path
        self.port: Optional[int] = None
        self.rss_mb = 0.0
        self.returncode: Optional[int] = None
        began = time.perf_counter()
        self._log = log_path.open("wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--spec", str(spec_path), "--host", HOST, "--port", "0"],
            stdout=self._log, env=child_env(),
        )
        pin(self.process.pid, cpu)
        try:
            self._await_ready(began + BOOT_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - began

    def _await_ready(self, deadline: float) -> None:
        marker = b"listening on http://"
        while self.port is None:
            if self.process.poll() is not None:
                raise RuntimeError(f"serve child exited with {self.process.returncode}")
            if time.perf_counter() > deadline:
                raise RuntimeError("serve child did not print its address in time")
            for line in self.log_path.read_bytes().splitlines():
                if marker in line:
                    self.port = int(line.rsplit(b":", 1)[1])
            if self.port is None:
                time.sleep(0.005)
        while True:
            try:
                connection = self.connect()
                try:
                    connection.request("GET", "/healthz")
                    if connection.getresponse().status == 200:
                        return
                finally:
                    connection.close()
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("serve child never answered /healthz")
            time.sleep(0.005)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(HOST, self.port, timeout=REQUEST_TIMEOUT_S)

    def stop(self) -> float:
        """SIGINT, wait for the drain, kill if it hangs; returns seconds
        from the signal to the exit.  Safe to call twice."""
        began = time.perf_counter()
        if self.returncode is None:
            if self.process.returncode is None:
                # os.kill, not Popen.send_signal: the latter polls first
                # and would reap the child before wait4 can read its rusage.
                os.kill(self.process.pid, signal.SIGINT)
                self.returncode, self.rss_mb = wait_child(self.process, DRAIN_TIMEOUT_S)
            else:
                self.returncode = self.process.returncode
            self._log.close()
        return time.perf_counter() - began


def call(connection, op: Op) -> None:
    """Send ``op`` on ``connection``; stamp it and keep status and body."""
    payload = json.dumps(op.body).encode("utf-8") if op.body is not None else None
    headers = {"Content-Type": "application/json"} if payload else {}
    op.sent = time.perf_counter()
    try:
        connection.request(op.method, op.path, body=payload, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        op.status = response.status
    except (OSError, http.client.HTTPException) as error:
        # Refused or timed out: a failure, and the connection is spent.
        op.done = time.perf_counter()
        op.problem = f"{type(error).__name__}: {error}"
        connection.close()
        return
    op.done = time.perf_counter()
    if op.status != 200:
        op.problem = f"HTTP {op.status}"
        return
    try:
        op.reply = json.loads(raw)
    except ValueError:
        op.problem = "unreadable JSON reply"


class ServeWorkload:
    repeats = 1

    def __init__(self, name: str, seed: int, seconds: float, tiny: bool, workdir: Path,
                 host: HostSpeed):
        self.name = name
        self.host = host
        #: The set-up is the server child's work.
        self.setup_timeline = host.program
        self.seed = seed
        self.tiny = tiny
        self.seconds = seconds
        self.config = inputs.sizes(tiny)[name]
        self.dir = workdir / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.server: Optional[ServerChild] = None
        self.traced = False
        self.boots = 0

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        """Boot the child to ``/healthz`` and bulk-load the warm events."""
        from repro.datagen.streams import arrival_stream

        self.close()
        config = self.config
        self.source = inputs.dataset(config["K"], self.seed)
        events = list(arrival_stream(self.source, self.seed).events)
        warm, bulk = config["warm_events"], config["bulk_events"]
        self.warm_events = events[:warm]
        self.bulk_events = events[warm:warm + bulk]
        self.online_events = events[warm + bulk:]
        self.acked: Dict[int, object] = {}
        self.boots += 1
        store = self.dir / f"store_{self.boots}.db"
        self.spec = inputs.build_spec(
            self.source, config["blocking"], store_path=store, serve=True,
            traced=self.traced,
        )
        spec_path = self.dir / f"spec_{self.boots}.json"
        self.spec.save(spec_path)
        self.server = ServerChild(
            spec_path, self.dir / f"serve_{self.boots}.log", self.host.program_cpu)
        loaded, _ = self._closed_loop(self.warm_events)
        bad = [op for op in loaded if not op.ok]
        if bad:
            raise RuntimeError(f"warm load failed: {bad[0].problem}")

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- load generation -------------------------------------------------

    def _workers(self, source: "queue.Queue") -> List[threading.Thread]:
        """One thread per connection, each pulling ops until ``None``."""

        def work() -> None:
            connection = self.server.connect()
            try:
                while True:
                    op = source.get()
                    if op is None:
                        return
                    call(connection, op)
            finally:
                connection.close()

        threads = [
            threading.Thread(target=work, name=f"bench-conn-{index}")
            for index in range(self.config["connections"])
        ]
        for thread in threads:
            thread.start()
        return threads

    def _finish_ops(self, ops: Sequence[Op]) -> None:
        """After the clock: check replies and remember the acked events."""
        for op in ops:
            if not op.ok:
                continue
            if op.kind == "ingest":
                results = op.reply.get("results", [])
                if len(results) != len(op.events):
                    op.problem = "ingest reply does not cover the request"
                    continue
                for event, result in zip(op.events, results):
                    self.acked[result["seq"]] = event
            elif op.kind == "query":
                target = op.events[0]
                if target.tid not in op.reply.get(f"{_side(target)}_tids", ()):
                    op.problem = "query reply does not hold the queried record"
            elif op.kind == "match":
                if op.reply.get("spec_fingerprint") != self.spec.fingerprint():
                    op.problem = "match reply carries another fingerprint"
            op.reply = None

    def _closed_loop(self, events) -> Tuple[List[Op], float]:
        """Every connection sends its next batch as soon as the previous
        one is answered; returns the ops and the wall of the whole load."""
        size = self.config["bulk_batch"]
        ops = [
            Op("ingest", "POST", "/ingest",
               {"records": [_record(event) for event in events[start:start + size]]},
               events[start:start + size])
            for start in range(0, len(events), size)
        ]
        source: "queue.Queue" = queue.Queue()
        for op in ops:
            source.put(op)
        for _ in range(self.config["connections"]):
            source.put(None)
        began = time.perf_counter()
        for thread in self._workers(source):
            thread.join()
        wall = time.perf_counter() - began
        self._finish_ops(ops)
        self.loop_began = began
        return ops, wall

    def _schedule(self) -> List[Op]:
        """The open-loop phase's ops and due offsets, fixed by the seed."""
        config = self.config
        rng = random.Random(self.seed)
        online_seconds = (
            inputs.TINY_ONLINE_SECONDS if self.tiny
            else max(5.0, self.seconds - config["bulk_nominal_s"])
        )
        rate = config["rate_ops_per_s"]
        mix = config["mix"]
        total = int(rate * online_seconds)
        # Every ingest needs an event the server has not seen yet.
        total = min(total, int(len(self.online_events) / mix["ingest"]))
        ingests = round(total * mix["ingest"])
        matches = round(total * mix["match"])
        kinds = (["ingest"] * ingests + ["match"] * matches
                 + ["query"] * (total - ingests - matches))
        rng.shuffle(kinds)
        known = self.warm_events + self.bulk_events
        fresh = iter(self.online_events)
        left_rows, right_rows = config["match_rows"]
        credit = [row.values() for row in self.source.credit]
        billing = [row.values() for row in self.source.billing]
        ops = []
        for index, kind in enumerate(kinds):
            if kind == "ingest":
                event = next(fresh)
                op = Op(kind, "POST", "/ingest", _record(event), (event,))
            elif kind == "query":
                target = rng.choice(known)
                op = Op(kind, "GET", f"/query/{target.tid}?side={_side(target)}",
                        events=(target,))
            else:
                op = Op(kind, "POST", "/match", {
                    "left": rng.sample(credit, min(left_rows, len(credit))),
                    "right": rng.sample(billing, min(right_rows, len(billing))),
                })
            op.due = index / rate
            ops.append(op)
        return ops

    def _open_loop(self, ops: List[Op]) -> None:
        """This thread is the scheduler: it releases each op at its due
        time whatever the server is doing; the connections pull."""
        source: "queue.Queue" = queue.Queue()
        threads = self._workers(source)
        origin = time.perf_counter() + 0.05
        for op in ops:
            op.due += origin
            delay = op.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            source.put(op)
        for _ in threads:
            source.put(None)
        for thread in threads:
            thread.join()
        self._finish_ops(ops)

    def _one(self, method: str, path: str, body=None) -> Op:
        op = Op("probe", method, path, body)
        connection = self.server.connect()
        try:
            call(connection, op)
        finally:
            connection.close()
        return op

    # -- end-to-end pass -------------------------------------------------

    def warmup(self) -> None:
        """The warm load exercised ingest; touch the other two endpoints."""
        first = self.warm_events[0]
        self._one("GET", f"/query/{first.tid}?side={_side(first)}")
        self._one("POST", "/match", {
            "left": [row.values() for row in list(self.source.credit)[:2]],
            "right": [row.values() for row in list(self.source.billing)[:2]],
        })

    def repeat(self, index: int) -> None:
        self.bulk_ops, self.bulk_wall = self._closed_loop(self.bulk_events)
        self.bulk_began = self.loop_began
        self.online_ops = self._schedule()
        self._open_loop(self.online_ops)

    def _readback(self) -> Tuple[List[ClusterKey], List[str]]:
        """The server's final clusters, one ``/query`` per cluster."""
        problems: List[str] = []
        seen = set()
        clusters = []
        connection = self.server.connect()
        try:
            for event in self.acked.values():
                side = _side(event)
                if (side, event.tid) in seen:
                    continue
                op = Op("readback", "GET", f"/query/{event.tid}?side={side}")
                call(connection, op)
                if not op.ok:
                    problems.append(f"readback of {side} {event.tid}: {op.problem}")
                    seen.add((side, event.tid))
                    continue
                clusters.append(op.reply)
                seen.update(("left", tid) for tid in op.reply["left_tids"])
                seen.update(("right", tid) for tid in op.reply["right_tids"])
        finally:
            connection.close()
        return cluster_keys(clusters), problems

    def _replay(self) -> List[ClusterKey]:
        """The acked events, in ``seq`` order, through an offline engine."""
        from repro.api import Workspace

        spec = inputs.build_spec(self.source, self.config["blocking"])
        matcher = Workspace(spec).stream()
        for seq in sorted(self.acked):
            event = self.acked[seq]
            matcher.ingest(event.side, event.values, tid=event.tid)
        return cluster_keys(matcher.store.clusters())

    def _wind_down(self) -> Dict[str, object]:
        """Everything after the timed phases: server metrics, read-back,
        drain, replay.  Returns the facts both passes report from."""
        problems: List[str] = []
        metrics_op = self._one("GET", "/metrics")
        if not metrics_op.ok:
            problems.append(f"/metrics: {metrics_op.problem}")
        served, readback_problems = self._readback()
        problems.extend(readback_problems)
        drain_s = self.server.stop()
        if self.server.returncode != 0:
            problems.append(f"serve child exit code {self.server.returncode}")
        if served != self._replay():
            problems.append("served clusters differ from the offline replay in seq order")
        if sorted(self.acked) != list(range(len(self.acked))):
            problems.append("acked seq numbers are not 0..n-1")
        pinned = expected_digest(self.name, self.seed, self.tiny)
        if (pinned is not None and self.seconds == inputs.DEFAULT_SECONDS
                and clusters_digest(served) != pinned):
            problems.append(
                f"cluster digest {clusters_digest(served)[:12]} != pinned {pinned[:12]}"
            )
        ops = self.bulk_ops + self.online_ops
        problems.extend(
            f"{op.kind} op: {op.problem}" for op in ops if not op.ok
        )
        server_metrics = metrics_op.reply if metrics_op.ok else {}
        status = server_metrics.get("server", {}).get("counters", {})
        if status.get("serve.status.5xx", 0):
            problems.append(f"{status['serve.status.5xx']} 5xx responses")
        return {
            "problems": problems,
            "served": served,
            "drain_s": drain_s,
            "server_metrics": server_metrics,
            "attempted": len(ops),
            "failed": sum(1 for op in ops if not op.ok),
        }

    def _truth(self) -> set:
        """Ground truth restricted to the records the server was given."""
        left = {e.tid for e in self.acked.values() if e.side == LEFT}
        right = {e.tid for e in self.acked.values() if e.side != LEFT}
        return {
            (l, r) for l, r in self.source.true_matches if l in left and r in right
        }

    def _latency_ms(self, kind: Optional[str] = None) -> List[float]:
        """``done - due`` per online op; a failed op counts as the request
        time-out, so failing fast can never flatter a percentile."""
        return [
            (op.done - op.due if op.ok else REQUEST_TIMEOUT_S) * 1000.0
            for op in self.online_ops
            if kind is None or op.kind == kind
        ]

    def _timings(self, timeline) -> Dict[str, Measure]:
        """Every timing is divided by the slowdown of the server's CPU
        while it was taken: phase bulk's wall by that of the phase, an
        op's latency by that of the second around its due time.  Not all
        of a latency: a single-record ingest waits out the batching
        linger the spec sets, a timer no slow CPU stretches, so that part
        stays as it is; and a failed op keeps the time-out it counts as.
        The percentiles are medians over the segments of the phase."""
        linger_ms = float(self.spec.serve_max_delay_ms)
        latency = []
        for ms, op in zip(self._latency_ms(), self.online_ops):
            fixed = linger_ms if op.kind == "ingest" else 0.0
            if op.ok and ms > fixed:
                ms = fixed + (ms - fixed) / timeline.slowdown_at(op.due)
            latency.append(ms)
        pieces = max(1, min(SEGMENTS, len(latency) // SEGMENT_OPS))
        size = -(-len(latency) // pieces)
        segments = [latency[start:start + size] for start in range(0, len(latency), size)]
        bulk_wall = self.bulk_wall / timeline.slowdown(
            self.bulk_began, self.bulk_began + self.bulk_wall)
        return {
            "records_per_s": Measure(len(self.bulk_events) / bulk_wall),
            "latency_p50_ms": Measure(segment_percentile(segments, 50), latency),
            "latency_p95_ms": Measure(segment_percentile(segments, 95), latency),
        }

    def finish(self) -> PassResult:
        facts = self._wind_down()
        metrics = {
            **self._timings(self.host.program),
            "peak_rss_mb": Measure(self.server.rss_mb),
            "f1": Measure(pair_f1(implied_pairs(facts["served"]), self._truth())),
        }
        return PassResult(
            metrics, attempted=facts["attempted"], failed_ops=facts["failed"],
            problems=facts["problems"],
            raw={
                **self._raw(facts),
                "uncompensated": uncompensated(self._timings(AsMeasured)),
            },
        )

    def _raw(self, facts: Dict[str, object]) -> Dict[str, object]:
        return {
            "bulk_wall_s": self.bulk_wall,
            "bulk_ops": [op.record() for op in self.bulk_ops],
            "online_ops": [op.record() for op in self.online_ops],
            "rate_ops_per_s": self.config["rate_ops_per_s"],
            "server_metrics": facts["server_metrics"],
            "cluster_digest": clusters_digest(facts["served"]),
        }

    # -- traced pass -----------------------------------------------------

    def trace(self) -> PassResult:
        """Per-layer numbers come from the child's public ``/metrics`` and
        from the client's own clocks; the traced child runs with the
        spec's ``observability.enabled``.  The untraced child the harness
        already set up runs phase ``bulk`` first, as the overhead base."""
        _, untraced_bulk = self._closed_loop(self.bulk_events)
        self.traced = True
        self.setup()
        self.warmup()
        self.repeat(0)
        facts = self._wind_down()

        server = facts["server_metrics"].get("server", {})
        tenant = next(iter(facts["server_metrics"].get("tenants", {}).values()), {})
        engine = tenant.get("metrics", {})
        limit = self.config["limit_ms"]

        def server_ms(endpoint: str, quantile: str) -> Measure:
            summary = server.get("histograms", {}).get(f"serve.{endpoint}.seconds", {})
            if quantile not in summary:
                return Measure(None, note=f"/metrics has no serve.{endpoint}.seconds")
            return Measure(
                summary[quantile] * 1000.0,
                note=f"{summary['count']} requests since boot, warm load included",
            )

        def client_p50(kind: str) -> Measure:
            samples = self._latency_ms(kind)
            return Measure(percentile(samples, 50), samples) if samples else Measure(
                None, note=f"no {kind} op in this schedule")

        latency = self._latency_ms()
        over = sum(1 for ms in latency if ms > limit)
        lag = [(op.sent - op.due) * 1000.0 for op in self.online_ops]
        bulk_ms = [(op.done - op.sent) * 1000.0 for op in self.bulk_ops]
        ops = self.bulk_ops + self.online_ops
        query_server = server_ms("query", "p50")
        query_client = client_p50("query")
        counters = server.get("counters", {})
        batch_sizes = engine.get("histograms", {}).get("engine.batch_size", {})
        batch_seconds = engine.get("histograms", {}).get("engine.batch_seconds", {})
        metrics: Dict[str, Measure] = {
            "serve.ingest.server_p50_ms": server_ms("ingest", "p50"),
            "serve.ingest.server_p95_ms": server_ms("ingest", "p95"),
            "serve.query.server_p50_ms": query_server,
            "serve.match.server_p50_ms": server_ms("match", "p50"),
            "serve.batching.batches": Measure(engine.get("counters", {}).get("engine.batches", 0)),
            "serve.batching.batch_size_mean": Measure(batch_sizes.get("mean", 0.0)),
            "serve.engine.batch_p50_ms": Measure(batch_seconds.get("p50", 0.0) * 1000.0),
            "serve.status.2xx": Measure(counters.get("serve.status.2xx", 0)),
            "serve.status.4xx": Measure(counters.get("serve.status.4xx", 0)),
            "serve.status.5xx": Measure(counters.get("serve.status.5xx", 0)),
            "serve.shed_429": Measure(
                sum(1 for op in ops if op.status == 429),
                note="counted by the client: the server has no 429 counter",
            ),
            "serve.online.ingest_p50_ms": client_p50("ingest"),
            "serve.online.query_p50_ms": query_client,
            "serve.online.match_p50_ms": client_p50("match"),
            "serve.online.latency_p99_ms": Measure(percentile(latency, 99), latency),
            "serve.online.over_limit_frac": Measure(
                over / len(latency), note=f"limit {limit:g} ms from due time"),
            "serve.online.generator_lag_p95_ms": Measure(percentile(lag, 95), lag),
            "serve.bulk.request_p50_ms": median_of(bulk_ms),
            "serve.http.framing_overhead_ms": Measure(
                None if None in (query_client.value, query_server.value)
                else query_client.value - query_server.value,
                note="client p50 - server p50 on /query",
            ),
            "serve.boot_s": Measure(self.server.boot_s),
            "serve.drain_s": Measure(facts["drain_s"]),
            "obs.trace_overhead_frac": Measure(
                self.bulk_wall / untraced_bulk - 1.0,
                note=f"phase bulk {untraced_bulk:.3f} s untraced, "
                     f"{self.bulk_wall:.3f} s traced",
            ),
        }
        return PassResult(
            metrics, attempted=facts["attempted"], failed_ops=facts["failed"],
            problems=facts["problems"], raw=self._raw(facts),
            spans=[
                {"id": index, "name": f"serve.op.{op.kind}", "start": op.due,
                 "end": op.done, "parent": None, "workload": self.name}
                for index, op in enumerate(self.online_ops)
            ],
        )
