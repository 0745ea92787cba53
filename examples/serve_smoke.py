"""Smoke the resolution service end to end with a stdlib-only client.

CI starts ``repro serve --spec examples/spec.json`` in the background,
then runs this script against it: wait for ``/healthz``, ingest the
example CSVs (credit cards left, billings right), query one record's
cluster, check that a request with one record outside the schema is
refused whole (a 400, and its good record is not stored), round-trip one
``/match`` request, and read the queue-wait percentiles off
``/metrics``.  Exit status 0 means every step answered
correctly.

Usage::

    python examples/serve_smoke.py [--host 127.0.0.1] [--port 8080]
"""

from __future__ import annotations

import argparse
import csv
import http.client
import json
import sys
import time
from pathlib import Path

DATA = Path(__file__).parent / "data"


def request(host, port, method, path, body=None, timeout=30):
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        if response.getheader("Content-Type", "").startswith(
            "application/json"
        ):
            return response.status, json.loads(raw)
        return response.status, raw.decode("utf-8")
    finally:
        connection.close()


def wait_healthy(host, port, deadline_seconds=30.0):
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        try:
            status, body = request(host, port, "GET", "/healthz", timeout=2)
            if status == 200 and body.get("status") == "ok":
                return body
        except OSError:
            pass
        time.sleep(0.25)
    raise SystemExit(f"server never became healthy on {host}:{port}")


def load_records(name, side):
    with (DATA / name).open(encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    records = []
    for row in rows:
        tid = row.pop("__tid__", None)
        records.append({
            "side": side,
            "values": row,
            "tid": int(tid) if tid is not None else None,
        })
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    args = parser.parse_args()
    host, port = args.host, args.port

    health = wait_healthy(host, port)
    print(f"healthy: primary tenant {health['fingerprint'][:12]}...")

    credit = load_records("credit.csv", "left")
    billing = load_records("billing.csv", "right")
    status, body = request(
        host, port, "POST", "/ingest", {"records": credit + billing}
    )
    assert status == 200, f"ingest failed: {status} {body}"
    results = body["results"]
    assert len(results) == len(credit) + len(billing)
    merged = sum(result["merged"] for result in results)
    print(f"ingested {len(results)} records, {merged} merged into clusters")

    first = results[0]
    status, cluster = request(
        host, port, "GET", f"/query/{first['tid']}?side={first['side']}"
    )
    assert status == 200, f"query failed: {status} {cluster}"
    print(
        f"cluster of {first['side']}/{first['tid']}: "
        f"{len(cluster['left_tids'])} left, "
        f"{len(cluster['right_tids'])} right"
    )

    # A request is admitted whole or not at all: one record naming an
    # attribute outside the schema refuses the request, good record too.
    unused = max(record["tid"] for record in credit + billing) + 1000
    good = dict(credit[0], tid=unused)
    status, body = request(
        host, port, "POST", "/ingest",
        {"records": [good, {"side": "left", "values": {"NOPE": "y"}}]},
    )
    assert status == 400, f"unknown attribute admitted: {status} {body}"
    status, body = request(host, port, "GET", f"/query/{unused}?side=left")
    assert status == 404, f"refused request stored its good record: {status} {body}"
    print(f"refused request stored nothing: {body['error']}")

    status, report = request(
        host, port, "POST", "/match",
        {
            "left": [record["values"] for record in credit[:3]],
            "right": [record["values"] for record in billing[:5]],
        },
    )
    assert status == 200, f"match failed: {status} {report}"
    assert "matches" in report, f"unexpected report shape: {sorted(report)}"
    print(f"match round-trip: {len(report['matches'])} match(es)")

    status, metrics = request(host, port, "GET", "/metrics")
    assert status == 200
    # Time in queue is the service's own number (no batching timer to
    # report: a batch is whatever is queued when the engine comes free).
    queue = metrics["tenants"][health["fingerprint"]]["queue"]
    assert "max_delay_ms" not in queue, f"removed key is back: {queue}"
    wait = queue["wait_seconds"]
    assert wait["count"] == len(results), f"queue waits: {wait}"
    assert 0.0 <= wait["p50"] <= wait["p95"], f"queue waits: {wait}"
    print(
        f"queue wait p50 {wait['p50'] * 1000:.2f} ms, "
        f"p95 {wait['p95'] * 1000:.2f} ms over {wait['count']} events"
    )
    requests_served = metrics["server"]["counters"]["serve.requests"]
    print(f"ok: server answered {requests_served} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
