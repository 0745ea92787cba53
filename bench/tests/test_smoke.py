"""Smoke test of the benchmark itself: shape, names and units — never timing."""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bench(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def test_tiny_run_prints_every_declared_metric_once(tmp_path):
    out = tmp_path / "bench.json"
    done = _bench("--tiny", "--seed", "7", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    for tier in ("end_to_end", "per_layer"):
        for entry in BENCHMARK[tier]:
            assert NAME.fullmatch(entry["name"]), entry["name"]
            for workload in WORKLOADS:
                hits = [
                    line for line in lines
                    if line.startswith(f"{workload} {entry['name']} ")
                ]
                assert len(hits) == 1, (workload, entry["name"], hits)
                _, _, unit, value = hits[0].split()[:4]
                assert unit == entry["unit"]
                if value == "null":
                    # A null is always explained.
                    assert re.search(r"\(.+\)$", hits[0]), hits[0]
                else:
                    assert math.isfinite(float(value)), hits[0]

    document = json.loads(out.read_text(encoding="utf-8"))
    record = document["record"]
    for key in ("commit", "seed", "nproc", "python", "sizes"):
        assert key in record
    assert record["seed"] == 7 and set(record["sizes"]) == set(WORKLOADS)
    for tier in ("end_to_end", "per_layer"):
        assert set(document[tier]) == set(WORKLOADS)
        for workload, result in document[tier].items():
            assert result["correct"] and result["failed"] == 0, (workload, result["problems"])
    assert any(document["per_layer"][name]["spans"] for name in WORKLOADS)


def test_driver_form_ends_in_the_contract_object():
    done = _bench("--tiny", "--workload", "match_dense", "--seed", "3",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    declared = {entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]}
    assert {name: metric["unit"] for name, metric in last["metrics"].items()} == declared
    assert all(metric["value"] > 0 for metric in last["metrics"].values())
