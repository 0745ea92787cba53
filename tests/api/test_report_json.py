"""``MatchReport.to_json`` is ``json.dumps(report.to_dict(), sort_keys=True)``.

The writer formats the pair lists itself and encodes each distinct rule
tuple once, so it is held to the generic encoder byte for byte: on the
golden reports (histograms included), on constructed edge cases, and as
``repro match --json`` prints it.
"""

from __future__ import annotations

import json

import pytest

from repro.api import MatchReport, Workspace
from repro.cli import main
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.matching.clustering import Cluster
from repro.relations.csvio import save_relation
from test_report_golden import GOLDEN


def _encoded(report):
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.mark.parametrize(
    "case", sorted(GOLDEN), ids=lambda case: f"{case[0]}-K{case[2]}-s{case[3]}"
)
def test_golden_reports_encode_alike(case):
    backend, options, size, seed = case
    source = generate_dataset(size, seed=seed)
    workspace = (
        Workspace.builder()
        .pair(source.pair)
        .target(source.target)
        .mds(extended_mds(source.pair))
        .blocking(backend, **dict(options))
        .execution(top_k=5)
        .workspace()
    )
    report = workspace.match(source.credit, source.billing)
    assert report.stats["histograms"]
    assert report.to_json() == _encoded(report)


def _report(**fields):
    defaults = dict(
        matches=(),
        candidates=(),
        clusters=(),
        provenance={},
        stats={},
        fingerprint="0123456789abcdef",
        mode="enforce",
    )
    return MatchReport(**{**defaults, **fields})


SHARED = ("md0", "rck1")

CONSTRUCTED = {
    "empty": _report(),
    "no matches": _report(candidates=((0, 1), (2, 3)), mode="direct"),
    "a match without provenance": _report(
        matches=((0, 1), (2, 3), (4, 5)),
        candidates=((0, 1), (2, 3), (4, 5)),
        clusters=(Cluster(frozenset({2, 0}), frozenset({3, 1})),),
        provenance={(0, 1): SHARED, (4, 5): ("md0", "rck1"), (9, 9): ("x",)},
    ),
    "an empty rule tuple": _report(
        matches=((7, 3),), candidates=((7, 3),), provenance={(7, 3): ()}
    ),
    "nested stats": _report(
        stats={
            "rounds": 3,
            "ratio": 0.1 + 0.2,
            "big": 1e300,
            "none": None,
            "empty": {},
            "flag": True,
            "gauges": {"z": 1.5, "a": {"q": [1, 2.5, None]}},
            "histograms": {"match.seconds": {"p50": 0.25, "count": 1}},
        },
    ),
    "non-ascii names": _report(
        matches=((1, 2),), candidates=((1, 2),), provenance={(1, 2): ("ϕ1", 'a"b')},
        fingerprint="ﬁngerprint", mode="direct",
    ),
    "clusters without matches": _report(
        clusters=(Cluster(frozenset({5}), frozenset()), Cluster(frozenset(), frozenset({1, 0}))),
    ),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTED))
def test_constructed_reports_encode_alike(name):
    report = CONSTRUCTED[name]
    assert report.to_json() == _encoded(report)


def test_repro_match_json_prints_the_report_it_built(tmp_path, monkeypatch, capsys):
    """stdout is the generic encoding of the very report, plus a newline:
    the wall-clock histograms included, since both read one report."""
    source = generate_dataset(120, seed=3)
    save_relation(source.credit, tmp_path / "credit.csv")
    save_relation(source.billing, tmp_path / "billing.csv")
    spec = (
        Workspace.builder()
        .pair(source.pair)
        .target(source.target)
        .mds(extended_mds(source.pair))
        .execution(top_k=5)
        .build()
    )
    (tmp_path / "spec.json").write_text(spec.to_json())
    built = []
    match = Workspace.match

    def keep(self, *args, **kwargs):
        built.append(match(self, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(Workspace, "match", keep)
    assert main([
        "match", "--spec", str(tmp_path / "spec.json"),
        "--left", str(tmp_path / "credit.csv"),
        "--right", str(tmp_path / "billing.csv"), "--json",
    ]) == 0
    (report,) = built
    assert report.matches
    assert capsys.readouterr().out == _encoded(report) + "\n"
