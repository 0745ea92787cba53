"""The curated, lazily loaded public surface of ``import repro``."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def test_from_repro_import_works():
    import repro

    assert repro.Workspace is not None
    assert repro.ResolutionSpec is not None
    assert repro.compile_plan is not None
    assert repro.IncrementalMatcher is not None
    assert repro.find_rcks is not None


def test_all_names_resolve():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_dir_lists_the_curated_api():
    import repro

    listing = dir(repro)
    assert "Workspace" in listing
    assert "ResolutionSpec" in listing


def test_unknown_attribute_mentions_the_public_api():
    import repro

    with pytest.raises(AttributeError, match="public API"):
        repro.NoSuchThing


def test_plan_exports_one_backend_per_blocking_family():
    import repro.plan as plan

    backends = {
        name: getattr(plan, name)
        for name in plan.__all__
        if isinstance(getattr(plan, name), type)
        and issubclass(getattr(plan, name), plan.BlockingBackend)
        and getattr(plan, name) is not plan.BlockingBackend
    }
    assert {name: cls.family for name, cls in backends.items()} == {
        "HashBlockingBackend": "hash",
        "WindowedSNIndex": "sorted-neighborhood",
    }
    assert not hasattr(plan, "SortedNeighborhoodBackend")


def test_import_repro_is_lazy():
    """``import repro`` must not drag in the heavy submodules."""
    code = (
        "import sys; import repro; "
        "heavy = [m for m in sys.modules "
        " if m.startswith(('repro.api', 'repro.engine', 'repro.plan', "
        "'repro.matching', 'repro.experiments'))]; "
        "assert not heavy, f'eagerly imported: {heavy}'; "
        "repro.Workspace; "
        "assert 'repro.api' in sys.modules"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={"PYTHONPATH": str(REPO_SRC)},
    )
