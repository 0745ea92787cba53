"""Run the doctests embedded in the library's docstrings.

Documentation examples must stay executable; this walks the package,
collects every module carrying a ``>>>`` example and fails on any drift
between docs and behaviour — a new module's examples run without anyone
remembering to list it here.

Modules are resolved by name through importlib because several package
``__init__`` files re-export *functions* with the same name as their
defining submodule (``repro.core.md.md``, ``repro.metrics.soundex.soundex``)
— plain attribute access would hand doctest a function, not the module.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro


def _modules_with_doctests():
    finder = doctest.DocTestFinder(exclude_empty=True)
    names = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue  # importing it would run the CLI
        module = importlib.import_module(info.name)
        if any(test.examples for test in finder.find(module)):
            names.append(info.name)
    return sorted(names)


MODULE_NAMES = _modules_with_doctests()


def test_the_walk_finds_the_front_door():
    assert "repro.api.workspace" in MODULE_NAMES
    assert "repro.api.spec" in MODULE_NAMES
    assert len(MODULE_NAMES) >= 30


@pytest.mark.parametrize("module_name", MODULE_NAMES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, (
        f"{results.failed} doctest failure(s) in {module_name}"
    )
