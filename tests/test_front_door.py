"""Outside ``repro.experiments``, ``repro`` holds only what its front door runs.

The front door is the ``repro`` command (``repro.cli``, and
``repro.__main__`` behind ``python -m repro``).  The walk below reads
every module under ``src/repro`` with :mod:`ast` and follows its
``import`` / ``from … import`` statements — at module level and inside
functions, relative ones resolved — from the front door.  Importing a
submodule runs its packages' ``__init__`` too, so those count as
reached.  A name looked up in a table and imported by string
(``importlib.import_module``) does not: a lazy re-export keeps code off
the start-up path without making the front door run it.

Three rules follow: every module outside ``repro.experiments`` is
reached; none of them imports from ``repro.experiments`` (the figures,
the Fig. 9 baselines and the Section 8 extensions build on the library,
never the other way round); and no module of ``repro.core``, the
paper's reasoning, imports a layer built on it (the chase kernel, the
engine, the front door, the service, clustering, observability).
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, Set

SRC = Path(__file__).resolve().parents[1] / "src"

FRONT_DOOR = ("repro.cli", "repro.__main__")

EXPERIMENTS = "repro.experiments"

CORE = "repro.core"

#: The layers built on ``repro.core``.
ABOVE_CORE = (
    "repro.plan", "repro.engine", "repro.api", "repro.serve", "repro.matching", "repro.obs",
)


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


@lru_cache(maxsize=1)
def _modules() -> Dict[str, Path]:
    """Every module under ``src/repro``: dotted name -> file."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imports(name: str) -> Iterator[str]:
    """The dotted names one module's import statements name, anywhere in
    it.  ``from p import x`` names both ``p`` and ``p.x`` (``x`` may be
    a submodule); names that are no module of ours are dropped later."""
    path = _modules()[name]
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _own_imports(name: str) -> Set[str]:
    """The modules of ours that importing ``name`` loads directly: each
    one it names, with the packages above it."""
    modules = _modules()
    loaded = set()
    for imported in _imports(name):
        parts = imported.split(".")
        loaded.update(
            prefix
            for prefix in (".".join(parts[:end]) for end in range(1, len(parts) + 1))
            if prefix in modules
        )
    return loaded


def _reached(roots) -> Set[str]:
    reached: Set[str] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_own_imports(name) - reached)
    return reached


def _outside_experiments() -> Set[str]:
    return {name for name in _modules() if not _within(name, EXPERIMENTS)}


def test_the_walk_resolves_relative_and_function_level_imports():
    # repro.cli imports the engine inside a command function; the engine
    # package reaches its SQLite store through ``from .sqlite import``.
    assert "repro.engine" in _own_imports("repro.cli")
    assert "repro.engine.sqlite" in _own_imports("repro.engine")
    assert "repro.engine.sqlite.store" in _own_imports("repro.engine.sqlite")
    # Naming a submodule loads the packages above it ...
    assert {"repro", "repro.core", "repro.core.schema"} <= _own_imports("repro.plan.blocking")
    # ... and ``repro``'s lazy attribute table imports nothing.
    assert _own_imports("repro") == set()


def test_the_front_door_reaches_every_module_outside_the_experiments():
    unreached = _outside_experiments() - _reached(FRONT_DOOR)
    assert sorted(unreached) == []


def test_no_module_outside_the_experiments_imports_from_them():
    offenders = {
        name: sorted(
            imported for imported in _own_imports(name) if _within(imported, EXPERIMENTS)
        )
        for name in _outside_experiments()
    }
    assert {name: found for name, found in offenders.items() if found} == {}


def test_no_module_of_the_core_imports_a_layer_above_it():
    offenders = {
        name: sorted(
            imported for imported in _own_imports(name)
            if any(_within(imported, layer) for layer in ABOVE_CORE)
        )
        for name in _modules()
        if _within(name, CORE)
    }
    assert {name: found for name, found in offenders.items() if found} == {}
