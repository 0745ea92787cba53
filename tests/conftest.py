"""Shared fixtures: the paper's schemas, MDs, targets and instances."""

from __future__ import annotations

import pytest

from repro.api import Workspace
from repro.core.schema import ComparableLists, RelationSchema, SchemaPair
from repro.datagen.generator import figure1_instances, generate_dataset
from repro.datagen.schemas import (
    credit_billing_pair,
    extended_mds,
    extended_pair,
    extended_target,
    paper_mds,
    paper_target,
)
from repro.experiments.harness import resolution_spec_document


@pytest.fixture
def pair() -> SchemaPair:
    """The Example 1.1 (credit, billing) schema pair."""
    return credit_billing_pair()


@pytest.fixture
def target(pair) -> ComparableLists:
    """The (Yc, Yb) card-holder lists of Example 1.1."""
    return paper_target(pair)


@pytest.fixture
def sigma(pair):
    """The MDs ϕ1, ϕ2, ϕ3 of Example 2.1."""
    return paper_mds(pair)


@pytest.fixture
def self_pair() -> SchemaPair:
    """The (R, R) pair of Example 2.3, schema R(A, B, C)."""
    schema = RelationSchema("R", ["A", "B", "C"])
    return SchemaPair(schema, schema)


@pytest.fixture
def fig1():
    """The exact Fig. 1 instances: (pair, credit, billing)."""
    return figure1_instances()


@pytest.fixture
def ext_pair() -> SchemaPair:
    """The Section 6.2 extended schema pair."""
    return extended_pair()


@pytest.fixture
def ext_target(ext_pair):
    """The 11-attribute identification lists of Section 6.2."""
    return extended_target(ext_pair)


@pytest.fixture
def ext_sigma(ext_pair):
    """The 7 card-holder MDs of Section 6.2."""
    return extended_mds(ext_pair)


@pytest.fixture(scope="session")
def small_dataset():
    """A small deterministic matching dataset shared across tests."""
    return generate_dataset(300, seed=42)


@pytest.fixture(scope="session")
def workspace_for():
    """The one way tests get from rules to an execution.

    ``workspace_for(source, sigma=None, rcks=None, **sections)`` builds a
    :class:`~repro.api.Workspace` over ``source`` — a generated dataset,
    or a target (``ComparableLists``) — with ``sigma`` defaulting to the
    Section 6.2 MDs the datasets are generated for and ``rcks`` pinning
    the keys instead of deducing five.  It blocks on each RCK's leading
    attribute pair (hash) and matches by enforcement unless a spec
    section passed by name (``blocking=``, ``execution=``,
    ``persistence=``, ...) says otherwise.
    """

    def build(source, sigma=None, rcks=None, **sections) -> Workspace:
        target = getattr(source, "target", source)
        document = resolution_spec_document(
            target.pair,
            target,
            extended_mds(target.pair) if sigma is None else sigma,
            rcks=rcks,
            blocking={"backend": "hash"},
            execution={"mode": "enforce"},
        )
        document.update(sections)
        return Workspace.from_dict(document)

    return build
