"""A naive reference chase, written from the paper's Section 2.1 definition.

Pair at a time, every MD's atoms in declared order, every operator
resolved through the registry on every comparison (no memo), every pair
rescanned and every merged class re-resolved each round.  It shares no
code with ``repro.plan``; the differential suite
(``test_reference_differential.py``) holds the kernel to it.

Cells are ``(side, tid, attribute)`` as in ``repro.core.semantics``.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.core.schema import LEFT, RIGHT
from repro.metrics.registry import DEFAULT_REGISTRY


def reference_chase(
    sigma, instance, resolver, pairs=None, max_rounds=100,
    registry=DEFAULT_REGISTRY,
):
    left = {row.tid: row.values() for row in instance.left}
    right = {row.tid: row.values() for row in instance.right}
    store = {LEFT: left, RIGHT: right}
    pairs = list(instance.tuple_pairs() if pairs is None else pairs)
    class_of = {}  # cell -> the (shared) set of cells identified with it

    def lhs_holds(md, l, r):
        return all(
            registry.resolve(atom.operator.name)(left[l][atom.left], right[r][atom.right])
            for atom in md.lhs
        )

    def classes():
        return {id(members): members for members in class_of.values()}.values()

    rounds = applications = 0
    merged = False
    while rounds < max_rounds:
        rounds += 1
        merged = False
        for l, r in pairs:
            for md in sigma:
                if not lhs_holds(md, l, r):
                    continue
                for atom in md.rhs:
                    a, b = (LEFT, l, atom.left), (RIGHT, r, atom.right)
                    mine, theirs = class_of.setdefault(a, {a}), class_of.setdefault(b, {b})
                    if mine is not theirs:
                        mine |= theirs
                        class_of.update((cell, mine) for cell in theirs)
                        applications += 1
                        merged = True
        if not merged:
            break
        for members in classes():
            ordered = sorted(members)
            resolved = resolver([store[side][tid][attr] for side, tid, attr in ordered])
            for side, tid, attr in ordered:
                store[side][tid][attr] = resolved
    stable = all(
        left[l][atom.left] == right[r][atom.right]
        for l, r in pairs
        for md in sigma
        if lhs_holds(md, l, r)
        for atom in md.rhs
    )

    def identified(l, r, attribute_pairs):
        return all(
            (RIGHT, r, b) in class_of.get((LEFT, l, a), ())
            for a, b in attribute_pairs
        )

    return SimpleNamespace(
        rounds=rounds,
        applications=applications,
        stable=stable,
        rounds_exhausted=(merged or rounds == 0) and not stable,
        classes={frozenset(members) for members in classes() if len(members) > 1},
        values={
            (side, tid): dict(values)
            for side in (LEFT, RIGHT)
            for tid, values in store[side].items()
        },
        matches=lambda attribute_pairs: [
            pair for pair in pairs if identified(*pair, attribute_pairs)
        ],
        # The rules whose LHS holds in the chased instance, by position.
        firing=lambda l, r: [
            position for position, md in enumerate(sigma) if lhs_holds(md, l, r)
        ],
    )
