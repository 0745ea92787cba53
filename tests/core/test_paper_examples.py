"""End-to-end checks of every worked example in the paper.

* Example 1.1 / Fig. 1 — the matching narrative on the credit/billing
  instances (deduced keys match t1 with t4–t6 while the given key only
  matches t1 with t3).
* Example 2.4 / 3.5 — rck1–rck4 are deducible from Σc = {ϕ1, ϕ2, ϕ3}.
* Example 4.1 — the MDClosure trace for rck4.
* Example 5.1 — findRCKs deduces {rck1, rck2, rck3, rck4} (plus the
  minimized seed key) with m = 6.
"""

import pytest

from repro.core.closure import ClosureEngine, deduces
from repro.core.findrcks import find_rcks, is_complete
from repro.core.rck import RelativeKey
from repro.core.similarity import EQUALITY
from repro.plan import compile_plan


def agrees(key, t1, t2):
    """Does the pair agree on every comparison of ``key``?"""
    plan = compile_plan(rcks=[key])
    return plan.key_matches(plan.keys[0].predicates, t1, t2)


@pytest.fixture
def rcks(target):
    """rck1..rck4 of Example 2.4."""
    return {
        "rck1": RelativeKey.from_triples(
            target,
            [("LN", "LN", "="), ("addr", "post", "="), ("FN", "FN", "dl(0.8)")],
        ),
        "rck2": RelativeKey.from_triples(
            target,
            [("LN", "LN", "="), ("tel", "phn", "="), ("FN", "FN", "dl(0.8)")],
        ),
        "rck3": RelativeKey.from_triples(
            target, [("email", "email", "="), ("addr", "post", "=")]
        ),
        "rck4": RelativeKey.from_triples(
            target, [("email", "email", "="), ("tel", "phn", "=")]
        ),
    }


class TestExample35Deduction:
    """Σc ⊨m rck1..rck4 (Examples 3.5 and 2.4)."""

    @pytest.mark.parametrize("name", ["rck1", "rck2", "rck3", "rck4"])
    def test_all_four_keys_deduced(self, pair, sigma, rcks, name):
        assert deduces(pair, sigma, rcks[name].to_md())

    def test_email_alone_is_not_a_key(self, pair, sigma, target):
        # Example 1.1: "we cannot match entire t[Yc] and t[Yb] by just
        # comparing their email or phone attributes".
        email_only = RelativeKey.from_triples(target, [("email", "email", "=")])
        assert not deduces(pair, sigma, email_only.to_md())

    def test_phone_alone_is_not_a_key(self, pair, sigma, target):
        phone_only = RelativeKey.from_triples(target, [("tel", "phn", "=")])
        assert not deduces(pair, sigma, phone_only.to_md())


class TestExample41ClosureTrace:
    """The M-array updates of Example 4.1."""

    def test_trace(self, pair, sigma, rcks):
        engine = ClosureEngine(pair, sigma)
        matrix, _ = engine.closure(rcks["rck4"].atoms)

        def eq(left, right):
            return matrix.get(pair.left_attr(left), pair.right_attr(right), EQUALITY)

        # Step 4 initialization: email and phone equalities.
        assert eq("email", "email")
        assert eq("tel", "phn")
        # ϕ2 fires: addr ⇌ post.
        assert eq("addr", "post")
        # ϕ3 fires: names identified.
        assert eq("FN", "FN")
        assert eq("LN", "LN")
        # ϕ1 fires: all of (Yc, Yb) identified.
        assert eq("gender", "gender")


class TestExample51FindRCKs:
    def test_key_set(self, sigma, target, rcks):
        found = find_rcks(sigma, target, m=6)
        found_sets = {key.triple_set() for key in found}
        for name in ("rck1", "rck2", "rck3", "rck4"):
            assert rcks[name].triple_set() in found_sets, f"{name} missing"

    def test_termination_with_all_keys_found(self, sigma, target):
        # m = 6 but only 5 RCKs exist: the loop must stop at completeness.
        found = find_rcks(sigma, target, m=6)
        assert len(found) == 5
        assert is_complete(found, sigma)

    def test_m_caps_result(self, sigma, target):
        found = find_rcks(sigma, target, m=2)
        assert len(found) == 2

    def test_every_returned_key_is_deduced(self, pair, sigma, target):
        engine = ClosureEngine(pair, sigma)
        for key in find_rcks(sigma, target, m=6):
            assert engine.deduces(key.to_md())

    def test_every_returned_key_is_minimal(self, pair, sigma, target):
        engine = ClosureEngine(pair, sigma)
        for key in find_rcks(sigma, target, m=6):
            for atom in key.atoms:
                if key.length == 1:
                    continue
                assert not engine.deduces(key.without(atom).to_md()), (
                    f"{key} is not minimal: {atom} is removable"
                )


class TestFigure1Matching:
    """The Example 1.1 narrative on the actual Fig. 1 tuples."""

    def test_given_key_matches_only_t3(self, fig1, rcks):
        pair, credit, billing = fig1
        t1 = credit[0]
        # t3 (tid 0 in billing) matches the given key …
        assert agrees(rcks["rck1"], t1, billing[0])
        # … but t4, t5, t6 do not.
        assert not agrees(rcks["rck1"], t1, billing[1])
        assert not agrees(rcks["rck1"], t1, billing[2])
        assert not agrees(rcks["rck1"], t1, billing[3])

    def test_deduced_keys_match_t4_t5_t6(self, fig1, rcks):
        pair, credit, billing = fig1
        t1 = credit[0]
        # Key (1) = rck2 matches t1–t4 (same LN, phone; similar FN).
        assert agrees(rcks["rck2"], t1, billing[1])
        # Key (2) = rck3 matches t1–t5 (same address and email).
        assert agrees(rcks["rck3"], t1, billing[2])
        # Key (3) = rck4 matches t1–t6 (same phone and email).
        assert agrees(rcks["rck4"], t1, billing[3])

    def test_t2_matches_nothing(self, fig1, rcks):
        pair, credit, billing = fig1
        t2 = credit[1]
        for key in rcks.values():
            for row in billing:
                assert not agrees(key, t2, row)

    def test_mark_marx_similar(self, fig1):
        # The concrete similarity claim of Example 1.1.
        from repro.metrics.damerau_levenshtein import paper_dl_operator

        assert paper_dl_operator()("Mark", "Marx")
