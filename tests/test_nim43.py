"""Four-pile closed-form P/N rules, cross-checked against the solver."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slownim.fast import remoteness_fast
from slownim.nim43 import Nim43Verdict, nim43_consistency, nim43_status


def test_examples():
    verdict = nim43_status((1, 1, 2, 2))
    assert isinstance(verdict, Nim43Verdict)
    assert (verdict.status, verdict.case, verdict.rule) == ("N", 0, "0.both-odd")

    verdict = nim43_status((0, 0, 0, 0))
    assert (verdict.status, verdict.case) == ("P", 0)

    verdict = nim43_status((2, 2, 2, 2))
    assert (verdict.status, verdict.case) == ("P", 2)

    assert nim43_status((1, 1, 1, 1)).status == "N"
    assert nim43_status((0, 0, 1, 1)).status == "P"  # terminal: two piles short


def test_dimension_check():
    with pytest.raises(ValueError):
        nim43_status((1, 2, 3))


def test_case_equals_sum_mod_3():
    for x in itertools.combinations_with_replacement(range(7), 4):
        assert nim43_status(x).case == sum(x) % 3


def test_exactly_one_rule_fires_and_indicators_are_bits():
    seen_rules = set()
    for x in itertools.combinations_with_replacement(range(9), 4):
        verdict = nim43_status(x)
        assert verdict.status in {"P", "N"}
        for bit in (verdict.p, verdict.q):
            assert bit in (None, 0, 1)
        seen_rules.add(verdict.rule)
    # every family of rules is reachable on a small grid
    assert {r.split(".")[0] for r in seen_rules} == {"0", "1", "2a", "2b", "2c"}


@given(st.lists(st.integers(0, 300), min_size=4, max_size=4))
def test_order_insensitive(coords):
    assert nim43_status(tuple(coords)) == nim43_status(tuple(sorted(coords)))


def test_consistency_scan_is_clean():
    assert nim43_consistency(12) == []


# Uniform 60-bit piles almost never reach the gap and deficit clauses: they
# need x3 - x2 - x1 near 0 or x1 + x2 + x3 - 2*x4 below 0.  Near-equal piles
# b + [-30, 30] reach the surplus clauses (surplus near b); piles
# (a, b, a+b+d, a+b+e) with small d, e put both the gap and the surplus near
# 0, where every clause fires.  Both keep the piles at 57 to 60 bits.
NEAR_EQUAL = st.integers(2**59, 2**60 - 31).flatmap(
    lambda b: st.lists(st.integers(b - 30, b + 30), min_size=4, max_size=4))
GAP_TIGHT = st.tuples(st.integers(2**56, 2**59 - 1), st.integers(2**56, 2**59 - 1),
                      st.integers(-30, 30), st.integers(-30, 30)).map(
    lambda t: (t[0], t[1], t[0] + t[1] + t[2], t[0] + t[1] + t[3]))


@settings(max_examples=600)
@given(st.one_of(st.lists(st.integers(0, 2**60 - 1), min_size=4, max_size=4),
                 NEAR_EQUAL, GAP_TIGHT))
def test_matches_solver_at_scale(coords):
    x = tuple(sorted(coords))
    assert nim43_status(x).status == remoteness_fast(x, 3).status
