"""m-critical positions: branch tests, closed-form enumeration, dominance."""

import itertools
import time

import pytest

from slownim import critical
from slownim.critical import (
    CriticalReport,
    check_conjecture,
    dominates,
    enumerate_critical,
    is_m_critical,
    strictly_dominates,
)
from slownim.game import GameSpec
from slownim.oracle import ResourceLimitError, critical_oracle


def test_is_m_critical_examples():
    assert is_m_critical((3, 3, 3), 2, 4) == "B"
    assert is_m_critical((4, 4, 4), 2, 6) == "A"
    assert is_m_critical((3, 5, 5), 2, 6) == "B"
    assert is_m_critical((0, 0, 0), 2, 0) == "A"
    assert is_m_critical((0, 1, 1), 2, 1) == "A"
    assert is_m_critical((1, 2, 3), 2, 4) is None
    assert is_m_critical((3, 3, 3), 2, 5) is None  # right sum family, wrong m


def test_is_m_critical_validation():
    with pytest.raises(ValueError):
        is_m_critical((1, 2, 3), 2, -1)
    with pytest.raises(ValueError):
        is_m_critical((1, 2, 3, 4), 2, 3)


def test_enumerate_k2_m6():
    report = enumerate_critical(2, 6)
    assert isinstance(report, CriticalReport)
    assert set(report.positions) == {(0, 6, 6), (2, 4, 6), (4, 4, 4), (3, 5, 5)}
    assert report.branches[(3, 5, 5)] == "B"
    assert report.branches[(4, 4, 4)] == "A"
    assert report.branches[(2, 4, 6)] == "A"


def test_enumerate_edge_cases():
    assert set(enumerate_critical(2, 0).positions) == {(0, 0, 0)}
    assert set(enumerate_critical(2, 1).positions) == {(0, 1, 1)}
    big = (0,) + (2,) * 1000        # deeper than the recursion limit
    assert enumerate_critical(1000, 2).branches == {big: "A"}
    with pytest.raises(ValueError):
        enumerate_critical(2, -1)


def test_enumerate_respects_position_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_critical(2, 10, max_positions=2)


def test_enumerate_default_cap_counts_piles(monkeypatch):
    monkeypatch.setattr(critical, "MAX_PILES", 30)  # 10 positions of 3 piles
    assert len(enumerate_critical(2, 9).positions) == 9
    with pytest.raises(ResourceLimitError, match="more than 10 critical positions"):
        enumerate_critical(2, 11)
    assert len(enumerate_critical(2, 11, max_positions=12).positions) == 12
    # One position is always allowed, however many piles it has.
    assert enumerate_critical(40, 2).positions == ((0,) + (2,) * 40,)


def test_enumerated_positions_all_pass_the_branch_test():
    # the closed form builds exactly the positions the definition accepts
    for k in range(1, 6):
        for m in range(13):
            box = itertools.combinations_with_replacement(range(m + 1), k + 1)
            expected = {x: b for x in box if (b := is_m_critical(x, k, m))}
            assert enumerate_critical(k, m).branches == expected, (k, m)
    start = time.perf_counter()
    report = enumerate_critical(1000, 40)   # built, not filtered: fast at large k
    assert time.perf_counter() - start < 5.0
    assert len(report.positions) == 627
    assert all(is_m_critical(x, 1000, 40) == b for x, b in report.branches.items())


def test_enumeration_matches_oracle():
    for k in (2, 3):
        spec = GameSpec(k + 1, k)
        for m in range(7):
            closed = set(enumerate_critical(k, m).positions)
            assert closed == critical_oracle(spec, m, m + 1), (k, m)


def test_both_branch_residues_appear():
    # the same closed form covers both sum residues mod k
    report = enumerate_critical(2, 6)
    residues = {sum(x) % 2 for x in report.positions}
    assert residues == {0, 1}


def test_dominance():
    assert dominates((1, 2, 3), (0, 0, 0))
    assert dominates((3, 5, 5), (3, 5, 5))
    assert not dominates((3, 5, 5), (2, 4, 6))
    assert dominates((5, 3, 5), (5, 5, 3))  # compares sorted forms
    assert strictly_dominates((1, 2, 3), (1, 2, 2))
    assert not strictly_dominates((3, 5, 5), (3, 5, 5))
    with pytest.raises(ValueError):
        dominates((1, 2), (1, 2, 3))


def test_criticals_form_an_antichain():
    for k in (2, 3):
        for m in range(9):
            crit = enumerate_critical(k, m).positions
            for a, b in itertools.combinations(crit, 2):
                assert not strictly_dominates(a, b)
                assert not strictly_dominates(b, a)


def test_check_conjecture_reports_instead_of_raising():
    report = check_conjecture(GameSpec(3, 2), 4, 6)
    assert report.violations == ()
    assert (3, 3, 3) in report.positions
    assert report.branches[(3, 3, 3)] == "B"


def test_check_conjecture_handles_general_shapes():
    # n != k + 1: criticality comes from the oracle, branches stay unlabeled
    report = check_conjecture(GameSpec(4, 2), 3, 5)
    assert report.violations == ()
    assert report.branches == {}
    assert report.positions
