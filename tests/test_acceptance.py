"""Acceptance checks, one per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
Every check asserts exact values plus its runtime budget; a failure of either
fails the criterion.
"""

import itertools
import random
import time

from slownim.critical import check_conjecture, enumerate_critical, is_m_critical
from slownim.fast import E_value, is_exceptional, remoteness_fast
from slownim.game import GameSpec, is_terminal, successors
from slownim.mrule import e_index, m_count, m_move
from slownim.nim43 import nim43_consistency
from slownim.oracle import b_oracle, critical_oracle, is_basic, m_of_oracle, remoteness_oracle

# (k, coordinate bound) exhaustive grids for NIM(k+1, k)
GRIDS = ((2, 20), (3, 12), (4, 8), (5, 6))


def _positions(n, bound):
    return itertools.combinations_with_replacement(range(bound + 1), n)


def _report(num, elapsed, detail):
    print(f"\ncriterion {num}: PASS ({elapsed:.2f}s) {detail}")


def test_criterion_1_reference_values():
    start = time.perf_counter()

    run = m_count((3, 3, 3))
    assert run.length == 4
    assert run.positions == (
        (3, 3, 3), (2, 2, 3), (1, 2, 2), (0, 1, 2), (0, 0, 1))
    assert remoteness_fast((3, 3, 3), 2).remoteness == 4

    run = m_count((3, 5, 5))
    assert run.length == 6
    assert run.positions == (
        (3, 5, 5), (2, 4, 5), (2, 3, 4), (2, 2, 3), (1, 2, 2), (0, 1, 2),
        (0, 0, 1))
    assert remoteness_fast((3, 5, 5), 2).remoteness == 6

    assert remoteness_fast((1, 1, 2), 2).remoteness == 1
    assert remoteness_fast((1, 1, 3), 2).remoteness == 1
    # the moves not keeping the large pile land on N-positions (they lose)
    assert remoteness_fast((0, 1, 1), 2).status == "N"
    assert remoteness_fast((0, 1, 2), 2).status == "N"
    assert remoteness_fast((1, 1, 1), 2).status == "N"

    evens = 0
    for k, bound in GRIDS:
        for x in _positions(k + 1, bound):
            if all(c % 2 == 0 for c in x):
                assert remoteness_fast(x, k).status == "P", x
                evens += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, elapsed,
            f"reference values, traces, and {evens} all-even P-positions")


def test_criterion_2_four_way_equivalence():
    start = time.perf_counter()
    details = []
    for k, bound in GRIDS:
        grid_start = time.perf_counter()
        spec = GameSpec(k + 1, k)
        memo: dict = {}
        values: dict = {}
        for x in _positions(k + 1, bound):
            r = remoteness_oracle(spec, x, memo=memo)
            assert remoteness_fast(x, k).remoteness == r, x
            assert m_count(x, spec).length == r, x
            values[x] = r
        # m(x) = remoteness; the grid's own bound holds all of x's down-set
        for x, r in values.items():
            assert m_of_oracle(spec, x, bound) == r, x
        grid_elapsed = time.perf_counter() - grid_start
        assert grid_elapsed < 60.0, (k, bound)
        details.append(f"NIM({k + 1},{k})<={bound}: {len(values)}p "
                       f"{grid_elapsed:.1f}s")
        if k == 2:
            assert len(values) == 1771
    _report(2, time.perf_counter() - start, "; ".join(details))


def test_criterion_3_closed_form_equals_oracle():
    start = time.perf_counter()
    total = 0
    for k in (2, 3, 4):
        spec = GameSpec(k + 1, k)
        for m in range(11):
            closed = set(enumerate_critical(k, m).positions)
            assert closed == critical_oracle(spec, m, m + 1), (k, m)
            total += len(closed)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, elapsed, f"k in 2..4, m <= 10: {total} positions matched")


def test_criterion_4_five_pile_minimality():
    start = time.perf_counter()
    crit = critical_oracle(GameSpec(5, 3), 8, 9)
    for member in [(1, 3, 7, 7, 7), (1, 5, 5, 7, 7), (3, 3, 5, 7, 7),
                   (5, 5, 5, 5, 5), (3, 5, 5, 6, 7)]:
        assert member in crit, member
    assert (3, 5, 5, 5, 7) not in crit
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(4, elapsed,
            f"NIM(5,3) value 8 bound 9: {len(crit)} minimal positions")


def test_criterion_5_four_pile_rules_agree():
    start = time.perf_counter()
    mismatches = nim43_consistency(20)
    elapsed = time.perf_counter() - start
    for bad in mismatches:
        print(f"mismatch: {bad}")
    assert mismatches == []
    assert elapsed < 60.0
    _report(5, elapsed, "10626 sorted 4-tuples, coords <= 20, zero mismatches")


def test_criterion_6_claim_suite():
    start = time.perf_counter()
    positions_checked = 0
    exceptional_seen = 0

    for k, bound in GRIDS:
        spec = GameSpec(k + 1, k)
        memo: dict = {}
        R: dict = {}
        B: dict = {}
        for x in _positions(k + 1, bound):
            R[x] = remoteness_oracle(spec, x, memo=memo)
            B[x] = b_oracle(x, k)
        exceptional = {
            x: m for x in R if (m := is_exceptional(x, k)) is not None}
        exceptional_seen += len(exceptional)

        for x in R:
            bx = B[x]
            succ = successors(spec, x)
            for y in succ:
                assert B[y] <= bx, ("B never increases", x, y)
                if bx % 2 == 1:
                    assert B[y] >= bx - 2, ("odd B drops at most 2", x, y)
                if B[y] % 2 == 0:
                    assert B[y] < bx, ("moves into even B strictly drop", x, y)
                assert not (bx % 2 == 0 and B[y] % 2 == 0), \
                    ("no move joins two even-B positions", x, y)
                if y in exceptional:
                    assert bx == exceptional[y] + 1, \
                        ("sources of exceptional positions", x, y)
            if x in exceptional:
                m = exceptional[x]
                assert R[x] == m, ("exceptional remoteness", x)
                assert bx == m - 1, ("exceptional B value", x)
                for y in succ:
                    assert B[y] == m - 1, ("exceptional exits keep B", x, y)
            value = E_value(x, k).value
            assert value <= bx, ("E bounded by B", x)
            assert (value == bx) == (bx % 2 == 0), ("E = B iff B even", x)
            terminal = is_terminal(spec, x)
            assert (bx == 0) == terminal, ("B = 0 exactly on terminal", x)
            if not terminal:
                y = m_move(x, spec)
                assert R[y] == R[x] - 1, ("optimal rule steps remoteness", x)
                if x not in exceptional:
                    assert B[y] == bx - 1, ("optimal rule steps B", x)
            positions_checked += 1

        for z in R:
            b = is_basic(z, k)
            if b is None:
                continue
            assert z[0] + z[1] >= b, ("two smallest piles carry b", z)
            if z[0] == 0:
                assert z == (0,) + (b,) * k, ("zero pile forces flat rest", z)
            if b >= 1:
                assert is_basic(m_move(z, spec), k) == b - 1, \
                    ("optimal rule walks the b ladder", z)

        for z, m in exceptional.items():
            for x in R:
                if x != z and all(a >= c for a, c in zip(x, z)):
                    assert B[x] > m, ("strict dominators exceed m", x, z)

    # single-move consequences on the enumerated critical families
    for k in (2, 3, 4):
        spec = GameSpec(k + 1, k)
        for m in range(1, 9):
            report = enumerate_critical(k, m)
            for x in report.positions:
                if m % 2 == 0 and report.branches[x] == "A":
                    keep = e_index(x)
                    y = m_move(x, spec)
                    hit = is_m_critical(y, k, m - 1) is not None
                    assert hit == (x[keep - 1] != m), \
                        ("even-m move lands critical iff kept pile < m", x)
                if m % 2 == 1:
                    landings = {
                        y for y in successors(spec, x)
                        if is_m_critical(y, k, m - 1) is not None}
                    assert landings == {m_move(x, spec)}, \
                        ("odd-m critical has a unique critical exit", x)

    elapsed = time.perf_counter() - start
    _report(6, elapsed, f"{positions_checked} grid positions, "
                        f"{exceptional_seen} exceptional, zero violations")


def test_criterion_7_performance():
    start = time.perf_counter()
    rng = random.Random(20240901)

    def best_time(k, reps):
        best = float("inf")
        for _ in range(reps):
            x = tuple(sorted(rng.randrange(2 ** 60) for _ in range(k + 1)))
            t0 = time.perf_counter()
            result = remoteness_fast(x, k)
            best = min(best, time.perf_counter() - t0)
            assert result.remoteness >= 0
        return best

    t_small = best_time(1_000, reps=5)
    t_large = best_time(100_000, reps=3)
    assert t_large < 1.0
    ratio = t_large / t_small
    # k grew 100x; quasi-linear scaling leaves generous polylog headroom
    assert ratio < 500.0
    _report(7, time.perf_counter() - start,
            f"k=100000: {t_large * 1000:.1f} ms/position, "
            f"t(1e5)/t(1e3) = {ratio:.0f}")


def test_criterion_8_minimality_bounds_hold():
    start = time.perf_counter()
    jobs = (
        [(GameSpec(3, 2), m, 10) for m in range(9)]
        + [(GameSpec(4, 2), m, 8) for m in range(7)]
        + [(GameSpec(5, 3), 8, 9)]
    )
    findings = []
    scanned = 0
    for spec, m, bound in jobs:
        report = check_conjecture(spec, m, bound)
        findings.extend((spec.n, spec.k, m, v) for v in report.violations)
        scanned += len(report.positions)
    for finding in findings:
        print(f"finding: {finding}")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert findings == []
    _report(8, elapsed,
            f"{len(jobs)} checks over {scanned} minimal positions, "
            f"zero findings")
