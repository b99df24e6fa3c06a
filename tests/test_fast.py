"""Closed-form solver: exceptional positions, per-cutoff values, E, B, remoteness."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slownim import fast, game, mrule
from slownim.critical import dominates
from slownim.fast import (
    AlgorithmInvariantError,
    AnalysisResult,
    E_value,
    b_fast,
    b_t,
    best_move,
    is_exceptional,
    remoteness_fast,
)
from slownim.game import GameSpec
from slownim.mrule import m_move
from slownim.oracle import b_oracle, is_basic, remoteness_oracle


def test_is_exceptional_examples():
    assert is_exceptional((3, 3, 3), 2) == 4
    assert is_exceptional((3, 5, 5), 2) == 6
    assert is_exceptional((1, 1, 1), 2) is None  # sum 3 gives m = 1, odd
    assert is_exceptional((2, 2, 2), 2) is None  # not all odd
    assert is_exceptional((1, 3, 5), 2) is None  # m = 4 but max 5 >= 4
    assert is_exceptional((7, 7, 7, 7, 7), 4) == 8


def test_b_t_examples():
    assert b_t((2, 2, 2), 2, 4) == 2
    assert b_t((0, 0, 5), 2, 2) == 0
    assert [b_t((1, 1, 2), 2, t) for t in (2, 3, 4)] == [0, 0, None]
    with pytest.raises(ValueError):
        b_t((2, 2, 2), 2, 5)
    with pytest.raises(ValueError):
        b_t((2, 2, 2), 2, 1)


def test_E_value_examples():
    assert E_value((2, 2, 2), 2).value == 2
    assert E_value((1, 1, 2), 2).value == 0
    assert E_value((0, 0, 0), 2).value == 0


def test_E_witness_is_a_dominated_basic_position():
    """E(x) is the best of the paper's per-cutoff values b_t, and its witness
    is a sorted basic position below x.  At k = 1000 with 60-bit piles no
    oracle reaches, so b_t is the only check of the closed form there."""
    small = ((k, x) for k, bound in ((1, 30), (2, 9), (3, 8), (5, 5))
             for x in itertools.combinations_with_replacement(range(bound + 1), k + 1))
    large = ((K_LARGE, sorted(x)) for x in _large_positions(random.Random(15)))
    for k, x in itertools.chain(small, large):
        ev = E_value(x, k)
        per_cutoff = (b_t(x, k, t) for t in range(2, k + 3))
        assert ev.value == max(b for b in per_cutoff if b is not None), (k, x)
        assert ev.value % 2 == 0
        z = ev.witness_z
        assert list(z) == sorted(z)
        assert is_basic(z, k) == ev.value
        assert dominates(x, z)
        assert b_t(x, k, ev.witness_t) == ev.value


def test_E_pair_and_certificate_match_the_built_successor():
    """The one-loop kernel gives E(x) and E(x') as _E does on x and on the
    built successor x', and the certificate is the witness of the branch
    taken: E(x)'s, or E(x')'s with a stone added back off the kept pile."""
    small = ((k, x) for k, bound in ((1, 30), (2, 16), (3, 10), (4, 8), (5, 6))
             for x in itertools.combinations_with_replacement(range(bound + 1), k + 1))
    large = ((K_LARGE, tuple(sorted(x))) for x in _large_positions(random.Random(16)))
    lifted = 0
    for k, x in itertools.chain(small, large):
        if x[1] == 0:   # terminal: no M-move
            continue
        keep = mrule._e_index(x)
        ev, ev_next = fast._E(x, k), fast._E(mrule._step(x, keep), k)
        assert fast._E_pair(x, keep) == (ev.value, ev_next.value), (k, x, keep)
        res = remoteness_fast(x, k)
        if res.branch != "E-rule":
            continue
        if ev.value > ev_next.value + 1:
            z = ev.witness_z
        else:
            z = [c + 1 for c in ev_next.witness_z]
            z[keep - 1] -= 1
            z = tuple(sorted(z))
            lifted += 1
        assert res.certificate == fast.BasicCertificate(z, res.remoteness), (k, x)
    assert lifted > 1000


def test_E_is_the_best_even_b_under_B():
    for x in itertools.combinations_with_replacement(range(9), 3):
        b = b_oracle(x, 2)
        e = E_value(x, 2).value
        assert e <= b
        assert (e == b) == (b % 2 == 0)


def test_b_fast_examples_and_grid_agreement():
    assert b_fast((2, 2, 2), 2) == 2
    assert b_fast((1, 1, 2), 2) == 1
    assert b_fast((0, 0, 7), 2) == 0
    for k in (2, 3):
        for x in itertools.combinations_with_replacement(range(7), k + 1):
            if is_exceptional(x, k) is None:
                assert b_fast(x, k) == b_oracle(x, k), x


def test_b_fast_rejects_exceptional_positions():
    with pytest.raises(ValueError):
        b_fast((3, 3, 3), 2)


def test_remoteness_fast_examples():
    res = remoteness_fast((3, 3, 3), 2)
    assert isinstance(res, AnalysisResult)
    assert (res.remoteness, res.status, res.branch) == (4, "P", "exceptional")
    assert res.best_keep_index == 3

    res = remoteness_fast((3, 5, 5), 2)
    assert (res.remoteness, res.status, res.branch) == (6, "P", "exceptional")

    res = remoteness_fast((1, 1, 1), 2)
    assert (res.remoteness, res.status) == (1, "N")

    res = remoteness_fast((0, 0, 9), 2)
    assert (res.remoteness, res.status, res.branch) == (0, "P", "terminal")
    assert res.best_keep_index is None and res.certificate is None


def test_certificates_check_out():
    for x in itertools.combinations_with_replacement(range(9), 3):
        res = remoteness_fast(x, 2)
        if res.branch == "E-rule":
            cert = res.certificate
            assert cert.b == res.remoteness
            assert is_basic(cert.z, 2) == cert.b
            assert dominates(x, cert.z)
        else:
            assert res.certificate is None


def test_best_move_examples():
    assert best_move((1, 1, 3), 2) == 3
    assert best_move((3, 3, 3), 2) == 3
    assert best_move((2, 4, 5), 2) == 1
    with pytest.raises(ValueError):
        best_move((0, 0, 4), 2)


def test_dimension_and_k_checks():
    with pytest.raises(ValueError):
        remoteness_fast((1, 2, 3), 3)
    with pytest.raises(ValueError):
        remoteness_fast((1, 2, 3), 0)
    with pytest.raises(ValueError):
        E_value((1, 2, 3, 4), 2)


def test_matches_oracle_on_a_four_pile_grid():
    spec = GameSpec(4, 3)
    memo: dict = {}
    for x in itertools.combinations_with_replacement(range(7), 4):
        assert (
            remoteness_fast(x, 3).remoteness
            == remoteness_oracle(spec, x, memo=memo)
        ), x


@given(st.lists(st.integers(0, 2**60), min_size=3, max_size=3))
def test_permutation_invariance(coords):
    base = remoteness_fast(tuple(coords), 2)
    for perm in itertools.permutations(coords):
        res = remoteness_fast(perm, 2)
        assert (res.remoteness, res.status) == (base.remoteness, base.status)


@given(st.lists(st.integers(0, 10**30), min_size=4, max_size=4))
def test_huge_coordinates_are_exact(coords):
    x = tuple(sorted(coords))
    res = remoteness_fast(x, 3)
    assert res.status in {"P", "N"}
    assert (res.remoteness % 2 == 0) == (res.status == "P")
    if res.branch == "E-rule":
        assert is_basic(res.certificate.z, 3) == res.certificate.b
        assert dominates(x, res.certificate.z)


def test_invariant_error_is_exported():
    assert issubclass(AlgorithmInvariantError, RuntimeError)


def test_invariant_error_message_is_bounded(monkeypatch):
    """A forced E(x) == E(x') + 1 names k, n, keep and both values; it shows
    x only when x is small."""
    monkeypatch.setattr(fast, "_E_pair", lambda x, keep: (4, 3))
    with pytest.raises(AlgorithmInvariantError) as small:
        remoteness_fast((2, 2, 4), 2)
    assert "x=(2, 2, 4)" in str(small.value)
    x = [2**60 - 2 * i for i in range(K_LARGE + 1)]
    with pytest.raises(AlgorithmInvariantError) as large:
        remoteness_fast(x, K_LARGE)
    message = str(large.value)
    assert len(message) < 200
    for part in ("k=1000", "n=1001", "keep=1", "E(x)=4", "E(x')=3"):
        assert part in message


K_LARGE = 1000


def _large_positions(rng):
    """Positions of NIM(1001, 1000) with piles below 2^60, one per branch
    shape: uniform, all odd, few distinct values, exceptional, near-terminal,
    terminal."""
    top = 1 << 60
    n = K_LARGE + 1
    values = [rng.randrange(top) for _ in range(5)]
    # (c,) * n is exceptional with m = 1001 * j + 999 = c + j when j is odd;
    # moving d < j stones within pairs keeps it all odd, same sum, max < m.
    j = 2 * rng.randrange(1 << 49) + 1
    c = 1000 * j + 999
    exceptional = [c] * n
    for i in range(0, n - 1, 2):
        d = 2 * rng.randrange(j // 2)
        exceptional[i] -= d
        exceptional[i + 1] += d
    return [
        [rng.randrange(top) for _ in range(n)],
        [rng.randrange(top) | 1 for _ in range(n)],
        [rng.choice(values) for _ in range(n)],
        exceptional,
        [0] * (n - 2) + [rng.randrange(top), rng.randrange(top)],
        [0] * (n - 1) + [rng.randrange(top)],
    ]


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_large_scale_metamorphic_laws(seed):
    """Laws of the paper checked far beyond the oracle: k = 1000, 60-bit piles."""
    rng = random.Random(seed)
    branches = set()
    for x in _large_positions(rng):
        res = remoteness_fast(x, K_LARGE)
        branches.add((res.branch, res.status))
        rng.shuffle(x)
        assert remoteness_fast(x, K_LARGE) == res
        if res.branch != "exceptional":
            assert b_fast(x, K_LARGE) == res.remoteness
        if res.branch == "terminal":
            continue
        assert remoteness_fast(m_move(x), K_LARGE).remoteness == res.remoteness - 1
        if res.branch == "E-rule":
            z = res.certificate.z
            assert list(z) == sorted(z)
            assert all(a >= b for a, b in zip(res.position, z))
            assert is_basic(z, K_LARGE) == res.remoteness
    # Both certificate kinds (even b: E(x) itself; odd b: lifted from E(x')).
    assert {("terminal", "P"), ("exceptional", "P"),
            ("E-rule", "P"), ("E-rule", "N")} <= branches


def test_one_solve_canonicalizes_once(monkeypatch):
    calls = []
    real = game.canonicalize

    def counting(raw):
        calls.append(1)
        return real(raw)

    for module in (game, fast, mrule):
        monkeypatch.setattr(module, "canonicalize", counting)
    for x in _large_positions(random.Random(14)):
        calls.clear()
        remoteness_fast(x, K_LARGE)
        assert len(calls) == 1


def test_one_solve_builds_no_successor(monkeypatch):
    """E(x') is read off x: neither E-rule branch builds the M-move x'."""
    def forbidden(x, keep):
        raise AssertionError("remoteness_fast built the M-move successor")

    for module in (fast, mrule):
        monkeypatch.setattr(module, "_step", forbidden, raising=False)
    branches = set()
    for seed in (11, 12, 13):
        for x in _large_positions(random.Random(seed)):
            res = remoteness_fast(x, K_LARGE)
            branches.add((res.branch, res.status))
    assert {("E-rule", "P"), ("E-rule", "N")} <= branches
