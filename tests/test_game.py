"""Game model: canonical positions, moves, terminality, hypergraph variant."""

import itertools
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slownim.game import (
    GameSpec,
    _children,
    apply_hypergraph_move,
    apply_move,
    canonicalize,
    complete_hypergraph,
    hypergraph_legal_moves,
    is_terminal,
    legal_moves,
    spec_position,
    successors,
)
from slownim.fast import b_fast, best_move
from slownim.mrule import m_move
from slownim.oracle import ResourceLimitError, m_of_oracle, remoteness_oracle

NIM32 = GameSpec(3, 2)


def test_canonicalize_sorts():
    assert canonicalize((2, 1, 3)) == (1, 2, 3)
    assert canonicalize([0, 0, 0]) == (0, 0, 0)
    assert canonicalize((5, 5, 3)) == (3, 5, 5)


def test_canonicalize_rejects_bad_input():
    with pytest.raises(ValueError):
        canonicalize(())
    with pytest.raises(ValueError):
        canonicalize((1, -1))
    # The negative pile is neither first nor last in input order.
    for raw in ((5, 3, -1, 7), (0, 2**60, -2**61, 4)):
        with pytest.raises(ValueError, match="nonnegative"):
            canonicalize(raw)
    with pytest.raises(TypeError):
        canonicalize((1.5, 2))


def test_negative_pile_error_is_bounded():
    piles = [2**60] * 100_000 + [-1]
    hyper = GameSpec(len(piles), 1, hyperedges={frozenset({1})})
    for check in (lambda: canonicalize(piles), lambda: spec_position(hyper, piles)):
        with pytest.raises(ValueError, match="nonnegative") as exc:
            check()
        assert len(str(exc.value)) < 200


def test_errors_naming_a_position_are_bounded():
    """Errors name a position of more than 20 piles by its pile count."""
    n = 100_001
    near_terminal = [0] * (n - 1) + [5]
    one_edge = GameSpec(n, 1, hyperedges={frozenset({1})})
    cases = [
        (lambda: b_fast((199_999,) * n, n - 1), ValueError, "exceptional"),
        (lambda: best_move(near_terminal, n - 1), ValueError, "terminal"),
        (lambda: m_move(near_terminal), ValueError, "terminal"),
        (lambda: remoteness_oracle(GameSpec(n, 1), near_terminal, max_states=1),
         ResourceLimitError, "state limit"),
        (lambda: m_of_oracle(GameSpec(n, 1), near_terminal, 4), ValueError,
         "does not fit"),
        (lambda: apply_move(GameSpec(n, n - 1), near_terminal, n), ValueError,
         "is empty"),
        (lambda: apply_hypergraph_move(one_edge, [0] * n, {1}), ValueError,
         "empty pile"),
    ]
    for call, error, words in cases:
        with pytest.raises(error, match=words) as exc:
            call()
        message = str(exc.value)
        assert len(message) < 200 and f"a position of {n} piles" in message


@given(st.lists(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=7))
def test_canonicalize_is_sorting_and_idempotent(raw):
    once = canonicalize(raw)
    assert list(once) == sorted(raw)
    assert canonicalize(once) == once


def test_spec_validation():
    with pytest.raises(ValueError):
        GameSpec(3, 0)
    with pytest.raises(ValueError):
        GameSpec(3, 4)
    with pytest.raises(ValueError):
        GameSpec(0, 0)
    with pytest.raises(ValueError):
        GameSpec(3, 2, hyperedges=frozenset())
    with pytest.raises(ValueError):
        GameSpec(3, 2, hyperedges={frozenset({1, 5})})
    with pytest.raises(ValueError):
        GameSpec(3, 2, hyperedges={frozenset({1, 2}), frozenset()})


def test_legal_moves_are_keep_indices_for_one_kept_pile():
    assert legal_moves(NIM32, (1, 1, 2)) == [1, 2, 3]
    assert legal_moves(NIM32, (0, 1, 2)) == [1]
    assert legal_moves(NIM32, (0, 0, 5)) == []
    start = time.perf_counter()     # linear, not cubic, in the pile count
    assert legal_moves(GameSpec(2001, 2000), range(1, 2002)) == list(range(1, 2002))
    assert time.perf_counter() - start < 1.0


def test_legal_moves_are_keep_sets_otherwise():
    spec = GameSpec(4, 2)
    moves = legal_moves(spec, (1, 1, 1, 1))
    assert moves == sorted(itertools.combinations((1, 2, 3, 4), 2))


def test_legal_move_count_law():
    # sorted x with n = k + 1: every keep works when the minimum is positive,
    # only keeping the zero works when exactly one pile is empty
    for n in (3, 4, 5):
        spec = GameSpec(n, n - 1)
        for x in itertools.combinations_with_replacement(range(5), n):
            count = len(legal_moves(spec, x))
            if x[0] >= 1:
                assert count == n
            elif x[1] >= 1:
                assert count == 1
            else:
                assert count == 0


def test_apply_move_examples():
    assert apply_move(NIM32, (3, 3, 3), 3) == (2, 2, 3)
    assert apply_move(NIM32, (1, 1, 2), 3) == (0, 0, 2)
    assert apply_move(NIM32, (3, 5, 5), 1) == (3, 4, 4)
    assert apply_move(NIM32, (3, 5, 5), 3) == (2, 4, 5)


def test_apply_move_rejects_illegal():
    with pytest.raises(ValueError):
        apply_move(NIM32, (0, 1, 2), 3)  # would drive the empty pile negative
    with pytest.raises(ValueError):
        apply_move(NIM32, (1, 1, 2), (1, 2))  # keep-set of the wrong size


def test_is_terminal():
    assert is_terminal(NIM32, (0, 0, 7))
    assert not is_terminal(NIM32, (0, 1, 1))
    assert is_terminal(GameSpec(4, 3), (0, 0, 1, 2))
    assert not is_terminal(GameSpec(4, 3), (0, 1, 1, 2))
    assert is_terminal(GameSpec(2, 1), (0, 0))
    spec = GameSpec(3, 2, hyperedges={frozenset({1, 2})})
    assert is_terminal(spec, (0, 5, 5))
    assert not is_terminal(spec, (1, 1, 0))


@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=1, max_value=n),
            st.lists(st.integers(0, 30), min_size=n, max_size=n),
        )
    )
)
def test_every_move_removes_exactly_k_stones(args):
    n, k, coords = args
    spec = GameSpec(n, k)
    x = canonicalize(coords)
    for y in successors(spec, x):
        assert sum(y) == sum(x) - k
        assert all(c >= 0 for c in y)
        assert y == canonicalize(y)


def test_successors_examples():
    assert successors(NIM32, (1, 1, 2)) == [(0, 0, 2), (0, 1, 1)]
    assert successors(NIM32, (0, 0, 5)) == []
    assert successors(GameSpec(3, 3), (1, 2, 3)) == [(0, 1, 2)]


def _children_by_definition(spec, x):
    """Every choice of k nonempty piles, one stone off each, sorted, deduped."""
    succ = set()
    for reduced in itertools.combinations([i for i, c in enumerate(x) if c > 0], spec.k):
        child = list(x)
        for i in reduced:
            child[i] -= 1
        child.sort()
        succ.add(tuple(child))
    return succ


def test_children_match_the_definition():
    for n in range(2, 7):
        for k in range(1, n + 1):
            spec = GameSpec(n, k)
            for x in itertools.combinations_with_replacement(range(5), n):
                got = _children(spec, x)
                assert len(set(got)) == len(got), (n, k, x)
                assert set(got) == _children_by_definition(spec, x), (n, k, x)
                assert all(list(y) == sorted(y) for y in got), (n, k, x)
                assert successors(spec, x) == sorted(got), (n, k, x)


def test_children_of_distinct_piles_stay_few():
    # NIM(20, 1) at 1..20 has 20 children: the kernel may try the C(20, 1)
    # piles to lower, but not the C(38, 19) multisets of 19 run tops to keep.
    assert len(_children(GameSpec(20, 1), tuple(range(1, 21)))) == 20


def test_children_of_one_long_run_take_linear_time():
    # n equal piles give n candidate moves and one child, whichever side
    # the kernel walks; a copy of the position per candidate costs seconds.
    for k in (1, 50_000):
        start = time.perf_counter()
        children = _children(GameSpec(50_001, k), (5,) * 50_001)
        assert time.perf_counter() - start < 1.0, k
        assert len(children) == 1, k


@pytest.mark.parametrize("spec, root", [
    (GameSpec(3, 2), (9, 11, 13)),       # one kept pile: restore side, one pile
    (GameSpec(4, 3), (5, 6, 7, 8)),
    (GameSpec(5, 3), (2, 3, 4, 5, 6)),   # two kept piles: combinations
    (GameSpec(4, 1), (1, 2, 3, 4)),      # k = 1: lowering side, one pile
    (GameSpec(4, 2), (0, 3, 4, 6)),      # an empty pile leaves one kept pile
])
def test_oracle_stores_the_reachable_set(spec, root):
    # The state cap counts memo entries, so the memo must be exactly the
    # positions reachable by the definition of a move, whatever the kernel.
    reachable, frontier = {root}, [root]
    while frontier:
        for child in _children_by_definition(spec, frontier.pop()):
            if child not in reachable:
                reachable.add(child)
                frontier.append(child)
    memo: dict = {}
    remoteness_oracle(spec, root, memo=memo)
    assert set(memo) == reachable


def test_hypergraph_moves_and_application():
    spec = GameSpec(3, 2, hyperedges={frozenset({1, 2}), frozenset({2, 3})})
    assert hypergraph_legal_moves(spec, (0, 1, 1)) == [frozenset({2, 3})]
    with pytest.raises(ValueError):
        hypergraph_legal_moves(NIM32, (1, 1, 1))
    assert apply_hypergraph_move(spec, (0, 1, 1), frozenset({2, 3})) == (0, 0, 0)
    # hyperedges address fixed piles: no sorting of the position
    assert apply_hypergraph_move(spec, (2, 1, 0), frozenset({1, 2})) == (1, 0, 0)
    with pytest.raises(ValueError):
        apply_hypergraph_move(spec, (0, 1, 1), frozenset({1, 2}))
    with pytest.raises(ValueError):
        apply_hypergraph_move(spec, (1, 1, 1), frozenset({1, 3}))


def test_plain_moves_reject_hypergraph_specs():
    # keep-index 3 of the sorted (1, 2, 3) would reduce piles 2 and 1 (as
    # given): {1, 2} is not an edge, so no plain move may be offered
    spec = GameSpec(3, 2, hyperedges={frozenset({1, 3}), frozenset({2, 3})})
    with pytest.raises(ValueError):
        legal_moves(spec, (3, 1, 2))
    with pytest.raises(ValueError):
        apply_move(spec, (3, 1, 2), 3)


def test_complete_hypergraph_matches_plain_game():
    for n in range(2, 6):
        for k in range(1, n + 1):
            plain = GameSpec(n, k)
            hyper = GameSpec(n, k, hyperedges=complete_hypergraph(n, k))
            for x in itertools.combinations_with_replacement(range(7), n):
                want = successors(plain, x)
                got = sorted({canonicalize(y) for y in successors(hyper, x)})
                assert got == want, (n, k, x)
