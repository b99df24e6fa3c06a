"""The keep-one-pile rule: e(x), single moves, and full playouts."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slownim.game import GameSpec, complete_hypergraph
from slownim.mrule import MRulePlayout, _playout_length, e_index, m_count, m_move
from slownim.oracle import is_basic, remoteness_oracle


def test_e_index_examples():
    assert e_index((1, 1, 2)) == 3
    assert e_index((3, 3, 3)) == 3  # all odd: keep the largest pile
    assert e_index((0, 1, 2)) == 1
    assert e_index((2, 2, 3)) == 2  # ties on the smallest even: largest index
    assert e_index((0, 0, 0)) == 3
    assert e_index((1, 2, 2, 3)) == 3


def test_m_move_examples():
    assert m_move((3, 3, 3)) == (2, 2, 3)
    assert m_move((3, 5, 5)) == (2, 4, 5)
    assert m_move((1, 1, 2)) == (0, 0, 2)
    assert m_move((0, 1, 2)) == (0, 0, 1)


def test_m_move_rejects_terminal_and_bad_specs():
    with pytest.raises(ValueError):
        m_move((0, 0, 2))
    with pytest.raises(ValueError):
        m_move((1, 2, 3), GameSpec(3, 3))
    with pytest.raises(ValueError):
        m_move((1, 2, 3), GameSpec(3, 2, hyperedges=complete_hypergraph(3, 2)))
    with pytest.raises(ValueError):
        m_move((5,))


def test_playout_traces():
    run = m_count((3, 3, 3))
    assert isinstance(run, MRulePlayout)
    assert run.length == 4
    assert run.positions == (
        (3, 3, 3), (2, 2, 3), (1, 2, 2), (0, 1, 2), (0, 0, 1))
    assert run.moves == (3, 2, 3, 1)

    run = m_count((3, 5, 5))
    assert run.length == 6
    assert run.positions == (
        (3, 5, 5), (2, 4, 5), (2, 3, 4), (2, 2, 3), (1, 2, 2), (0, 1, 2),
        (0, 0, 1))

    run = m_count((0, 0, 4))
    assert run.length == 0
    assert run.positions == ((0, 0, 4),)
    assert run.moves == ()


@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.lists(st.integers(0, 60), min_size=n, max_size=n)
    )
)
def test_m_move_stays_sorted_without_resorting(raw):
    x = tuple(sorted(raw))
    spec = GameSpec(len(x), len(x) - 1)
    if x[1] == 0:  # terminal: at most one pile can still move
        return
    y = m_move(x, spec)
    assert y == tuple(sorted(y))
    assert sum(y) == sum(x) - spec.k
    assert min(y) >= 0
    assert any(c % 2 == 0 for c in y)  # an M-move never lands on all-odd


def test_playout_length_equals_remoteness_on_grid():
    spec = GameSpec(3, 2)
    memo: dict = {}
    for x in itertools.combinations_with_replacement(range(10), 3):
        assert m_count(x, spec).length == remoteness_oracle(spec, x, memo=memo)


def test_playout_from_basic_position_steps_down_the_b_ladder():
    z = (2, 4, 6)
    assert is_basic(z, 2) == 6
    for step, pos in enumerate(m_count(z).positions):
        assert is_basic(pos, 2) == 6 - step


def test_playout_end_is_terminal():
    for x in itertools.combinations_with_replacement(range(7), 4):
        last = m_count(x).positions[-1]
        assert last[1] == 0  # at most one nonempty pile remains


def test_memoized_playout_length_matches_m_count():
    # The acceptance grids, each visited in a seeded shuffled order, then a
    # seeded batch of sparse larger positions, all through one shared dict.
    rng = random.Random(20240901)
    lengths: dict = {}
    for k, bound in ((2, 20), (3, 12), (4, 8), (5, 6)):
        grid = list(itertools.combinations_with_replacement(range(bound + 1), k + 1))
        rng.shuffle(grid)
        sparse = [tuple(sorted(rng.randint(0, 80) for _ in range(k + 1)))
                  for _ in range(100)]
        for x in grid + sparse:
            assert _playout_length(x, lengths) == m_count(x).length, x
    # Every position a playout passed is recorded, each with its own length.
    assert len(lengths) > 5000
    for x, length in lengths.items():
        assert m_count(x).length == length, x
