"""Brute-force ground truth: remoteness, SG values, basic positions, minimality."""

import functools
import itertools
from operator import le

import pytest

from slownim.game import (
    GameSpec,
    apply_hypergraph_move,
    complete_hypergraph,
    hypergraph_legal_moves,
    is_terminal,
    successors,
)
from slownim.oracle import (
    ResourceLimitError,
    _sorted_below,
    b_oracle,
    critical_oracle,
    is_basic,
    m_of_oracle,
    remoteness_oracle,
    sg_oracle,
)

NIM32 = GameSpec(3, 2)

# The shapes of the acceptance grids of NIM(k+1, k) and of the conjecture
# checks in acceptance criterion 8.  Bounds are cut where the definitional
# m(x) scan below would cost seconds (full grids: 20, 12, 8, 6 and 9).
LATTICE_GRIDS = [(GameSpec(3, 2), 14), (GameSpec(4, 3), 9), (GameSpec(5, 4), 6),
                 (GameSpec(6, 5), 5), (GameSpec(3, 2), 10), (GameSpec(4, 2), 8),
                 (GameSpec(5, 3), 7)]


def test_remoteness_examples():
    assert remoteness_oracle(NIM32, (0, 0, 9)) == 0
    assert remoteness_oracle(NIM32, (1, 1, 1)) == 1
    assert remoteness_oracle(NIM32, (1, 1, 2)) == 1
    assert remoteness_oracle(NIM32, (1, 1, 3)) == 1
    assert remoteness_oracle(NIM32, (2, 2, 2)) == 2
    assert remoteness_oracle(NIM32, (3, 3, 3)) == 4
    assert remoteness_oracle(NIM32, (3, 5, 5)) == 6


def test_remoteness_accepts_unsorted_input():
    assert remoteness_oracle(NIM32, (5, 3, 5)) == 6


def test_sg_examples():
    assert sg_oracle(NIM32, (0, 0, 4)) == 0
    assert sg_oracle(NIM32, (1, 1, 1)) != 0
    assert sg_oracle(NIM32, (2, 2, 2)) == 0


def test_sg_zero_exactly_on_even_remoteness():
    memo_r: dict = {}
    memo_g: dict = {}
    for x in itertools.combinations_with_replacement(range(9), 3):
        r = remoteness_oracle(NIM32, x, memo=memo_r)
        g = sg_oracle(NIM32, x, memo=memo_g)
        assert (g == 0) == (r % 2 == 0), x


def test_trivial_game_k_equals_1():
    spec = GameSpec(2, 1)
    for x in itertools.combinations_with_replacement(range(7), 2):
        assert remoteness_oracle(spec, x) == sum(x)


def test_trivial_game_k_equals_n():
    spec = GameSpec(3, 3)
    for x in itertools.combinations_with_replacement(range(6), 3):
        assert remoteness_oracle(spec, x) == min(x)


def test_all_even_positions_lose_for_the_mover():
    for x in itertools.combinations_with_replacement(range(0, 7, 2), 3):
        assert remoteness_oracle(NIM32, x) % 2 == 0
    edges = {frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 2, 3})}
    spec = GameSpec(3, 2, hyperedges=edges)
    for x in itertools.product(range(0, 7, 2), repeat=3):
        assert remoteness_oracle(spec, x) % 2 == 0


def test_hypergraph_positions_keep_their_order():
    # with asymmetric edges the value is genuinely order-dependent
    spec = GameSpec(2, 1, hyperedges={frozenset({1})})
    assert remoteness_oracle(spec, (3, 1)) == 3
    assert remoteness_oracle(spec, (1, 3)) == 1


def test_oracles_match_recursive_definitions_on_mixed_edge_sizes():
    # Edges of different sizes reach one state by paths of different
    # lengths, so the iterative solver pushes some states twice and finds
    # them already solved when it reaches the second copy.
    spec = GameSpec(2, 1, hyperedges={frozenset({1}), frozenset({2}), frozenset({1, 2})})

    @functools.cache
    def remoteness(x):
        values = [remoteness(y) for y in successors(spec, x)]
        evens = [v for v in values if v % 2 == 0]
        return 0 if not values else 1 + (min(evens) if evens else max(values))

    @functools.cache
    def sg(x):
        values = {sg(y) for y in successors(spec, x)}
        return next(g for g in itertools.count() if g not in values)

    for x in itertools.product(range(6), repeat=2):
        assert remoteness_oracle(spec, x) == remoteness(x), x
        assert sg_oracle(spec, x) == sg(x), x


def test_hypergraph_positions_are_checked_like_plain_ones():
    spec = GameSpec(3, 2, hyperedges={frozenset({1, 3}), frozenset({2, 3})})
    calls = [lambda x: remoteness_oracle(spec, x), lambda x: sg_oracle(spec, x),
             lambda x: is_terminal(spec, x), lambda x: successors(spec, x),
             lambda x: hypergraph_legal_moves(spec, x),
             lambda x: apply_hypergraph_move(spec, x, {2, 3})]
    bad = [((2.7, 1, 1), TypeError), (("3", 1, 1), TypeError),
           ((-1, 1, 1), ValueError), ((1, 1), ValueError)]
    for call in calls:
        for x, error in bad:
            with pytest.raises(error):
                call(x)


def test_oracle_matches_complete_hypergraph_formulation():
    plain = GameSpec(3, 2)
    hyper = GameSpec(3, 2, hyperedges=complete_hypergraph(3, 2))
    memo: dict = {}
    for x in itertools.combinations_with_replacement(range(6), 3):
        assert remoteness_oracle(plain, x) == remoteness_oracle(hyper, x, memo=memo)


def test_is_basic_examples():
    assert is_basic((0, 0, 0), 2) == 0
    assert is_basic((0, 1, 1), 2) == 1
    assert is_basic((0, 2, 2), 2) == 2
    assert is_basic((2, 4, 6), 2) == 6
    assert is_basic((2, 2, 2), 2) is None  # sum 6 = 2*3 but b=3 needs one even pile
    assert is_basic((1, 1, 1), 2) is None
    with pytest.raises(ValueError):
        is_basic((1, 1), 2)


def test_b_oracle_examples():
    assert b_oracle((0, 0, 5), 2) == 0
    assert b_oracle((1, 1, 2), 2) == 1
    assert b_oracle((3, 3, 3), 2) == 3
    assert b_oracle((2, 4, 6), 2) == 6
    assert b_oracle((0,) * 1500, 1499) == 0     # deeper than the recursion limit


def test_b_oracle_zero_exactly_on_terminal():
    for x in itertools.combinations_with_replacement(range(7), 3):
        assert (b_oracle(x, 2) == 0) == is_terminal(NIM32, x)


def test_b_oracle_dominance_monotone():
    for x in itertools.combinations_with_replacement(range(6), 3):
        bx = b_oracle(x, 2)
        for i in range(3):
            y = tuple(sorted(x[:i] + (x[i] + 1,) + x[i + 1:]))
            assert b_oracle(y, 2) >= bx


def test_critical_oracle_small_values():
    assert critical_oracle(NIM32, 0, 3) == {(0, 0, 0)}
    assert critical_oracle(NIM32, 1, 3) == {(0, 1, 1)}
    assert critical_oracle(NIM32, 6, 7) == {(0, 6, 6), (2, 4, 6), (3, 5, 5), (4, 4, 4)}
    for m, bound in [(-1, 3), (1, -1)]:
        with pytest.raises(ValueError):
            critical_oracle(NIM32, m, bound)


def test_critical_oracle_rejects_hypergraph_specs():
    spec = GameSpec(3, 2, hyperedges=complete_hypergraph(3, 2))
    with pytest.raises(ValueError):
        critical_oracle(spec, 1, 3)


def test_m_of_examples():
    assert m_of_oracle(NIM32, (0, 0, 0), 2) == 0
    assert m_of_oracle(NIM32, (1, 1, 2), 3) == 1
    assert m_of_oracle(NIM32, (3, 3, 3), 6) == 4


def test_m_of_needs_only_a_grid_holding_x():
    assert m_of_oracle(NIM32, (3, 3, 3), 3) == 4
    with pytest.raises(ValueError):
        m_of_oracle(NIM32, (3, 3, 3), 2)


def _box(top) -> list:
    """The sorted z <= top, by definition: the sorted grid up to max(top),
    filtered coordinatewise."""
    return [z for z in itertools.combinations_with_replacement(range(max(top) + 1), len(top))
            if all(map(le, z, top))]


def test_sorted_below_matches_definition():
    for n in range(1, 5):
        for top in itertools.combinations_with_replacement(range(6), n):
            box = _box(top)
            for total in [None, *range(sum(top) + 2)]:
                want = [z for z in box if total is None or sum(z) == total]
                assert list(_sorted_below(top, total)) == want, (top, total)
    for total in (None, -3, 0):
        assert list(_sorted_below((-1, -1, -1), total)) == []


def _minimal_by_definition(values: dict) -> dict:
    """Per remoteness value, the positions that dominate no other position
    of that value: a sum-ordered antichain filter over each value's group."""
    groups: dict = {}
    for x, v in values.items():
        groups.setdefault(v, []).append(x)
    minimal_sets = {}
    for v, group in groups.items():
        # a strictly dominated position has a strictly smaller sum, and a
        # dominating witness can be picked among the accepted minimal ones
        group.sort(key=sum)
        minimal: list = []
        for x in group:
            if not any(all(a <= b for a, b in zip(y, x)) and y != x for y in minimal):
                minimal.append(x)
        minimal_sets[v] = set(minimal)
    return minimal_sets


@pytest.mark.parametrize("spec, bound", LATTICE_GRIDS,
                         ids=lambda p: repr(p) if isinstance(p, int) else f"n{p.n}k{p.k}")
def test_lattice_matches_definitions(spec, bound):
    memo: dict = {}
    values = {x: remoteness_oracle(spec, x, memo=memo)
              for x in itertools.combinations_with_replacement(range(bound + 1), spec.n)}
    minimal = _minimal_by_definition(values)
    for v in range(max(values.values()) + 2):
        assert critical_oracle(spec, v, bound) == minimal.get(v, set()), v
    for x in values:
        want = max(values[z] for z in _box(x))
        assert m_of_oracle(spec, x, bound) == want, x


def test_resource_limit_reports_explored_count():
    with pytest.raises(ResourceLimitError) as exc:
        remoteness_oracle(NIM32, (30, 30, 30), max_states=20)
    assert exc.value.explored <= 20


@pytest.mark.parametrize("spec, root", [(GameSpec(3, 2), (9, 11, 13)),
                                        (GameSpec(4, 3), (5, 6, 7, 8)),
                                        (GameSpec(5, 3), (2, 3, 4, 5, 6))])
def test_state_cap_is_exactly_the_reachable_count(spec, root):
    memo: dict = {}
    want = remoteness_oracle(spec, root, memo=memo)
    reachable = len(memo)
    assert remoteness_oracle(spec, root, max_states=reachable) == want
    with pytest.raises(ResourceLimitError) as exc:
        remoteness_oracle(spec, root, max_states=reachable - 1)
    assert exc.value.explored < reachable - 1
    # Every successor known: solving the root alone must still fit.
    del memo[root]
    with pytest.raises(ResourceLimitError) as exc:
        remoteness_oracle(spec, root, memo=memo, max_states=reachable - 1)
    assert exc.value.explored == reachable - 1


def test_resource_limit_env_var(monkeypatch):
    monkeypatch.setenv("SLOWNIM_MAX_STATES", "10")
    with pytest.raises(ResourceLimitError):
        remoteness_oracle(NIM32, (30, 30, 30))


def test_resource_limit_applies_to_prefilled_memos():
    # a memo that already holds every successor still counts against the cap
    memo: dict = {}
    for top in range(40):
        try:
            remoteness_oracle(NIM32, (top, top, top), memo=memo, max_states=50)
        except ResourceLimitError as exc:
            assert exc.explored <= 50
            break
    else:
        pytest.fail("shared memo grew past the cap without an error")


def test_shared_memo_is_consistent():
    memo: dict = {}
    a = remoteness_oracle(NIM32, (6, 6, 6), memo=memo)
    assert remoteness_oracle(NIM32, (6, 6, 6)) == a
    assert memo[(6, 6, 6)] == a
    assert memo[(0, 0, 0)] == 0
