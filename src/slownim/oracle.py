"""Brute-force ground truth for small games.

Everything here works straight from the definitions, with no shortcuts, so
the fast solver and the closed-form results can be checked against it:

* ``remoteness_oracle`` -- length of the game under optimal play, where the
  winner hurries and the loser delays.  Even remoteness means the player to
  move loses (a P-position).
* ``sg_oracle`` -- classical Sprague-Grundy value (mex over successors); it is
  zero exactly on P-positions.
* ``is_basic`` / ``b_oracle`` -- the "basic position" machinery for n = k + 1:
  a basic position z has k * b(z) stones in total, no pile above b(z), and
  all piles even when b(z) is even / exactly one pile even when b(z) is odd.
  ``b_oracle(x)`` is the largest b(z) over basic z dominated by x, found by
  exhaustive enumeration.
* ``critical_oracle`` / ``m_of_oracle`` -- minimal positions of a given
  remoteness under coordinatewise dominance of sorted forms, and the value
  m(x), the largest remoteness among the minimal positions x dominates.
  Both read one table, built in a single pass over the grid [0..bound]^n
  and cached for the most recent grid: the remoteness values at or below x.

Memo tables are plain dicts keyed by canonical positions (raw tuples for
hypergraph specs).  Every table has an explicit size cap; crossing it raises
``ResourceLimitError`` instead of silently degrading.  Tables are filled with
write-once deterministic values, so sharing one across threads is harmless
under the GIL; by default every call builds its own.
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache

from .game import (GameSpec, Position, _children, _describe, _require_plain,
                   plain_position, spec_position)
from .game import successors  # noqa: F401 -- looked up here by perfbench/tracing.py

MAX_STATES_ENV = "SLOWNIM_MAX_STATES"
DEFAULT_MAX_STATES = 1_000_000


class ResourceLimitError(RuntimeError):
    """A search outgrew its cap: the oracle's memo table, the closed-form
    enumeration's position count or the printed playout's length."""

    def __init__(self, message: str, explored: int):
        super().__init__(message)
        self.explored = explored


def _state_limit(max_states: int | None) -> int:
    if max_states is None:
        env = os.environ.get(MAX_STATES_ENV)
        max_states = int(env) if env else DEFAULT_MAX_STATES
    if max_states < 1:
        raise ValueError(f"max_states and {MAX_STATES_ENV} must be positive, "
                         f"got {max_states}")
    return max_states


def _solve(spec: GameSpec, root, combine, memo: dict, limit: int) -> int:
    """Fill memo bottom-up with combine(successor values); iterative on purpose
    so deep positions cannot blow the recursion stack."""
    if root in memo:
        return memo[root]
    stack = [(root, None)]
    while stack:
        pos, succ = stack[-1]
        if succ is None:
            if pos in memo:
                stack.pop()
                continue
            succ = _children(spec, pos)
            missing = [s for s in succ if s not in memo]
            # Pending states must fit, and so must pos itself once it is solved.
            if len(memo) + (len(stack) + len(missing) if missing else 1) > limit:
                raise ResourceLimitError(
                    f"state limit {limit} exceeded with {len(memo)} states "
                    f"explored while solving {_describe(root)} (set "
                    f"{MAX_STATES_ENV} or pass max_states to raise it)",
                    explored=len(memo),
                )
            if missing:
                stack[-1] = (pos, succ)
                stack.extend((s, None) for s in missing)
                continue
        # No successor of pos is unsolved: none was missing, or this is the
        # second visit.  Depth first, everything pushed above pos is solved by
        # then, and the first visit's check already counted pos and all of it.
        memo[pos] = combine([memo[s] for s in succ])
        stack.pop()
    return memo[root]


def _remoteness_combine(values: list[int]) -> int:
    if not values:
        return 0
    evens = [v for v in values if v % 2 == 0]
    # A winning successor exists: take the quickest win.  Otherwise all
    # successors win for the opponent: stall as long as possible.
    if evens:
        return 1 + min(evens)
    return 1 + max(values)


def _sg_combine(values: list[int]) -> int:
    seen = set(values)
    g = 0
    while g in seen:
        g += 1
    return g


def remoteness_oracle(spec: GameSpec, x, *, memo: dict | None = None,
                      max_states: int | None = None) -> int:
    """Game length under optimal play (winner minimizes, loser maximizes)."""
    root = spec_position(spec, x)
    if memo is None:
        memo = {}
    return _solve(spec, root, _remoteness_combine, memo, _state_limit(max_states))


def sg_oracle(spec: GameSpec, x, *, memo: dict | None = None,
              max_states: int | None = None) -> int:
    """Sprague-Grundy value: mex of the successor values."""
    root = spec_position(spec, x)
    if memo is None:
        memo = {}
    return _solve(spec, root, _sg_combine, memo, _state_limit(max_states))


def is_basic(z, k: int) -> int | None:
    """b(z) if z is basic for NIM(k+1, k), else None.

    Basic means: sum(z) == k * b, every pile <= b, and the piles are all even
    when b is even / all odd except exactly one when b is odd.  Note b = 0 is
    a valid (falsy) return; compare against None.
    """
    return _basic(plain_position(z, k), k)


def _basic(z: Position, k: int) -> int | None:
    b, rem = divmod(sum(z), k)
    return b if not rem and z[-1] <= b and _parity(z, b) else None


def _parity(z: Position, b: int) -> bool:
    """The parity rule of a basic position of value b."""
    evens = sum(1 for c in z if c % 2 == 0)
    return evens == len(z) if b % 2 == 0 else evens == 1


def _sorted_below(top: Position, total: int | None = None):
    """Every non-decreasing z with z[i] <= top[i] (top sorted), in
    lexicographic order; only the z summing to total when it is given.
    A loop, so any pile count works.  Entry i keeps to the values that let
    the rest end in range (sum(top[i + 1:]) is the most the rest can add,
    and n - i entries of at least z[i] the least), so no fill fails."""
    n = len(top)
    room = list(itertools.accumulate(reversed(top), initial=0))[::-1]
    least, most = (0, room[0]) if total is None else (total, total)
    z, high = [0] * n, [0] * n
    i = s = 0                           # s = sum(z[:i])
    while True:
        while i < n:                    # fill z[i:] with their least values
            high[i] = min(top[i], (most - s) // (n - i))
            z[i] = max(z[i - 1] if i else 0, least - s - room[i + 1])
            if z[i] > high[i]:          # at i = 0 only: the box holds no z
                return
            s += z[i]
            i += 1
        yield tuple(z)
        i -= 1                          # back to the last entry below its high
        while z[i] == high[i]:
            if not i:
                return
            s -= z[i]
            i -= 1
        z[i] += 1
        s += 1
        i += 1


def b_oracle(x, k: int) -> int:
    """Largest b(z) over basic z dominated by x, by exhaustive enumeration."""
    x = plain_position(x, k)
    best = 0
    for z in _sorted_below(x):
        b, rem = divmod(sum(z), k)
        if not rem and b > best and z[-1] <= b and _parity(z, b):
            best = b
    return best


@lru_cache(maxsize=1)
def _lattice(spec: GameSpec, bound: int, limit: int):
    """One pass over the sorted grid [0..bound]^n, in lexicographic order.

    A cover of x is x with the first entry of one run of equal values lowered
    by one.  Every sorted z < x lies at or below some cover of x, and covers
    come earlier in the order, so ``masks[x]``, the bitmask of the
    remoteness values of all sorted z <= x, is one OR over the covers.
    x is critical for v = R(x) exactly when bit v is missing from that OR.
    Returns (masks, criticals), criticals[v] listing the critical positions
    of value v in sorted order.
    """
    memo: dict = {}
    masks: dict[Position, int] = {}
    criticals: dict[int, list[Position]] = {}
    for x in itertools.combinations_with_replacement(range(bound + 1), spec.n):
        below, prev = 0, 0
        for i, c in enumerate(x):
            if c > prev:
                below |= masks[x[:i] + (c - 1,) + x[i + 1:]]
            prev = c
        v = _solve(spec, x, _remoteness_combine, memo, limit)
        if not below >> v & 1:
            criticals.setdefault(v, []).append(x)
        masks[x] = below | 1 << v
    return masks, criticals


def critical_oracle(spec: GameSpec, m: int, bound: int, *,
                    max_states: int | None = None) -> set[Position]:
    """Positions of remoteness m, with coordinates <= bound, that dominate no
    other position of remoteness m.

    The bound is the caller's promise that every relevant position fits in
    the grid; for n = k + 1 coordinates of such minimal positions never
    exceed m, so bound = m + 1 is comfortable.
    """
    _require_plain(spec, "critical_oracle")
    if m < 0 or bound < 0:
        raise ValueError("m and bound must be nonnegative")
    _, criticals = _lattice(spec, bound, _state_limit(max_states))
    return set(criticals.get(m, ()))


def m_of_oracle(spec: GameSpec, x, bound: int, *, max_states: int | None = None) -> int:
    """The value m(x): x dominates some minimal position of remoteness m and
    none of a larger one, i.e. m(x) is the largest remoteness of a sorted
    z <= x.  The grid [0..bound]^n holds every such z once it holds x, so
    bound only has to be >= max(x); a smaller one raises ValueError.
    """
    _require_plain(spec, "m_of_oracle")
    x = spec_position(spec, x)
    if x[-1] > bound:
        raise ValueError(f"{_describe(x)} does not fit in the grid of bound {bound}")
    masks, _ = _lattice(spec, bound, _state_limit(max_states))
    return masks[x].bit_length() - 1
