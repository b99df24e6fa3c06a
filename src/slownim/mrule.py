"""The M-rule: an optimal greedy strategy for NIM(k+1, k).

One move keeps exactly one pile.  The rule picks the kept pile like this:
if every pile is odd, keep a largest one; otherwise keep a smallest even
pile, breaking ties towards the largest index.  Played from both sides this
rule realizes the remoteness exactly: the playout length equals the game
length under optimal play, so the rule is optimal for winner and loser alike.

On a sorted position the kept index is ``e_index``: the maximal index holding
the smallest even coordinate, or n when all coordinates are odd.  Reducing
every other coordinate by one leaves the tuple sorted, so M-moves need no
re-sorting -- the tests check this, no run-time check does.  Public functions
sort once; the kernels ``_e_index``, ``_step`` and ``_playout_length`` take
sorted tuples.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .game import (GameSpec, Position, _describe, _require_plain, canonicalize,
                   plain_position)
from .game import is_terminal  # noqa: F401 -- looked up here by perfbench/tracing.py


@dataclass(frozen=True)
class MRulePlayout:
    """Full record of a playout where both players follow the M-rule."""

    start: Position
    moves: tuple[int, ...]          # kept index per step, 1-based
    positions: tuple[Position, ...]  # start, every intermediate, terminal

    @property
    def length(self) -> int:
        return len(self.moves)


def _position(x, spec: GameSpec | None) -> Position:
    """Sorted x, checked as a NIM(k+1, k) position (of spec, when given)."""
    if spec is None:
        x = canonicalize(x)
        if len(x) < 2:
            raise ValueError("the M-rule needs n = k + 1 >= 2 piles")
        return x
    _require_plain(spec, "the M-rule")
    if spec.n != spec.k + 1:
        raise ValueError(f"the M-rule needs n = k + 1, got n={spec.n} k={spec.k}")
    return plain_position(x, spec.k)


def _e_index(x: Position) -> int:
    """``e_index`` of an already sorted tuple."""
    v = next((c for c in x if c % 2 == 0), None)
    return len(x) if v is None else bisect_right(x, v)


def e_index(x) -> int:
    """1-based index of the pile the M-rule keeps, on the sorted position.

    Maximal index holding the smallest even coordinate; n when all odd.
    """
    return _e_index(canonicalize(x))


def _step(x: Position, keep: int) -> Position:
    """The one M-move body: one stone off every pile but 1-based ``keep``."""
    keep -= 1
    return tuple(c if i == keep else c - 1 for i, c in enumerate(x))


def m_move(x, spec: GameSpec | None = None) -> Position:
    """One M-rule move; the result is sorted without re-sorting."""
    x = _position(x, spec)
    if x[1] == 0:   # at most one nonempty pile: no k piles to reduce
        raise ValueError(f"{_describe(x)} is terminal; no move exists")
    return _step(x, _e_index(x))


def m_count(x, spec: GameSpec | None = None) -> MRulePlayout:
    """Play the M-rule from x until no move remains; the playout length
    equals the remoteness of x."""
    x = _position(x, spec)
    moves: list[int] = []
    trace = [x]
    cur = x
    while cur[1] > 0:
        keep = _e_index(cur)
        moves.append(keep)
        cur = _step(cur, keep)
        trace.append(cur)
    return MRulePlayout(start=x, moves=tuple(moves), positions=tuple(trace))


def _playout_length(x: Position, lengths: dict) -> int:
    """``m_count(x).length`` of a sorted tuple, memoized in ``lengths``.

    L(x) = 1 + L(M(x)), and L is 0 on a terminal position.  The M-rule steps
    from x only until it reaches a position whose length ``lengths`` already
    holds; every position passed on the way is then recorded there, so
    playouts sharing a tail step through it once.
    """
    path = []
    while x[1] > 0 and x not in lengths:
        path.append(x)
        x = _step(x, _e_index(x))
    length = lengths.get(x, 0)      # absent only when x is terminal
    for p in reversed(path):
        length += 1
        lengths[p] = length
    return length
