"""Polynomial-time solver for NIM(k+1, k).

The remoteness of a position x (game length under optimal play; even means
the player to move loses) can be read off without searching the game tree:

* Exceptional positions: all piles odd, sum(x) == k*m + k - 1 for a positive
  even m, and max(x) < m.  Their remoteness is that m.
* Every other position has remoteness B(x), the largest b(z) over basic
  positions z dominated by x (see ``oracle.is_basic``).

B(x) itself is found through E(x), the best *even* b(z) over dominated basic
z.  A maximal even-valued witness can be assumed to look like ``(2s,
even-rounded middle piles, b, ..., b)``: coordinates from some cutoff t
upwards all equal b, coordinates strictly between 1 and t are x_i rounded
down to even, and the first coordinate is a free even slack 2s balancing the
stone count.  ``b_t`` maximizes b over candidates of that shape for one
cutoff t; ``E_value`` takes the best over all cutoffs in one pass.  Then

    B(x) = E(x)                   when E(x) >  E(x') + 1,
    B(x) = E(x') + 1              when E(x) <  E(x') + 1,

where x' is the M-rule successor of x.  Equality of the two sides never
happens for a non-exceptional position; hitting it would falsify the rule,
so it raises ``AlgorithmInvariantError`` rather than guessing.

Everything runs in O(n) arithmetic operations after one sort, so positions
with 100k piles of 2^60 stones are fine: each public function validates and
sorts once (``game.plain_position``), then private kernels take the tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

# canonicalize, e_index and m_move go unused: perfbench/tracing.py wraps them here.
from .game import Position, canonicalize, plain_position  # noqa: F401
from .mrule import _e_index, _step, e_index, m_move  # noqa: F401


class AlgorithmInvariantError(RuntimeError):
    """An internal impossibility (per the theory) was observed; the input and
    intermediate values are in the message for a bug report."""


@dataclass(frozen=True)
class EValue:
    """E(x) with its witness: the cutoff t and the basic position realizing it.

    ``value`` is always attained -- the cutoff t = 2 always admits the
    candidate (0, b, ..., b) with b = x_2 rounded down to even -- so there is
    no "minus infinity" case at this level (individual cutoffs can still be
    infeasible; see ``b_t``).
    """

    value: int
    witness_t: int
    witness_z: Position


@dataclass(frozen=True)
class BasicCertificate:
    """A basic position z with b(z) = b dominated by the analyzed position,
    certifying its remoteness."""

    z: Position
    b: int


@dataclass(frozen=True)
class AnalysisResult:
    position: Position
    k: int
    remoteness: int
    status: str                      # "P": mover loses, "N": mover wins
    best_keep_index: int | None      # 1-based on the sorted position
    branch: str                      # "terminal" | "exceptional" | "E-rule"
    certificate: BasicCertificate | None

    @property
    def n(self) -> int:
        return len(self.position)


def is_exceptional(x, k: int) -> int | None:
    """The witness m if x is exceptional (all odd, sum = k*m + k - 1, m even
    positive, max < m), else None."""
    return _exceptional(plain_position(x, k), k)


def _exceptional(x: Position, k: int) -> int | None:
    if any(c % 2 == 0 for c in x):
        return None
    m, rem = divmod(sum(x) - (k - 1), k)
    if rem or m <= 0 or m % 2:
        return None
    if x[-1] >= m:
        return None
    return m


def _cutoff_q(x: Position, k: int, t: int, middle: int) -> int | None:
    """Largest feasible q = b/2 for cutoff t, or None.

    ``middle`` is the sum of the even-rounded coordinates strictly between
    the first one and the cutoff.  The candidate must balance
    2s + middle + (k + 2 - t) * 2q == k * 2q with 0 <= 2s <= x_1, keep
    2q <= x_t for the pinned coordinates, and stay under the cap b:
    infeasibility cannot be repaired by a smaller q, so the cutoff is
    simply rejected.
    """
    n = k + 1
    if t == 2:
        q = x[1] // 2
    else:
        q = (2 * (x[0] // 2) + middle) // (2 * (t - 2))
        if t <= n:
            q = min(q, x[t - 1] // 2)
        if 2 * q * (t - 2) < middle:   # would need negative slack 2s
            return None
    if t >= 3 and x[t - 2] // 2 > q:   # even-rounded middle pile above the cap
        return None
    return q


def _candidate(x: Position, t: int, q: int, middle: int) -> Position:
    """Materialize the witness for (t, q); comes out already sorted."""
    slack = 2 * q * (t - 2) - middle
    z = [slack]
    z.extend(2 * (c // 2) for c in x[1:t - 1])
    z.extend([2 * q] * (len(x) - (t - 1)))
    return tuple(z)


def b_t(x, k: int, t: int) -> int | None:
    """Best even b(z) over witnesses with cutoff t, or None when the shape is
    infeasible for this t."""
    x = plain_position(x, k)
    if not 2 <= t <= k + 2:
        raise ValueError(f"t must lie in 2..{k + 2}, got {t}")
    middle = sum(2 * (c // 2) for c in x[1:t - 1])
    q = _cutoff_q(x, k, t, middle)
    return None if q is None else 2 * q


def E_value(x, k: int) -> EValue:
    """Best even b(z) over all basic z dominated by x, with a witness.

    E(x) <= B(x) always, with equality exactly when B(x) is even.
    """
    return _E(plain_position(x, k), k)


def _E(x: Position, k: int) -> EValue:
    best_q = -1
    best_t = -1
    best_middle = 0
    middle = 0
    for t in range(2, k + 3):
        if t >= 3:
            middle += 2 * (x[t - 2] // 2)
        q = _cutoff_q(x, k, t, middle)
        if q is not None and q > best_q:
            best_q, best_t, best_middle = q, t, middle
    z = _candidate(x, best_t, best_q, best_middle)
    return EValue(value=2 * best_q, witness_t=best_t, witness_z=z)


def _lift_certificate(keep: int, ev: EValue) -> BasicCertificate:
    """Turn a witness for the M-rule successor x' into one for x itself: add
    the removed stone back on every pile except the kept one.  The result has
    exactly one even pile and value b + 1."""
    z = [c + 1 for c in ev.witness_z]
    z[keep - 1] = ev.witness_z[keep - 1]
    z.sort()
    return BasicCertificate(z=tuple(z), b=ev.value + 1)


def _b_from_e(x: Position, k: int, keep: int) -> tuple[int, BasicCertificate]:
    """B(x) and its certificate; x sorted, not exceptional, not terminal."""
    # x' goes first and unnamed, so it is freed before E(x)'s witness is built.
    ev_next = _E(_step(x, keep), k)
    ev = _E(x, k)
    if ev.value > ev_next.value + 1:
        return ev.value, BasicCertificate(z=ev.witness_z, b=ev.value)
    if ev.value < ev_next.value + 1:
        del ev      # E(x)'s witness is not needed: free it before lifting
        return ev_next.value + 1, _lift_certificate(keep, ev_next)
    raise AlgorithmInvariantError(
        f"E(x) == E(x') + 1 == {ev.value} at x={x}, x'={_step(x, keep)}; "
        "this should be impossible for a non-exceptional position"
    )


def b_fast(x, k: int) -> int:
    """B(x) for non-exceptional x, via E(x) and E(M-move of x)."""
    x = plain_position(x, k)
    if _exceptional(x, k) is not None:
        raise ValueError(
            f"{x} is exceptional; its remoteness is the witness m, not B(x)"
        )
    if x[1] == 0:   # terminal: at most one nonempty pile
        return 0
    return _b_from_e(x, k, _e_index(x))[0]


def remoteness_fast(x, k: int) -> AnalysisResult:
    """Remoteness, P/N status, an optimal move, and the certifying branch."""
    x = plain_position(x, k)
    if x[1] == 0:
        return AnalysisResult(x, k, 0, "P", None, "terminal", None)
    keep = _e_index(x)
    m = _exceptional(x, k)
    if m is not None:
        return AnalysisResult(x, k, m, "P", keep, "exceptional", None)
    b, cert = _b_from_e(x, k, keep)
    status = "P" if b % 2 == 0 else "N"
    return AnalysisResult(x, k, b, status, keep, "E-rule", cert)


def best_move(x, k: int) -> int:
    """1-based keep-index of an optimal move (the M-rule move) from sorted x."""
    x = plain_position(x, k)
    if x[1] == 0:
        raise ValueError(f"{x} is terminal; no move exists")
    return _e_index(x)
