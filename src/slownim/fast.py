"""Polynomial-time solver for NIM(k+1, k).

The remoteness of a position x (game length under optimal play; even means
the player to move loses) can be read off without searching the game tree:

* Exceptional positions: all piles odd, sum(x) == k*m + k - 1 for a positive
  even m, and max(x) < m.  Their remoteness is that m.
* Every other position has remoteness B(x), the largest b(z) over basic
  positions z dominated by x (see ``oracle.is_basic``).

B(x) itself is found through E(x), the best *even* b(z) over dominated basic
z.  With e_i = x_i rounded down to even, an even b is attainable exactly
when sum(min(e_i, b)) >= k*b (lower the first pile to balance the stone
count), so for sorted x

    E(x) = 2 * min over j = 2..n of floor(P_j / 2(j - 1)),

where P_j = e_1 + ... + e_j; ``E_value`` computes it in one streaming pass.
The paper builds the same value per cutoff: ``b_t`` is the best even b over
witnesses ``(2s, even-rounded middle piles, b, ..., b)`` whose coordinates
from the cutoff t upwards all equal b, and E(x) = max over t of ``b_t``.
Then

    B(x) = E(x)                   when E(x) >  E(x') + 1,
    B(x) = E(x') + 1              when E(x) <  E(x') + 1,

where x' is the M-rule successor of x.  Equality of the two sides never
happens for a non-exceptional position; hitting it would falsify the rule,
so it raises ``AlgorithmInvariantError`` rather than guessing.

x' is never built.  It is x less one stone on every pile but the kept one,
and it is still sorted, so e'_i = e_i for odd x_i and for the kept pile, and
e'_i = e_i - 2 for every other even x_i.  One loop over x (``_E_pair``)
keeps P_j and P'_j side by side.  Each ratio P_j / (j - 1) falls while the
next even-rounded pile lies below it; once a pile reaches it, it never falls
again (the piles are sorted), so each minimum is read where its ratio stops
falling and the loop ends when both have stopped.  Only the branch taken
gets a certificate: E(x)'s witness from x, or the lifted witness of E(x'),
also built straight from x.

Everything runs in O(n) arithmetic operations after one sort, so positions
with 100k piles of 2^60 stones are fine: each public function validates and
sorts once (``game.plain_position``), then private kernels take the tuple.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, islice, repeat

# canonicalize, e_index and m_move go unused: perfbench/tracing.py wraps them here.
from .game import Position, _describe, canonicalize, plain_position  # noqa: F401
from .mrule import _e_index, e_index, m_move  # noqa: F401


class AlgorithmInvariantError(RuntimeError):
    """An internal impossibility (per the theory) was observed; the sizes and
    intermediate values, and x itself when it has at most 20 piles, are in
    the message for a bug report."""


@dataclass(frozen=True)
class EValue:
    """E(x) with its witness: a basic position realizing it and its cutoff.

    ``value`` is 2 * min over j = 2..n of floor(P_j / 2(j - 1)), P_j the sum
    of the first j piles rounded down to even; it is always attained, so
    there is no "minus infinity" case at this level.  ``witness_z`` takes
    min(e_i, value) on every pile, less the surplus stones on the first, and
    ``witness_t`` is the cutoff of that shape: ``b_t(x, k, witness_t)`` equals
    ``value``, while other cutoffs may be infeasible (see ``b_t``).
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


def b_t(x, k: int, t: int) -> int | None:
    """Best even b(z) over witnesses with cutoff t, or None when the shape is
    infeasible for this t.

    The witness is (2s, x_2, ..., x_{t-1} rounded down to even, b, ..., b).
    It must balance 2s + middle + (k + 2 - t) * b == k * b with
    0 <= 2s <= x_1, keep b <= x_t for the pinned coordinates, and stay at or
    above every middle pile: infeasibility cannot be repaired by a smaller b,
    so the cutoff is simply rejected.
    """
    x = plain_position(x, k)
    if not 2 <= t <= k + 2:
        raise ValueError(f"t must lie in 2..{k + 2}, got {t}")
    if t == 2:
        return 2 * (x[1] // 2)
    middle = sum(2 * (c // 2) for c in x[1:t - 1])
    q = (2 * (x[0] // 2) + middle) // (2 * (t - 2))
    if t <= k + 1:
        q = min(q, x[t - 1] // 2)
    # A negative slack 2s, or a middle pile above b, rules the cutoff out.
    if 2 * q * (t - 2) < middle or x[t - 2] // 2 > q:
        return None
    return 2 * q


def E_value(x, k: int) -> EValue:
    """Best even b(z) over all basic z dominated by x, with a witness.

    E(x) <= B(x) always, with equality exactly when B(x) is even.
    """
    return _E(plain_position(x, k), k)


def _E(x: Position, k: int) -> EValue:
    sums = accumulate(c & -2 for c in x)    # P_j over piles rounded down to even
    next(sums)                              # P_1 bounds nothing
    b = 2 * min(p // (2 * j) for j, p in enumerate(sums, 1))
    return EValue(value=b, witness_t=max(2, bisect_left(x, b) + 1),
                  witness_z=_witness(x, k, b))


def _witness(x: Position, k: int, b: int) -> Position:
    """The basic z <= x with b(z) = b for b = E(x): min(e_i, b) on every pile,
    less the surplus stones on the first."""
    low = bisect_left(x, b)                 # piles below b keep e_i, the rest b
    z = [c & -2 for c in islice(x, low)]
    z.extend(repeat(b, len(x) - low))
    z[0] -= sum(z) - k * b                  # the surplus is at most z[0]
    return tuple(z)


def _E_pair(x: Position, keep: int) -> tuple[int, int]:
    """(E(x), E(x')) in one loop over sorted x, x' its M-move keeping the
    1-based pile ``keep``; x' itself is never built.

    p and q hold P_j and P'_j.  Each ratio P_j / (j - 1), read from j = 2 on,
    stops falling at the first next pile e with e * (j - 1) >= P_j and never
    falls again, so its minimum is the ratio there.
    """
    keep -= 1
    p = q = 0
    for i, c in enumerate(islice(x, 2)):
        e = c & -2
        p += e
        q += e if c & 1 or i == keep else e - 2
    jp = jq = 1                             # j - 1 of the prefix each sum holds
    p_falls = q_falls = True
    for i in range(2, len(x)):
        c = x[i]
        e = c & -2
        if p_falls:
            if e * jp < p:
                p += e
                jp += 1
            else:
                p_falls = False
        if q_falls:
            if not (c & 1 or i == keep):
                e -= 2
            if e * jq < q:
                q += e
                jq += 1
            else:
                q_falls = False
        if not (p_falls or q_falls):
            break
    return 2 * (p // (2 * jp)), 2 * (q // (2 * jq))


def _lift_certificate(x: Position, k: int, keep: int, b: int) -> BasicCertificate:
    """The certificate for odd b = E(x') + 1, built from x without x'.

    E(x')'s witness is z'_i = min(e'_i, b - 1), less the surplus on the first
    pile; adding the removed stone back on every pile but ``keep`` gives a
    basic z <= x with exactly one even pile and b(z) = b.  Off the kept pile
    e'_i + 1 is x_i rounded down to odd, so the lifted pile is
    min((x_i - 1) | 1, b), and the kept one min(e_i, b - 1).
    """
    high = bisect_left(x, b)                # piles at or above b lift to b
    z = [(c - 1) | 1 for c in islice(x, high)]
    z.extend(repeat(b, len(x) - high))
    z[keep - 1] = min(x[keep - 1] & -2, b - 1)
    z[0] -= sum(z) - k * b                  # the same surplus as z'[0] loses
    z.sort()
    return BasicCertificate(z=tuple(z), b=b)


def _b_from_e(x: Position, k: int, keep: int) -> tuple[int, BasicCertificate]:
    """B(x) and its certificate; x sorted, not exceptional, not terminal."""
    e, e_next = _E_pair(x, keep)
    if e > e_next + 1:
        return e, BasicCertificate(z=_witness(x, k, e), b=e)
    if e < e_next + 1:
        return e_next + 1, _lift_certificate(x, k, keep, e_next + 1)
    raise AlgorithmInvariantError(
        f"E(x) == E(x') + 1 at k={k}, n={len(x)}, keep={keep}: E(x)={e}, "
        f"E(x')={e_next}, x={_describe(x)}; this should be impossible for a "
        "non-exceptional position"
    )


def b_fast(x, k: int) -> int:
    """B(x) for non-exceptional x, via E(x) and E(M-move of x)."""
    result = remoteness_fast(x, k)
    if result.branch == "exceptional":
        raise ValueError(f"{_describe(result.position)} is exceptional; its "
                         "remoteness is the witness m, not B(x)")
    return result.remoteness


def remoteness_fast(x, k: int) -> AnalysisResult:
    """Remoteness, P/N status, an optimal move, and the certifying branch."""
    return _analyze(plain_position(x, k), k)


def _analyze(x: Position, k: int) -> AnalysisResult:
    """``remoteness_fast`` of an already checked, sorted NIM(k+1, k) tuple."""
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
        raise ValueError(f"{_describe(x)} is terminal; no move exists")
    return _e_index(x)
