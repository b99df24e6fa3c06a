"""Minimal positions of a given remoteness, and their closed form for n = k+1.

A position is m-critical when its remoteness is m and it dominates (sorted
forms, coordinatewise) no other position of remoteness m.  For NIM(k+1, k)
the m-critical positions are exactly:

* branch A: sum(x) == k*m, max(x) <= m, and all piles even when m is even /
  exactly one pile even when m is odd;
* branch B: sum(x) == k*m + k - 1, max(x) < m, m even, all piles odd
  (the exceptional positions).

``enumerate_critical`` builds each branch from the halves w of its piles
(z = 2w, or 2w + 1 when odd) as bounded sorted tuples of one sum, so every
candidate it reads is a position.  ``check_conjecture`` probes the conjectured
generalization to arbitrary (n, k) -- k*m <= sum(x) < k*(m+1) and
max(x) <= m for every m-critical x -- against the brute-force oracle and
*reports* violations instead of asserting, since the statement is unproven.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice

from .fast import _exceptional
from .game import GameSpec, Position, canonicalize, plain_position
from .oracle import ResourceLimitError, _basic, _sorted_below, critical_oracle

# enumerate_critical's default cap on the piles its positions hold in total.
MAX_PILES = 1_000_000


@dataclass
class CriticalReport:
    """Outcome of a critical-position enumeration or conjecture check."""

    m: int
    positions: tuple[Position, ...]
    branches: dict[Position, str | None] = field(default_factory=dict)
    violations: tuple[tuple[Position, str], ...] = ()


def dominates(x, y) -> bool:
    """Coordinatewise >= on the sorted forms."""
    x = canonicalize(x)
    y = canonicalize(y)
    if len(x) != len(y):
        raise ValueError(f"cannot compare {len(x)} piles with {len(y)}")
    return all(a >= b for a, b in zip(x, y))


def strictly_dominates(x, y) -> bool:
    x = canonicalize(x)
    y = canonicalize(y)
    return dominates(x, y) and x != y


def is_m_critical(x, k: int, m: int) -> str | None:
    """'A' or 'B' (the matching branch above) or None; n = k + 1 only."""
    x = plain_position(x, k)
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"m must be a nonnegative integer, got {m!r}")
    if _basic(x, k) == m:
        return "A"
    if _exceptional(x, k) == m:
        return "B"
    return None


def enumerate_critical(k: int, m: int, *,
                       max_positions: int | None = None) -> CriticalReport:
    """All m-critical positions of NIM(k+1, k), straight from the closed form.

    More than ``max_positions`` of them raise ``ResourceLimitError``.  By
    default the cap counts stored piles: MAX_PILES // (k + 1) positions, but
    never fewer than one.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"m must be a nonnegative integer, got {m!r}")
    h = m // 2
    if m % 2:           # A only: one even pile e < m among k odd piles 2w + 1
        tagged = ((tuple(sorted((e, *(2 * v + 1 for v in w)))), "A")
                  for e in range(0, m, 2)
                  for w in _sorted_below((h,) * k, (k * (m - 1) - e) // 2))
    else:               # A: z = 2w, w <= h; B: z = 2w + 1 < m, sum k*m + k - 1
        tagged = chain(
            ((tuple(2 * v for v in w), "A") for w in _sorted_below((h,) * (k + 1), k * h)),
            ((tuple(2 * v + 1 for v in w), "B")
             for w in _sorted_below((h - 1,) * (k + 1), k * h - 1)))
    cap = max(1, MAX_PILES // (k + 1)) if max_positions is None else max_positions
    branches = dict(islice(tagged, max(cap, 0) + 1))
    if len(branches) > cap:             # one candidate read past the cap
        raise ResourceLimitError(
            f"more than {cap} critical positions of {k + 1} piles; "
            "raise max_positions to enumerate them all",
            explored=len(branches) - 1,
        )
    return CriticalReport(m=m, positions=tuple(sorted(branches)), branches=branches)


def check_conjecture(spec: GameSpec, m: int, bound: int, *,
                     max_states: int | None = None) -> CriticalReport:
    """Probe the conjectured sum/max bounds on the oracle's m-critical
    positions of an arbitrary NIM(n, k); violations are reported, never
    asserted."""
    crits = sorted(critical_oracle(spec, m, bound, max_states=max_states))
    violations: list[tuple[Position, str]] = []
    k = spec.k
    for x in crits:
        total = sum(x)
        if not k * m <= total < k * (m + 1):
            violations.append(
                (x, f"sum {total} outside [{k * m}, {k * (m + 1)})"))
        if x[-1] > m:
            violations.append((x, f"max coordinate {x[-1]} exceeds m = {m}"))
    branches: dict[Position, str | None] = {}
    if spec.n == spec.k + 1:
        branches = {x: is_m_critical(x, k, m) for x in crits}
    return CriticalReport(m=m, positions=tuple(crits), branches=branches,
                          violations=tuple(violations))
