"""Closed-form P/N rules for NIM(4, 3): four piles, each move hits three.

These case rules were found empirically and are *unproven*; they are kept in
this module only, nothing else in the package depends on them, and
``nim43_consistency`` exists to compare them exhaustively against the solver
(`remoteness_fast` parity) on a grid.

Conventions, with x = (x1, x2, x3, x4) sorted non-decreasingly:

* the case is sum(x) mod 3 (a move removes 3 stones, so the residue never
  changes during play);
* ``gap`` is x3 - x2 - x1;
* ``surplus`` is x1 + x2 + x3 - 2*x4 (positive when the three smaller piles
  together exceed twice the largest); a negative surplus means the largest
  pile dominates the position;
* ``[cond]`` is a 0/1 indicator;
* "v = 12k" means v is nonnegative and divisible by 12.

Status "P" means the player to move loses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .game import plain_position
from .fast import remoteness_fast


@dataclass(frozen=True)
class Nim43Verdict:
    status: str          # "P" | "N"
    case: int            # sum(x) mod 3
    rule: str            # which clause of the case fired
    p: int | None = None
    q: int | None = None


def _twelve(v: int) -> int:
    return 1 if v >= 0 and v % 12 == 0 else 0


def nim43_status(x) -> Nim43Verdict:
    """Evaluate the case rules on a 4-pile position; exactly one clause fires."""
    x = plain_position(x, 3)
    x1, x2, x3, x4 = x
    case = (x1 + x2 + x3 + x4) % 3
    gap = x3 - x2 - x1
    both_odd = x1 % 2 == 1 and x2 % 2 == 1

    if case == 0:
        if both_odd:
            return Nim43Verdict("N", 0, "0.both-odd")
        if gap >= 0:
            return Nim43Verdict("P" if (x1 + x2) % 2 == 0 else "N", 0, "0.gap>=0")
        if gap == -1:
            return Nim43Verdict("P" if (x1 + x2) % 2 == 1 else "N", 0, "0.gap=-1")
        if (x1 + x3 - x2) % 2 == 0:
            return Nim43Verdict("P" if (x1 + x2) % 2 == 0 else "N", 0, "0.even-diff")
        p = 1 if (x1 + x3 - x2) % 4 == 3 else 0
        q = _twelve(x1 + x2 + x3 - 2 * x4 - 3)
        return Nim43Verdict("P" if (x2 + p + q) % 2 == 0 else "N", 0,
                            "0.residues", p=p, q=q)

    if case == 1:
        if both_odd:
            return Nim43Verdict("N", 1, "1.both-odd")
        if gap >= 0 or gap % 2 == 0 or gap == -3:
            return Nim43Verdict("P" if (x1 + x2) % 2 == 0 else "N", 1, "1.gap-easy")
        if gap in (-1, -5):
            return Nim43Verdict("P" if (x1 + x2) % 2 == 1 else "N", 1, "1.gap=-1,-5")
        p = 1 if (x1 + x3 - x2) % 4 == 1 else 0
        q = _twelve(x1 + x2 + x3 - 2 * x4 - 7)
        return Nim43Verdict("P" if (x2 + p + q) % 2 == 1 else "N", 1,
                            "1.residues", p=p, q=q)

    # case == 2.  Past the gap clauses the deciding quantity is the surplus
    # x1 + x2 + x3 - 2*x4: with a nonnegative surplus the status is a pure
    # parity test on the total, and in deficit it is a mod-4 residue test.
    surplus = x1 + x2 + x3 - 2 * x4
    even_total = (x1 + x2 + x3 + x4) % 2 == 0
    if both_odd:
        if gap >= 0 or gap in (-1, -3, -4, -7):
            return Nim43Verdict("N", 2, "2a.gap-list")
        return Nim43Verdict("P" if surplus >= 0 and even_total else "N", 2,
                            "2a.surplus")
    if x1 % 2 == 1:   # x2 even
        if gap >= 0 or gap in (-2, -3, -6):
            return Nim43Verdict("N", 2, "2b.gap-list")
        if gap == -1:
            return Nim43Verdict("P", 2, "2b.gap=-1")
        if surplus >= 0:
            return Nim43Verdict("P" if even_total else "N", 2, "2b.surplus")
        p = 1 if (x1 + x3 - x2) % 4 == 1 else 0
        return Nim43Verdict("P" if p == 1 else "N", 2, "2b.deficit", p=p)
    # x1 even
    if gap >= 0 or gap in (-2, -3, -6):
        return Nim43Verdict("P" if x2 % 2 == 0 else "N", 2, "2c.gap-list")
    if gap == -1:
        return Nim43Verdict("P" if x2 % 2 == 1 else "N", 2, "2c.gap=-1")
    if surplus >= 0:
        return Nim43Verdict("P" if even_total else "N", 2, "2c.surplus")
    p = 1 if (x1 + x3 - x2) % 4 == 3 else 0
    return Nim43Verdict("P" if (p + x2) % 2 == 0 else "N", 2, "2c.deficit", p=p)


def nim43_consistency(bound: int) -> list[tuple[tuple[int, ...], str, str]]:
    """Compare the case rules against the solver on every sorted 4-tuple with
    coordinates <= bound; returns (position, rule status, solver status) for
    each disagreement.  Expected empty."""
    import itertools

    mismatches = []
    for x in itertools.combinations_with_replacement(range(bound + 1), 4):
        formula = nim43_status(x).status
        solver = remoteness_fast(x, 3).status
        if formula != solver:
            mismatches.append((x, formula, solver))
    return mismatches
