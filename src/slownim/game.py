"""Game model for exact slow NIM.

NIM(n, k): there are n piles of stones, and a move removes exactly one stone
from each of exactly k piles.  The player who cannot move loses.  Positions
are kept canonical (coordinates sorted non-decreasingly) because the game is
symmetric under pile permutations.  Pile sizes are plain Python ints, so very
large piles are handled exactly.

Most of this package targets the n = k + 1 family, where a move keeps exactly
one pile untouched; such a move is named by the 1-based index of the kept
coordinate in the sorted position.  For general (n, k) a move is the sorted
tuple of kept indices (size n - k).

There is also a hypergraph variant: a move picks a hyperedge all of whose
piles are nonempty and removes one stone from each pile of that edge.  With
the complete k-uniform hypergraph this is NIM(n, k) again, except that the
edge names the reduced piles instead of the kept ones.  Hyperedges refer to
fixed pile identities, so the hypergraph game is not permutation symmetric
and its positions are deliberately *not* canonicalized.

Each kind of spec has one validator: ``plain_position`` for NIM(k+1, k) and
``spec_position`` for any ``GameSpec``.  Public functions validate their
input once through it; the private kernels (``_playable``, ``_children``)
take the checked tuple as it is, so the oracle expands its own states
without checking them again.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

Position = tuple[int, ...]


@dataclass(frozen=True)
class GameSpec:
    """Parameters of one game: pile count n, move size k, optional hyperedges.

    When ``hyperedges`` is given, moves come from the edges (each edge is a
    set of 1-based pile indices) and ``k`` is ignored for move generation.
    """

    n: int
    k: int
    hyperedges: frozenset[frozenset[int]] | None = None

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.k, int) or not 0 < self.k <= self.n:
            raise ValueError(f"k must satisfy 0 < k <= n = {self.n}, got k={self.k!r}")
        if self.hyperedges is not None:
            edges = frozenset(frozenset(e) for e in self.hyperedges)
            if not edges:
                raise ValueError("hyperedge set must be nonempty")
            for edge in edges:
                if not edge:
                    raise ValueError("hyperedges must be nonempty")
                if not all(isinstance(i, int) and 1 <= i <= self.n for i in edge):
                    raise ValueError(f"hyperedge {set(edge)} not within piles 1..{self.n}")
            object.__setattr__(self, "hyperedges", edges)


def complete_hypergraph(n: int, k: int) -> frozenset[frozenset[int]]:
    """All k-subsets of {1..n}; with these edges the hypergraph game is NIM(n, k)."""
    return frozenset(frozenset(c) for c in itertools.combinations(range(1, n + 1), k))


def canonicalize(raw) -> Position:
    """Sorted tuple of the pile sizes; rejects empty input and negative piles."""
    coords = sorted(map(operator.index, raw))
    if not coords:
        raise ValueError("a position needs at least one pile")
    if coords[0] < 0:   # the smallest pile
        raise _negative_piles(coords)
    return tuple(coords)


def _negative_piles(coords) -> ValueError:
    """The error for piles with negative entries; its length does not grow
    with the pile count."""
    negative = [c for c in coords if c < 0]
    return ValueError(f"pile sizes must be nonnegative, got {len(negative)} "
                      f"negative pile(s), the smallest {min(negative)}")


def _describe(x: Position) -> str:
    """x for an error message: the piles when there are at most 20, else
    their count, so the message stays short at any size."""
    return str(x) if len(x) <= 20 else f"a position of {len(x)} piles"


def plain_position(x, k) -> Position:
    """Canonical x, checked as a NIM(k+1, k) position with k a positive int."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    x = canonicalize(x)
    if len(x) != k + 1:
        raise ValueError(f"expected {k + 1} piles for k = {k}, got {len(x)}")
    return x


def spec_position(spec: GameSpec, x) -> Position:
    """x checked as a position of spec, with spec.n piles: canonical for plain
    specs, the raw (order-preserving) tuple for hypergraph specs."""
    if spec.hyperedges is None:
        pos = canonicalize(x)
    else:
        pos = tuple(operator.index(c) for c in x)
        if any(c < 0 for c in pos):
            raise _negative_piles(pos)
    if len(pos) != spec.n:
        raise ValueError(f"position has {len(pos)} piles, spec wants {spec.n}")
    return pos


def _require_plain(spec: GameSpec, what: str) -> None:
    if spec.hyperedges is not None:
        raise ValueError(f"{what} is defined for plain NIM specs only")


def _playable(spec: GameSpec, pos: Position) -> list[frozenset[int]]:
    """Hyperedges all of whose piles are nonempty at the checked pos."""
    return [e for e in spec.hyperedges if all(pos[i - 1] > 0 for i in e)]


def is_terminal(spec: GameSpec, x) -> bool:
    """True when no move is available from x."""
    x = spec_position(spec, x)
    if spec.hyperedges is not None:
        return not _playable(spec, x)
    # A move needs k nonempty piles.
    positive = sum(1 for c in x if c > 0)
    return positive < spec.k


def legal_moves(spec: GameSpec, x):
    """Moves from canonical x in a plain NIM(n, k) spec.

    For n = k + 1 returns the legal keep-indices as plain ints (1-based on the
    sorted position); otherwise returns sorted tuples of kept indices.  Moves
    keeping equal coordinates are not deduplicated here -- callers that want
    distinct successors dedupe at the successor level.
    """
    _require_plain(spec, "legal_moves")
    x = spec_position(spec, x)
    n, k, z = spec.n, spec.k, x.count(0)  # x sorted: piles 1..z are empty and kept
    if z > n - k:
        return []
    keeps = (tuple(range(1, z + 1)) + rest
             for rest in itertools.combinations(range(z + 1, n + 1), n - k - z))
    return [keep[0] for keep in keeps] if n == k + 1 else list(keeps)


def apply_move(spec: GameSpec, x, move) -> Position:
    """Canonical successor of x under a keep-index (int) or keep-set move in a
    plain NIM(n, k) spec."""
    _require_plain(spec, "apply_move")
    x = spec_position(spec, x)
    keep = frozenset([move]) if isinstance(move, int) else frozenset(move)
    if len(keep) != spec.n - spec.k or not all(1 <= i <= spec.n for i in keep):
        raise ValueError(f"move {move!r} is not a keep-set of size {spec.n - spec.k}")
    out = []
    for i, c in enumerate(x, start=1):
        if i in keep:
            out.append(c)
        else:
            if c == 0:
                raise ValueError(f"illegal move {move!r} from {_describe(x)}: "
                                 f"pile {i} is empty")
            out.append(c - 1)
    return tuple(sorted(out))


def hypergraph_legal_moves(spec: GameSpec, x) -> list[frozenset[int]]:
    """Playable hyperedges at x (all piles of the edge nonempty), in stable order."""
    if spec.hyperedges is None:
        raise ValueError("spec has no hyperedges")
    playable = _playable(spec, spec_position(spec, x))
    playable.sort(key=lambda e: tuple(sorted(e)))
    return playable


def apply_hypergraph_move(spec: GameSpec, x, edge) -> tuple[int, ...]:
    """Successor of x with one stone removed from each pile of the edge.

    Coordinates keep their original order: hyperedges name fixed piles.
    """
    edge = frozenset(edge)
    if spec.hyperedges is None or edge not in spec.hyperedges:
        raise ValueError(f"{set(edge)} is not a hyperedge of the spec")
    pos = spec_position(spec, x)
    if any(pos[i - 1] == 0 for i in edge):
        raise ValueError(f"illegal move {set(edge)} from {_describe(pos)}: "
                         "empty pile in edge")
    return tuple(c - 1 if i in edge else c for i, c in enumerate(pos, start=1))


def successors(spec: GameSpec, x) -> list:
    """Distinct successor positions of x, in stable sorted order.

    Canonical positions for plain NIM(n, k); raw (order-preserving) tuples for
    hypergraph specs.  The kernel emits them in no set order; this sorts.
    """
    return sorted(_children(spec, spec_position(spec, x)))


def _children(spec: GameSpec, x: Position) -> list:
    """Distinct successors of a position ``spec_position`` has already
    checked, in no set order.

    Plain specs: x is sorted, so its empty piles come first, and a move keeps
    all of them, lowers k of the others and keeps the remaining n - k -
    (empty piles).  Equal piles are interchangeable, so only moves that keep
    the top piles of each run of equal piles and lower its bottom ones count:
    every kept pile j is the last of its run or has j + 1 kept too, and every
    lowered pile j is the first of its run or has j - 1 lowered too.  Such a
    child is sorted, and different for every move, so no child is sorted or
    deduplicated here.  The kernel chooses the smaller side: it restores x[j]
    at the kept piles of x - 1, or lowers the k piles of x, walking from the
    end of each run inward.  Its candidates are the combinations of nonempty
    piles of size min(kept, k): never more than the C(m, k) ways to lower k
    of the m nonempty piles.  When one pile changes per child (one kept pile,
    as in every NIM(k+1, k) position with no empty pile, or k = 1), the
    children are one per run: the walk changes the first pile of each run it
    meets in ``base``, takes the tuple and puts the old value back.
    """
    if spec.hyperedges is not None:
        return list({tuple(c - 1 if i in e else c for i, c in enumerate(x, start=1))
                     for e in _playable(spec, x)})
    n = len(x)
    zeros = x.count(0)
    keep = n - spec.k - zeros
    if keep < 0:
        return []
    # low is one list comprehension, copied per child.  A tuple low built from
    # a generator and copied with list() raised the peak RSS of the three
    # verify-sparse commands run in one process from 26.5 to 28.4 MB.
    low = [c and c - 1 for c in x]
    if keep <= spec.k:  # restore kept piles, from the top of each run down
        base, changed, count, order = low, x, keep, range(n - 1, zeros - 1, -1)
    else:               # lower piles, from the bottom of each run up
        base, changed, count, order = list(x), low, spec.k, range(zeros, n)
    children = []
    if count == 1:  # one changed pile: the first of each run that order meets
        last = None
        for j in order:
            if x[j] != last:
                last, old = x[j], base[j]
                base[j] = changed[j]
                children.append(tuple(base))
                base[j] = old
        return children
    step = -order.step  # from j toward the end of its run taken first
    for chosen in itertools.combinations(order, count):
        last = order.start + step   # the pile taken before j, or past the end
        for j in chosen:
            if last != j + step and x[j] == x[j + step]:    # j + step not taken
                break
            last = j
        else:   # copy after the check: n equal piles make n candidates, 1 child
            child = base.copy()
            for j in chosen:
                child[j] = changed[j]
            children.append(tuple(child))
    return children
