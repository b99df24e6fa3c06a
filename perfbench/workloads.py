"""Seeded inputs of the four benchmark workloads.

Standard library only: run.py imports this module without
importing slownim, and each worker builds its pass's inputs from it before
the timed region starts.  String seeds go through SHA-512 in
``random.Random``, so a (seed, salt) pair gives the same inputs on every run
and interpreter.
"""

from __future__ import annotations

import itertools
import random

NAMES = ("fast-large", "verify-grid", "verify-sparse", "dominance-grid")

# The percentile reported as solve_ms_tail.  It is fixed per workload, so
# runs compare like with like.  For the first three it is the highest that a
# 20-second run leaves ten timed calls above; run.py keeps going until it
# does.  A dominance-grid run has ~30k calls, and p99 sits among the large
# b_oracle queries rather than on the few grid builds, whose order is noisy.
TAIL_PERCENTILE = {
    "fast-large": 65.0,
    "verify-grid": 90.0,
    "verify-sparse": 55.0,
    "dominance-grid": 99.0,
}

# fast-large: the paper's headline size, k + 1 = 100,001 piles below 2^60.
FAST_K = 100_000
FAST_BITS = 60
FAST_SOLVES_PER_PASS = 4

# The acceptance grids (k, coordinate bound) of NIM(k+1, k).
GRIDS = ((2, 20), (3, 12), (4, 8), (5, 6))

# m_of_oracle needs a grid that holds every minimal position one level above
# the answer.  These are the largest remoteness on each acceptance grid plus
# two, the padding criterion 2 of the acceptance suite uses.
DOMINANCE_BOUND = {2: 32, 3: 18, 4: 12, 5: 8}

# verify-sparse: (k, coordinate bound, positions).  Each verify command
# explores 55k-80k oracle states (about 200k per pass, far below the default
# cap of 1,000,000) and takes about as long as the others, so one command is
# a like-for-like sample.  Every command's memo dict stays between 43,690 and
# 87,381 entries, the thresholds at which CPython resizes a dict, so peak
# memory does not jump with the seed.
SPARSE = ((2, 80, 120), (3, 40, 200), (4, 24, 500))

# enumerate_critical against critical_oracle (criterion 3 of the suite).
CRITICAL_KS = (2, 3, 4)
CRITICAL_MAX_M = 10

# check_conjecture jobs (criterion 8): ((n, k), m, bound).
CONJECTURE_JOBS = (
    [((3, 2), m, 10) for m in range(9)]
    + [((4, 2), m, 8) for m in range(7)]
    + [((5, 3), 8, 9)]
)


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(":".join(map(str, (seed,) + salt)))


def grid(k: int, bound: int) -> list[tuple[int, ...]]:
    """Every sorted position of NIM(k+1, k) with coordinates <= bound."""
    return list(itertools.combinations_with_replacement(range(bound + 1), k + 1))


def fast_position(seed: int, pass_index: int, solve: int) -> list[int]:
    """One unsorted list of FAST_K + 1 piles below 2^FAST_BITS."""
    bits = _rng(seed, "fast-large", pass_index, solve).getrandbits
    return [bits(FAST_BITS) for _ in range(FAST_K + 1)]


def verify_batches(name: str, seed: int) -> list[tuple[int, list[tuple[int, ...]]]]:
    """(k, positions) per batch file, in the order the verify pass runs them."""
    batches = []
    if name == "verify-grid":
        for k, bound in GRIDS:
            positions = grid(k, bound)
            _rng(seed, name, k).shuffle(positions)
            batches.append((k, positions))
    elif name == "verify-sparse":
        for k, bound, count in SPARSE:
            rng = _rng(seed, name, k)
            batches.append((k, [tuple(rng.randint(0, bound) for _ in range(k + 1))
                                for _ in range(count)]))
    else:
        raise ValueError(f"{name} is not a verify workload")
    return batches


def dominance_plan(seed: int) -> dict:
    """Grid positions, critical (k, m) pairs and conjecture jobs, each list
    in a seeded order; the work itself does not depend on the seed."""
    rng = _rng(seed, "dominance-grid")
    grids = []
    for k, bound in GRIDS:
        positions = grid(k, bound)
        rng.shuffle(positions)
        grids.append((k, DOMINANCE_BOUND[k], positions))
    rng.shuffle(grids)
    pairs = [(k, m) for k in CRITICAL_KS for m in range(CRITICAL_MAX_M + 1)]
    rng.shuffle(pairs)
    jobs = list(CONJECTURE_JOBS)
    rng.shuffle(jobs)
    return {"grids": grids, "critical_pairs": pairs, "conjecture_jobs": jobs}
