"""Command-line surface for the slow-NIM toolkit.

Subcommands
-----------
analyze    remoteness / status / best move for one position (text or JSON)
verify     cross-check the fast solver against the brute-force oracle on an
           exhaustive grid or a batch file of positions
enumerate  list m-critical positions (closed form for n = k+1, or oracle)
play       interactive game against the engine's optimal rule
bench      timing of the fast solver on large random positions

Exit codes: 0 success / full agreement, 1 verification mismatch, 2 usage
error, 3 resource limit exceeded.

The brute-force oracle bounds its explored state count; the limit is read
from the environment variable SLOWNIM_MAX_STATES (default 1,000,000).
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time

from .critical import check_conjecture, enumerate_critical, is_m_critical
from .fast import _analyze, remoteness_fast
from .game import GameSpec, apply_move, canonicalize, legal_moves, plain_position
from .mrule import _playout_length, m_count
from .nim43 import nim43_status
from .oracle import (DEFAULT_MAX_STATES, MAX_STATES_ENV, ResourceLimitError,
                     _remoteness_combine, _solve, _state_limit, critical_oracle,
                     remoteness_oracle)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# Longest playout ``analyze --trace`` prints; it has one move per unit of remoteness.
MAX_TRACE_MOVES = 10_000


def _parse_position(tokens) -> tuple[int, ...]:
    """Accept '3,3,3' or '3 3 3' (already token-split by the shell); a malformed
    or empty position raises ``ValueError``, which ``main`` reports."""
    parts = " ".join(tokens).replace(",", " ").split()
    if not parts:
        raise ValueError("empty position")
    try:
        return tuple(map(int, parts))
    except ValueError:
        raise ValueError(f"position must be decimal integers, got {parts!r}")


def _record(x, k: int, remoteness: int, branch: str, keep, trace) -> dict:
    return {
        "position": list(x),
        "n": len(x),
        "k": k,
        "remoteness": remoteness,
        "status": "P" if remoteness % 2 == 0 else "N",
        "best_move_keep_index": keep,
        "branch": branch,
        "trace": trace,
    }


def _print_record(rec: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(rec))
        return
    pos = tuple(rec["position"])
    print(f"position {pos}  n={rec['n']} k={rec['k']}")
    print(f"remoteness {rec['remoteness']}  status {rec['status']}")
    if rec["best_move_keep_index"] is not None:
        print(f"best move: keep index {rec['best_move_keep_index']}")
    print(f"branch: {rec['branch']}")
    if rec["trace"] is not None:
        arrow = " -> ".join(str(tuple(p)) for p in rec["trace"])
        print(f"trace: {arrow}")


def cmd_analyze(args) -> int:
    x = canonicalize(_parse_position(args.position))
    spec = GameSpec(len(x), args.k)
    n, k = spec.n, spec.k
    keep = None
    if n == k + 1:
        result = remoteness_fast(x, k)
        value, branch, keep = (result.remoteness, result.branch,
                               result.best_keep_index)
    if args.oracle or n != k + 1:
        value = remoteness_oracle(spec, x)
        branch = "oracle"
    trace = None
    if args.trace and n == k + 1:
        if value > MAX_TRACE_MOVES:
            raise ResourceLimitError(f"the playout has {value} moves, --trace "
                                     f"prints at most {MAX_TRACE_MOVES}", explored=0)
        trace = [list(p) for p in m_count(x).positions]
    _print_record(_record(x, k, value, branch, keep, trace), args.json)
    return EXIT_OK


def _read_batch(path: str, k: int) -> list[tuple[int, ...]]:
    positions = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if line:
                positions.append(plain_position(_parse_position([line]), k))
    return positions


def _check_one(spec: GameSpec, x, memo: dict, max_states: int, lengths: dict,
               appendix: bool) -> list[str]:
    """Compare the fast solver, oracle, and optimal-rule playout on x, a
    sorted NIM(k+1, k) tuple that is already checked.  ``memo`` and
    ``lengths`` hold the oracle's values and the playout lengths for one
    command; every playout position is a state the oracle solved first, so
    the state cap bounds both."""
    problems = []
    fast = _analyze(x, spec.k)
    slow = _solve(spec, x, _remoteness_combine, memo, max_states)
    walk = _playout_length(x, lengths)
    if not fast.remoteness == slow == walk:
        problems.append(f"{x}: fast={fast.remoteness} oracle={slow} playout={walk}")
    if appendix:
        closed = nim43_status(x).status
        if closed != fast.status:
            problems.append(f"{x}: closed-form={closed} solver={fast.status}")
    return problems


def cmd_verify(args) -> int:
    k = args.k
    spec = GameSpec(k + 1, k)
    if args.appendix and k != 3:
        raise ValueError("--appendix applies to k=3 (four piles) only")
    if args.max is None and not args.positions:
        raise ValueError("give --max BOUND and/or --positions FILE")
    if min(args.max or 0, args.conjecture or 0) < 0:
        raise ValueError("--max and --conjecture must be nonnegative")
    batch = _read_batch(args.positions, k) if args.positions else []
    grid = (() if args.max is None else
            itertools.combinations_with_replacement(range(args.max + 1), k + 1))
    max_states = _state_limit(None)

    memo: dict = {}
    lengths: dict = {}
    mismatches: list[str] = []
    checked = 0
    limit = None
    try:
        for x in itertools.chain(grid, batch):
            mismatches.extend(_check_one(spec, x, memo, max_states, lengths,
                                         args.appendix))
            checked += 1
        if args.conjecture is not None:
            bound = args.max if args.max is not None else args.conjecture + 1
            for m in range(args.conjecture + 1):
                report = check_conjecture(spec, m, max(bound, m + 1))
                for violation in report.violations:
                    print(f"finding: conjecture violation at m={m}: "
                          f"{violation}")
    except ResourceLimitError as exc:
        limit = exc

    for line in mismatches:
        print(f"mismatch: {line}")
    if limit is not None:       # the partial report is out; main reports the limit
        print(f"checked {checked} positions before the limit")
        raise limit
    print(f"checked {checked} positions, {len(mismatches)} mismatches")
    return EXIT_OK if not mismatches else EXIT_MISMATCH


def cmd_enumerate(args) -> int:
    if (args.k is None) == (args.oracle is None):
        raise ValueError("give exactly one of --k K (closed form) and --oracle N K")
    if args.k is not None:
        branches = enumerate_critical(args.k, args.m).branches
    else:
        n, k = args.oracle
        spec = GameSpec(n, k)
        if args.max is None:
            raise ValueError("--oracle mode needs --max BOUND")
        branches = {x: (is_m_critical(x, k, args.m) or "-") if n == k + 1 else "-"
                    for x in critical_oracle(spec, args.m, args.max)}
    for x in sorted(branches):
        print(f"{','.join(map(str, x))}  {branches[x]}")
    print(f"total {len(branches)} positions with value {args.m}")
    return EXIT_OK


def _prompt_move(spec: GameSpec, x) -> int | None:
    """Read a legal keep-index from stdin; None means the user quit."""
    legal = legal_moves(spec, x)
    while True:
        try:
            raw = input(f"your move - keep index (1-{spec.n}, q quits): ")
        except EOFError:
            return None
        raw = raw.strip()
        if raw.lower() in {"q", "quit"}:
            return None
        try:
            keep = int(raw)
        except ValueError:
            print(f"not an index: {raw!r}")
            continue
        if keep in legal:
            return keep
        print(f"illegal move: keep {keep} (legal: {sorted(legal)})")


def cmd_play(args) -> int:
    k = args.k
    x = plain_position(_parse_position(args.position), k)
    spec = GameSpec(k + 1, k)
    engine_to_move = args.engine_first
    while True:
        result = remoteness_fast(x, k)
        print(f"position {x}  remoteness {result.remoteness}  status {result.status}")
        if result.best_keep_index is None:
            loser = "engine" if engine_to_move else "you"
            print(f"no move possible: {loser} lose{'s' if loser == 'engine' else ''}")
            return EXIT_OK
        keep = result.best_keep_index if engine_to_move else _prompt_move(spec, x)
        if keep is None:             # only the human can quit
            print("bye")
            return EXIT_OK
        x = apply_move(spec, x, keep)
        if engine_to_move:
            print(f"engine keeps index {keep} -> {x}")
        engine_to_move = not engine_to_move


def cmd_bench(args) -> int:
    k, bits, reps = args.k, args.bits, args.reps
    if reps < 1:
        raise ValueError(f"--reps must be positive, got {reps}")
    if bits < 0:
        raise ValueError(f"--bits must be nonnegative, got {bits}")
    rng = random.Random(args.seed)
    top = 1 << bits
    total = 0.0
    for rep in range(reps):
        raw = [rng.randrange(top) for _ in range(k + 1)]
        start = time.perf_counter()
        result = remoteness_fast(raw, k)
        elapsed = time.perf_counter() - start
        total += elapsed
        print(f"rep {rep + 1}: n={k + 1} bits={bits} "
              f"remoteness digits={len(str(result.remoteness))} "
              f"time {elapsed:.4f}s")
    print(f"mean {total / reps:.4f}s per position "
          f"({reps / total:.1f} positions/s)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slownim",
        description="Solver and verification toolkit for exact slow NIM "
                    "(each move removes one stone from exactly k piles).",
        epilog=f"The oracle's state budget is ${MAX_STATES_ENV} "
               f"(default {DEFAULT_MAX_STATES}).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="solve a single position")
    p.add_argument("--k", type=int, required=True,
                   help="piles reduced per move")
    p.add_argument("--oracle", action="store_true",
                   help="force the brute-force oracle")
    p.add_argument("--json", action="store_true", help="machine output")
    p.add_argument("--trace", action="store_true",
                   help="append the optimal-rule playout")
    p.add_argument("position", nargs="+",
                   help="pile sizes, comma- or space-separated")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="cross-check solvers on a grid or file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max", type=int, default=None,
                   help="exhaustive grid bound on coordinates")
    p.add_argument("--positions", default=None,
                   help="batch file: one position per line, # comments")
    p.add_argument("--appendix", action="store_true",
                   help="also check the four-pile closed-form rules (k=3)")
    p.add_argument("--conjecture", type=int, default=None, metavar="M",
                   help="report critical-position bound findings for m <= M")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="list m-critical positions")
    p.add_argument("--k", type=int, default=None,
                   help="closed-form enumeration for NIM(k+1, k)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--oracle", nargs=2, type=int, default=None,
                   metavar=("N", "K"), help="oracle enumeration for NIM(N, K)")
    p.add_argument("--max", type=int, default=None,
                   help="coordinate bound for --oracle mode")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("play", help="play against the optimal rule")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--engine-first", action="store_true")
    p.add_argument("position", nargs="+")
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("bench", help="time the fast solver")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bits", type=int, default=60,
                   help="pile sizes drawn below 2^bits (default 60)")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=20240901)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:     # bad input or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
