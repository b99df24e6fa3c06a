"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py '<job JSON>'

run.py starts one worker per pass, so every pass begins with
slownim's module-level caches empty.  The worker imports slownim.cli first
and notes the clock (CLOCK_MONOTONIC, shared by all processes on Linux), so
run.py can tell how long a fresh interpreter took to get there.  It then
builds the pass's inputs, times the calls into slownim, checks every answer
outside the timed region and prints one JSON line with the results.  A job
with ``"probe": true`` stops after the import.
"""

import sys
import time

import slownim.cli

READY_NS = time.perf_counter_ns()

import contextlib  # noqa: E402  (imported after the set-up clock on purpose)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from slownim import cli, critical, fast, oracle  # noqa: E402
from slownim.game import GameSpec  # noqa: E402

perf_ns = time.perf_counter_ns
MAX_REPORTED_FAILURES = 20


def _fast_problems(x, k, result) -> list[str]:
    xs = sorted(x)
    if list(result.position) != xs:
        return ["position is not the sorted input"]
    problems = []
    want = "P" if result.remoteness % 2 == 0 else "N"
    if result.status != want:
        problems.append(f"status {result.status} for remoteness {result.remoteness}")
    witness = fast.is_exceptional(xs, k)
    if result.branch == "E-rule":
        z = result.certificate.z
        if any(a > b for a, b in zip(z, z[1:])):
            problems.append("certificate is not sorted")
        if len(z) != len(xs) or any(a > b for a, b in zip(z, xs)):
            problems.append("certificate is not dominated by the position")
        if oracle.is_basic(z, k) != result.remoteness or result.certificate.b != result.remoteness:
            problems.append("certificate value differs from the remoteness")
        if witness is not None:
            problems.append("exceptional position answered by the E-rule")
    elif result.branch == "exceptional":
        if witness != result.remoteness:
            problems.append(f"exceptional witness {witness} != {result.remoteness}")
    elif result.branch == "terminal":
        if xs[1] != 0 or result.remoteness != 0:
            problems.append("non-terminal position answered as terminal")
    else:
        problems.append(f"unknown branch {result.branch!r}")
    return problems


def run_fast_large(job, tracer):
    k = workloads.FAST_K
    solve = fast.remoteness_fast if tracer is None else tracer.wrap(fast.remoteness_fast)
    op_ns, failures, failed = [], [], 0
    for i in range(workloads.FAST_SOLVES_PER_PASS):
        x = workloads.fast_position(job["seed"], job["pass"], i)
        if tracer:
            tracer.install()
        start = perf_ns()
        try:
            result = solve(x, k)
        except Exception as exc:     # any exception is a failed solve
            result = exc
        op_ns.append(perf_ns() - start)
        if tracer:
            tracer.uninstall()
        problems = ([repr(result)] if isinstance(result, Exception)
                    else _fast_problems(x, k, result))
        failed += bool(problems)
        failures.extend(f"solve {i}: {p}" for p in problems)
    n = len(op_ns)
    return {"op_ns": op_ns, "pass_ns": sum(op_ns), "positions": n,
            "attempted": n, "failed": failed, "failures": failures}


def run_verify(job, tracer):
    workdir = Path(job["workdir"])
    files = []
    for k, positions in workloads.verify_batches(job["workload"], job["seed"]):
        path = workdir / f"batch-k{k}.txt"
        path.write_text("".join(",".join(map(str, x)) + "\n" for x in positions),
                        encoding="utf-8")
        argv = ["verify", "--k", str(k), "--positions", str(path)]
        if k == 3:
            argv.append("--appendix")
        files.append((argv, len(positions)))
    main = cli.main if tracer is None else tracer.wrap(cli.main, tracing.CLI_SPAN)

    op_ns, outcomes = [], []
    if tracer:
        tracer.install()
    pass_start = perf_ns()
    for argv, _ in files:
        out, err = io.StringIO(), io.StringIO()
        start = perf_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except (Exception, SystemExit) as exc:   # argparse exits on bad usage
            code = repr(exc)
        op_ns.append(perf_ns() - start)
        outcomes.append((code, out.getvalue(), err.getvalue()))
    pass_ns = perf_ns() - pass_start
    if tracer:
        tracer.uninstall()

    failures, failed, positions = [], 0, 0
    for (argv, count), (code, out, err) in zip(files, outcomes):
        positions += count
        lines = out.strip().splitlines()
        last = lines[-1] if lines else ""
        if code != 0 or last != f"checked {count} positions, 0 mismatches":
            failed += count
            failures.append(f"{' '.join(argv[:3])}: exit {code}, {last!r} {err.strip()!r}")
    return {"op_ns": op_ns, "pass_ns": pass_ns, "positions": positions,
            "attempted": positions, "failed": failed, "failures": failures}


def run_dominance(job, tracer):
    plan = workloads.dominance_plan(job["seed"])
    op_ns = []
    grid_values, critical_values, conjecture_values = [], [], []

    def query(call, *args):
        try:
            return call(*args)
        except Exception as exc:     # recorded as a failed query
            return exc

    def timed(call, *args):
        start = perf_ns()
        value = call(*args)
        op_ns.append(perf_ns() - start)
        return value

    def position_query(spec, x, bound):
        return (query(oracle.m_of_oracle, spec, x, bound),
                query(oracle.b_oracle, x, spec.k))

    def critical_pair(k, m):
        return (query(critical.enumerate_critical, k, m),
                query(oracle.critical_oracle, GameSpec(k + 1, k), m, m + 1))

    if tracer:
        tracer.install()
    pass_start = perf_ns()
    for k, bound, positions in plan["grids"]:
        spec = GameSpec(k + 1, k)
        values = [timed(position_query, spec, x, bound) for x in positions]
        grid_values.append((k, positions, values))
    for k, m in plan["critical_pairs"]:
        closed, found = timed(critical_pair, k, m)
        critical_values.append((k, m, closed, found))
    for (n, k), m, bound in plan["conjecture_jobs"]:
        report = timed(query, critical.check_conjecture, GameSpec(n, k), m, bound)
        conjecture_values.append(((n, k), m, report))
    pass_ns = perf_ns() - pass_start
    if tracer:
        tracer.uninstall()

    failures, failed, positions = [], 0, 0
    for k, xs, values in grid_values:
        spec = GameSpec(k + 1, k)
        memo: dict = {}
        positions += len(xs)
        for x, (m, b) in zip(xs, values):
            r = oracle.remoteness_oracle(spec, x, memo=memo)
            witness = fast.is_exceptional(x, k)
            want_b = witness - 1 if witness is not None else fast.b_fast(x, k)
            if m != r or b != want_b:
                failed += 1
                failures.append(f"{x}: m_of_oracle {m!r} (remoteness {r}), "
                                f"b_oracle {b!r} (expected {want_b})")
    for k, m, closed, found in critical_values:
        ok = (not isinstance(closed, Exception) and not isinstance(found, Exception)
              and set(closed.positions) == found)
        if not ok:
            failed += 1
            failures.append(f"critical k={k} m={m}: closed form and oracle differ")
    for spec, m, report in conjecture_values:
        if isinstance(report, Exception) or report.violations:
            failed += 1
            failures.append(f"conjecture NIM{spec} m={m}: {report!r}")
    return {"op_ns": op_ns, "pass_ns": pass_ns, "positions": positions,
            "attempted": len(op_ns), "failed": failed, "failures": failures}


RUNNERS = {
    "fast-large": run_fast_large,
    "verify-grid": run_verify,
    "verify-sparse": run_verify,
    "dominance-grid": run_dominance,
}


def main() -> None:
    job = json.loads(sys.argv[1])
    record = {"ready_ns": READY_NS, "slownim_file": slownim.cli.__file__}
    if not job.get("probe"):
        tracer = None
        if job["trace"]:
            tracer = tracing.Tracer()
            tracer.wrap_sites()
        record.update(RUNNERS[job["workload"]](job, tracer))
        record["failures"] = record["failures"][:MAX_REPORTED_FAILURES]
        if tracer:
            record["trace"] = tracer.summary()
            tracer.write(job["spans_path"])
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
