"""slownim's benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in perfbench/README.md.  The run starts one fresh
worker process per pass (perfbench/worker.py), one at a time, until the
timed work adds up to S seconds.  Each worker imports slownim from the
checkout's src/ directory.  With --trace 0 the run reports the end-to-end
metrics; with --trace 1 half of the passes run traced and the run reports
the per-layer metrics.  A table and the environment go to standard output,
a full record to perfbench/results/NAME/, and the last line of standard
output is the JSON result.  Exit code 0 when the run completed and every
answer was right, 3 when it completed with a wrong answer or inconsistent
trace (the result line is still printed, with "correct": false), 1 when a
worker could not run, 2 on bad arguments or a checkout without src/slownim.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
PYCACHE = RESULTS / "pycache"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 15         # import-only launches per run, besides the passes
# Passes per run at least, untraced and (per kind) traced.  A dominance-grid
# pass takes about 6 s, and the machine's speed drifts over tens of seconds,
# so its medians need more passes than --seconds alone would give.
MIN_PASSES = 5
MIN_TRACED_PASSES = 3
TAIL_BEYOND = 10          # samples a run needs beyond the tail percentile
WORKER_TIMEOUT_S = 150
RUN_BUDGET_S = 120        # start no further pass after this much wall time


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    """Workers get the default state cap and import slownim from src/ with
    bytecode cached under results/, so setup_s is a cached import whatever
    the caller's PYTHONDONTWRITEBYTECODE, and nothing is written in src/."""
    env = dict(os.environ)
    env.pop("SLOWNIM_MAX_STATES", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(job: dict, env: dict) -> dict:
    """Run one worker to completion; adds its set-up time in seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(job)]
    launched = time.perf_counter_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S}s: {job}")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    record = json.loads(lines[-1])
    if not Path(record["slownim_file"]).resolve().is_relative_to(SRC.resolve()):
        raise WorkerError(f"slownim imported from {record['slownim_file']}, not {SRC}")
    record["setup_s"] = (record.pop("ready_ns") - launched) / 1e9
    return record


def min_samples(workload: str) -> int:
    """Timed calls needed for TAIL_BEYOND of them to lie above the tail."""
    beyond = 1 - workloads.TAIL_PERCENTILE[workload] / 100
    return math.ceil((TAIL_BEYOND + 1) / beyond)


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(pct / 100 * len(ordered)), 1) - 1]


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest, lines = hashlib.sha256(), 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "src_sha256": digest.hexdigest(), "src_lines": lines,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "platform": platform.platform(),
    }


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(args) -> dict:
    out_dir = RESULTS / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    for old in out_dir.glob("spans-*.json.gz"):
        old.unlink()
    env = worker_env()
    started = time.perf_counter()
    launch({"probe": True}, env)              # fills the bytecode cache; not counted
    setup, probes = [], 0
    passes = {False: [], True: []}
    kinds = [False, True] if args.trace else [False]
    needed = 0 if args.trace else min_samples(args.workload)
    while True:
        timed_s = sum(p["pass_ns"] for ps in passes.values() for p in ps) / 1e9
        # Spread the probes over the run, so setup_s samples the machine
        # throughout it rather than in its first second.
        due = max(1, math.ceil(SETUP_PROBES * min(1.0, timed_s / args.seconds)))
        for _ in range(due - probes):
            setup.append(launch({"probe": True}, env)["setup_s"])
        probes = max(probes, due)
        least = MIN_TRACED_PASSES if args.trace else MIN_PASSES
        done = all(len(passes[t]) >= least for t in kinds)
        ops = sum(len(p["op_ns"]) for p in passes[False])
        if done and ops >= needed and timed_s >= args.seconds:
            break
        if all(passes[t] for t in kinds) and time.perf_counter() - started > RUN_BUDGET_S:
            break
        traced = kinds[sum(len(ps) for ps in passes.values()) % len(kinds)]
        index = len(passes[traced])
        job = {"workload": args.workload, "seed": args.seed, "trace": traced,
               "pass": index, "workdir": str(out_dir),
               "spans_path": str(out_dir / f"spans-pass{index}.json.gz")}
        record = launch(job, env)
        setup.append(record["setup_s"])
        passes[traced].append(record)
    for _ in range(SETUP_PROBES - probes):
        setup.append(launch({"probe": True}, env)["setup_s"])
    return {"setup": setup, "untraced": passes[False], "traced": passes[True]}


def end_to_end(workload: str, data: dict) -> dict:
    untraced = data["untraced"]
    op_ms = [ns / 1e6 for p in untraced for ns in p["op_ns"]]
    tail_pct = workloads.TAIL_PERCENTILE[workload]
    timed_s = sum(p["pass_ns"] for p in untraced) / 1e9
    return {
        "setup_s": (statistics.median(data["setup"]), "s"),
        "peak_rss_mb": (max(p["maxrss_kb"] for p in untraced) / 1024, "MB"),
        "pass_s_p50": (statistics.median(p["pass_ns"] / 1e9 for p in untraced), "s"),
        "positions_per_s": (sum(p["positions"] for p in untraced) / timed_s, "1/s"),
        # Each pass's median call, averaged over the passes.  In a pass of
        # unlike calls (one verify command per grid) the pooled median falls
        # between two kinds of call.  The machine's speed shifts for seconds
        # at a time, so a median of a few passes follows whichever pass ran
        # in the middle; the mean takes in the whole run.
        "solve_ms_p50": (statistics.mean(statistics.median(p["op_ns"]) / 1e6
                                         for p in untraced), "ms"),
        "solve_ms_tail": (percentile(op_ms, tail_pct), "ms"),
    }, {"solve_ms_tail_percentile": tail_pct, "solve_samples": len(op_ms),
        "passes": len(untraced), "setup_samples": len(data["setup"])}


def per_layer(data: dict) -> dict:
    traced = data["traced"]
    summaries = [p["trace"] for p in traced]

    def median_of(get):
        return statistics.median(get(s) for s in summaries)

    def function_total(name, key):
        return median_of(lambda s: s["functions"].get(name, {}).get(key, 0))

    metrics = {}
    for name in tracing.LAYER_FUNCTIONS:
        metrics[f"{name}.calls"] = (function_total(name, "calls"), "count")
        metrics[f"{name}.self_ms"] = (function_total(name, "self_ns") / 1e6, "ms")
    metrics["cli.self_ms"] = (function_total(tracing.CLI_SPAN, "self_ns") / 1e6, "ms")
    metrics["oracle.states"] = (median_of(lambda s: s["states"]), "count")
    metrics["oracle.states_per_s"] = (median_of(
        lambda s: s["states"] / (s["engine_ns"] / 1e9) if s["engine_ns"] else 0.0), "1/s")
    metrics["mrule.m_count.steps"] = (median_of(lambda s: s["steps"]), "count")
    untraced_s = statistics.median(p["pass_ns"] for p in data["untraced"])
    traced_s = statistics.median(p["pass_ns"] for p in traced)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    consistent = all(s["self_times_add_up"] for s in summaries)
    return metrics, {"traced_passes": len(traced), "self_times_add_up": consistent}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "slownim" / "cli.py").is_file():
        print(f"error: no slownim package under {SRC}", file=sys.stderr)
        return 2

    env_record = environment(args)
    try:
        data = run(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = data["untraced"] + data["traced"]
    attempted = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    metrics, counts = end_to_end(args.workload, data)
    consistent = True
    if args.trace:
        metrics, layer_counts = per_layer(data)
        counts.update(layer_counts)
        consistent = layer_counts["self_times_add_up"]
    counts["pass_s"] = [p["pass_ns"] / 1e9 for p in data["untraced"]]
    counts["fail_ratio"] = failed / attempted
    correct = failed == 0 and consistent

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print(f"{'fail_ratio':36s} {counts['fail_ratio']:14.6g} ratio "
          f"({failed} of {attempted} failed)")
    for p in runs:
        for failure in p["failures"]:
            print(f"failure: {failure}")
    print("samples " + json.dumps(counts))
    print("env " + json.dumps(env_record))

    record = {"env": env_record, "counts": counts, "correct": correct,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "setup_s": data["setup"],
              "passes": [{key: p[key] for key in ("pass_ns", "op_ns", "positions",
                                                  "attempted", "failed", "maxrss_kb",
                                                  "setup_s")}
                         | ({"trace": p["trace"]} if "trace" in p else {})
                         for p in runs]}
    result_path = RESULTS / args.workload / f"result-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 3


if __name__ == "__main__":
    sys.exit(main())
