"""Run-to-run spread of the benchmark's metrics over several seeds.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
                                [--seeds 10] [--first-seed 1] [--trace 0|1]
    python3 perfbench/spread.py --baseline perfbench/BASELINE.json
                                [--seeds 10] [--first-seed 1] [--second-seed FIRST+SEEDS]

Runs perfbench/run.py once per seed and workload, one run at a time, with
the run length from BENCHMARK.json.  For every metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound.
The last line of standard output is all of it as JSON.

With --baseline it measures every workload of BENCHMARK.json twice: a first
set of seeds on all workloads, then a second set, so the two sets lie
minutes apart as two benchmark rounds would.  It then makes one traced run
per workload and writes the file named: both sets, each metric's change
between them in both directions, the per-layer metrics, and, per
dominance-grid run, the first pass's time over the later passes' median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m.get("bound") for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One run.py run: its result line and the full record it saved."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = HERE / "results" / workload / f"result-seed{seed}-trace{trace}.json"
    return result, json.loads(path.read_text())


def measure(workload: str, seeds: range, trace: int = 0) -> dict:
    """Median, quartiles and spread of every metric over one run per seed."""
    values: dict[str, list[float]] = {}
    walls, failed, records = [], 0, []
    for seed in seeds:
        start = time.perf_counter()
        result, record = run_once(workload, seed, trace)
        walls.append(time.perf_counter() - start)
        records.append(record)
        failed += result["failed"] + (not result["correct"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    rows = {}
    for name, xs in values.items():
        q1, median, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / median if median else 0.0
        rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                      "bound": BOUNDS.get(name), "values": xs}
        print(f"{workload:15s} {name:36s} median {median:12.6g}  "
              f"spread {spread:7.4f}  bound {BOUNDS.get(name)}", flush=True)
    print(f"{workload:15s} wall per run: max {max(walls):.1f}s  "
          f"median {statistics.median(walls):.1f}s  failed {failed}", flush=True)
    return {"metrics": rows, "wall_s": walls, "failed": failed, "records": records}


def first_pass_ratio(records: list[dict]) -> list[float]:
    """Per run: first untraced pass time over the median of the later ones."""
    ratios = []
    for record in records:
        times = [p["pass_ns"] for p in record["passes"] if "trace" not in p]
        ratios.append(times[0] / statistics.median(times[1:]))
    return ratios


def baseline(args) -> dict:
    workloads = [w["name"] for w in SPEC["workloads"]]
    sets = {}
    for key, first in (("set1", args.first_seed), ("set2", args.second_seed)):
        seeds = range(first, first + args.seeds)
        sets[key] = {w: measure(w, seeds) for w in workloads}
    env = sets["set1"][workloads[0]]["records"][0]["env"]
    out = {
        "about": ("Baseline at the commit that added the benchmark, written by "
                  "perfbench/spread.py --baseline. Two sets of runs per workload, one "
                  "run at a time, the first set on every workload before the second. "
                  "Per metric: median, quartiles (statistics.quantiles, n=4) and "
                  "spread = (q3 - q1) / median over each set, and the change of each "
                  "set's median against the other's. per_layer is one traced run per "
                  "workload."),
        "commit": env["commit"], "src_sha256": env["src_sha256"],
        "src_lines": env["src_lines"],
        "machine": {k: env[k] for k in ("nproc", "cpu_model", "python",
                                        "implementation", "platform")},
        "run_seconds": SPEC["run_seconds"],
        "seeds": {"set1": [args.first_seed, args.first_seed + args.seeds - 1],
                  "set2": [args.second_seed, args.second_seed + args.seeds - 1]},
        "end_to_end": {}, "per_layer": {},
    }
    for w in workloads:
        rows = {}
        for name, a in sets["set1"][w]["metrics"].items():
            b = sets["set2"][w]["metrics"][name]
            rows[name] = {
                "unit": UNITS[name], "bound": BOUNDS[name],
                "set1": {k: a[k] for k in ("median", "q1", "q3", "spread")},
                "set2": {k: b[k] for k in ("median", "q1", "q3", "spread")},
                "set2_vs_set1": b["median"] / a["median"] - 1,
                "set1_vs_set2": a["median"] / b["median"] - 1,
            }
        out["end_to_end"][w] = rows
        out.setdefault("wall_s_per_run", {})[w] = statistics.median(
            sets["set1"][w]["wall_s"] + sets["set2"][w]["wall_s"])
    for w in workloads:
        result, record = run_once(w, args.first_seed, 1)
        out["per_layer"][w] = {k: v["value"] for k, v in result["metrics"].items()}
        out["per_layer"][w]["traced_passes"] = record["counts"]["traced_passes"]
        out["per_layer"][w]["self_times_add_up"] = record["counts"]["self_times_add_up"]
    if "dominance-grid" in workloads:
        ratios = first_pass_ratio(sets["set1"]["dominance-grid"]["records"]
                                  + sets["set2"]["dominance-grid"]["records"])
        out["dominance_first_pass_over_later_median"] = {
            "about": ("first pass time over the median of the later passes, per "
                      "dominance-grid run; near 1 means no cache was carried from "
                      "pass to pass"),
            "median": statistics.median(ratios), "min": min(ratios), "max": max(ratios)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--second-seed", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path,
                        help="measure two seed sets on every workload and write them here")
    args = parser.parse_args(argv)
    if bool(args.workload) == bool(args.baseline):
        parser.error("give either --workload or --baseline")
    try:
        if args.baseline:
            if args.second_seed is None:
                args.second_seed = args.first_seed + args.seeds
            out = baseline(args)
            args.baseline.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
            print(json.dumps({w: {m: r["set2_vs_set1"] for m, r in rows.items()}
                              for w, rows in out["end_to_end"].items()}))
            return 0
        summary = {}
        for w in args.workload:
            data = measure(w, range(args.first_seed, args.first_seed + args.seeds),
                           args.trace)
            del data["records"]
            summary[w] = data
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
