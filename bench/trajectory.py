"""Repeat the benchmark over seeds, report spreads, optionally record them.

Usage: python3 bench/trajectory.py [--runs N] [--first-seed S]
                                   [--workloads A,B] [--record LABEL]

For each workload, runs ``bench/run.py --trace 0`` N times, one seed each,
and prints every end-to-end metric's median, quartiles and spread (the
interquartile range as a share of the median) beside its bound from
BENCHMARK.json.  With --record, one traced run per workload adds the
per-layer metrics and the thread-scaling row, and the entry is appended to
bench/trajectory.json.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRAJECTORY = BENCH / "trajectory.json"


def run(spec, workload, seed, trace) -> tuple[dict, dict]:
    """(final result, env stamp) of one benchmark run."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    saved = json.loads((ROOT / ".bench_out" / workload / "result.json")
                       .read_text())
    return dict(json.loads(lines[-1]), unscaled=saved["unscaled"]), env


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--record", metavar="LABEL")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    entry = {"label": args.record, "date": datetime.date.today().isoformat(),
             "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        unscaled = {"points_per_s": [], "setup_s": []}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res, env = run(spec, name, seed, 0)
            if not res["correct"]:
                print(f"{name} seed {seed}: output check failed")
            attempted += res["attempted"]
            failed += res["failed"]
            for k in values:
                values[k].append(res["metrics"][k]["value"])
            for k in unscaled:
                unscaled[k].append(res["unscaled"][k])
        w = {"seeds": [args.first_seed, args.first_seed + args.runs - 1],
             "failed_frac": failed / attempted, "attempted": attempted,
             "end_to_end": {k: summary(v) for k, v in values.items()},
             "unscaled": {k: summary(v) for k, v in unscaled.items()}}
        for m in spec["end_to_end"]:
            s = w["end_to_end"][m["name"]]
            print(f"{name:<13} {m['name']:<13} median {s['median']:10.5g} "
                  f"{m['unit']:<7} q1 {s['q1']:10.5g} q3 {s['q3']:10.5g} "
                  f"spread {s['spread']:.3f} (bound {m['bound']}, n={s['n']})")
        for k, s in w["unscaled"].items():
            print(f"{name:<13} {k:<13} unscaled median {s['median']:10.5g} "
                  f"spread {s['spread']:.3f}")
        print(f"{name:<13} failed_frac   {w['failed_frac']:g} "
              f"({failed} of {attempted} rows)")
        if args.record:
            res, env = run(spec, name, args.first_seed, 1)
            w["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
        entry["workloads"][name] = w
        entry["env"] = env
    if args.record:
        m = entry["workloads"].get("map")
        if m:
            t1 = m["end_to_end"]["points_per_s"]["median"]
            entry["thread_scaling_map"] = {
                "OPENBLAS_NUM_THREADS": entry["env"]["OPENBLAS_NUM_THREADS"],
                "nproc": entry["env"]["nproc"],
                "points_per_s": {"1": t1,
                                 "2": t1 * m["per_layer"]["sweeps.threads2_speedup"]},
                "note": "points_per_s at --threads 2 is the --threads 1 median "
                        "times sweeps.threads2_speedup of the traced run.  The "
                        "ROADMAP's 71x51 map at --threads 4 (74.6 s) is not "
                        "re-measured: 4 threads exceed nproc = 2."}
        history = (json.loads(TRAJECTORY.read_text())
                   if TRAJECTORY.exists() else [])
        TRAJECTORY.write_text(json.dumps(history + [entry], indent=1) + "\n")
        print(f"entry {len(history)} appended to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
