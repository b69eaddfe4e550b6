"""rydshe sweep benchmark.

Usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) as ``rydshe.cli.main(argv)`` in fresh
processes built from ``src/`` of this checkout, checks the output files off
the clock, prints every metric by name with its unit, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0  end-to-end metrics from untraced runs: points_per_s (median over
           the sweeps of one process), setup_s (median over SETUP_SAMPLES
           fresh processes), both scaled to a nominal host speed by a
           reference kernel timed next to them, and peak_rss_mb.
--trace 1  per-layer metrics: spans around the calls into each layer,
           recorded by wrappers from bench/child.py; src/ is not edited.

Failed rows (a non-empty error column, or every row of a run whose output
fails its check) are reported as ``failed`` of ``attempted`` rows and as
failed_frac in the summary.  The run environment is stamped on every
result (stdout and .bench_out/<workload>/result.json).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import OFFSET_STEPS, WORKLOADS, plan  # noqa: E402

SETUP_SAMPLES = 6          # fresh processes timed for setup_s (one measures)
# Typical durations of child.py's reference kernels on a 2-vCPU Xeon VM at
# 2.0 GHz.  A sweep's rate is scaled by (kernel time right after it) / nominal,
# and set-up time by nominal / (setup kernel time after it), so that the
# host's speed drifts during and between runs cancel.
NOMINAL_S = {"python": 0.025, "blas": 0.05, "setup": 0.3}
CHILD_TIMEOUT_S = 150
UNITS = {"points_per_s": "rows/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"calls": "count", "solves_8x8": "count", "bytes": "bytes",
                   "busy_s": "s", "self_s": "s", "chi_reuse_ratio": "ratio",
                   "threads2_speedup": "ratio", "overhead_frac": "ratio"}


def environment() -> dict:
    """nproc, versions, BLAS build and thread setting, source identity."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable"
    src = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        src.update(f.relative_to(ROOT).as_posix().encode() + b"\0"
                   + f.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                                   "unset"),
            "git_commit": commit, "src_sha256": src.hexdigest()[:16]}


def run_child(spec: dict) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"),
                           json.dumps(spec)], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"benchmark process failed ({spec['mode']}), "
                         f"exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rydshe" / "__init__.py").is_file():
        print(f"no rydshe source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import check

    p = plan(args.workload, args.seed)
    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    out = str(out_dir / "sweep.csv")
    spec = {"argv": p.argv(out), "seconds": args.seconds, "rows": p.rows,
            "warmup_argv": p.argv(str(out_dir / "warmup.csv"), warmup=True),
            "out_dir": str(out_dir)}
    env = environment()
    print(f"workload {args.workload} seed {args.seed} offsets "
          f"{list(p.offsets)}/{OFFSET_STEPS} step: rydshe {' '.join(spec['argv'])}")
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        res = run_child(dict(spec, mode="trace",
                             argv_threads2=p.argv(str(out_dir / "threads2.csv"),
                                                  threads=2),
                             argv_traced=p.argv(str(out_dir / "traced.csv"))))
        sweeps = res["sweeps"]
        same = res["identical_outputs"]
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k.rsplit(".", 1)[-1]]}
                   for k, v in res["metrics"].items()}
        if not same:
            print("traced, untraced and --threads 2 outputs differ")
    else:
        setups = [run_child(dict(spec, mode="setup"))
                  for _ in range(SETUP_SAMPLES - 1)]
        res = run_child(dict(spec, mode="measure",
                             reference=p.workload.reference))
        setups.append(res)
        sweeps = len(res["walls"])
        same = len(set(res["digests"])) == 1
        if not same:
            print("repeated sweeps wrote different outputs")
        nominal = NOMINAL_S[p.workload.reference]
        speed = [c / nominal for c in res["cals"]]
        raw = {"points_per_s": [p.rows / w for w in res["walls"]],
               "setup_s": [s["setup_s"] for s in setups]}
        scaled = {"points_per_s": [r * f for r, f in
                                   zip(raw["points_per_s"], speed)],
                  "setup_s": [s["setup_s"] * NOMINAL_S["setup"]
                              / s["setup_cal_s"] for s in setups]}
        metrics, unscaled = {}, {}
        for name, values in scaled.items():
            unscaled[name] = statistics.median(raw[name])
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": UNITS[name]}
            print(f"{name:<14} {med:12.6g} {UNITS[name]:<7} median of "
                  f"{len(values)}, quartiles {q1:.6g} .. {q3:.6g}; "
                  f"unscaled median {unscaled[name]:.6g}")
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
        print(f"{'peak_rss_mb':<14} {res['peak_rss_mb']:12.6g} MB      "
              "ru_maxrss of the measuring process")

    errors, problems = check.check_output(p, out)
    for msg in problems[:10]:
        print("check: " + msg)
    correct = same and not problems
    attempted = p.rows * sweeps
    failed = attempted if not correct else errors * sweeps
    print(f"{'failed_frac':<14} {failed / attempted:12.6g} ratio   "
          f"{failed} of {attempted} rows over {sweeps} sweeps")
    if args.trace:
        for k, v in metrics.items():
            print(f"{k:<44} {v['value']:12.6g} {v['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out_dir / "result.json").write_text(json.dumps(
        dict(result, env=env, seed=args.seed, trace=args.trace,
             argv=spec["argv"], child=res,
             unscaled=None if args.trace else unscaled),
        indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
