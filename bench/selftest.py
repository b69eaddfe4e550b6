"""Self-test of the benchmark: the wrappers change nothing, counts repeat.

Usage: python3 bench/selftest.py [--seed N]

For each workload, one short traced run (``run.py --trace 1``)
must pass its output check, and its untraced, --threads 2 and traced
sweeps must write byte-identical files.  The per-layer counts that repeat
exactly are checked against the workload's grid:

  quantum.susceptibility.calls              rows on chi-detuning, 1 on
                                            shift-angle, distinct
                                            detunings on map
  beam_shift.shifts_from_coefficients.calls rows on shift-angle and map

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, plan  # noqa: E402


def expected_counts(name: str, seed: int) -> dict:
    p = plan(name, seed)
    # the map's second axis is the detuning
    detunings = {"chi-detuning": p.rows, "shift-angle": 1,
                 "map": p.windows[-1][2]}[name]
    out = {"quantum.susceptibility.calls": detunings}
    if name != "chi-detuning":
        out["beam_shift.shifts_from_coefficients.calls"] = p.rows
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    failures = []
    for name in WORKLOADS:
        before = len(failures)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", "3", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            failures.append(f"{name}: run.py exited {proc.returncode}: "
                            f"{proc.stderr[-500:]}")
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            failures.append(f"{name}: correct={res['correct']} "
                            f"failed={res['failed']}")
        out = ROOT / ".bench_out" / name
        files = [(out / f).read_bytes()
                 for f in ("sweep.csv", "threads2.csv", "traced.csv")]
        if not files[0] or files.count(files[0]) != len(files):
            failures.append(f"{name}: untraced, --threads 2 and traced "
                            "outputs are not byte-identical")
        for metric, want in expected_counts(name, args.seed).items():
            got = res["metrics"][metric]["value"]
            if got != want:
                failures.append(f"{name}: {metric} = {got}, expected {want}")
        print(f"{name}: {'ok' if len(failures) == before else 'FAIL'}")
    for f in failures:
        print("FAIL " + f)
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
