"""Record chi_reference.csv: chi at every detuning a chi-detuning seed can ask for.

Usage: python3 bench/make_chi_reference.py

Runs the chi-detuning sweep once per seed offset k/OFFSET_STEPS through
``rydshe.cli.main`` and interleaves the rows into one fine grid.  The file
is a recorded reference: regenerate it only when the physics is meant to
change, and say so where the change is described.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from rydshe.cli import main  # noqa: E402

from check import REFERENCE, read_csv  # noqa: E402
from workloads import OFFSET_STEPS, WORKLOADS, Plan  # noqa: E402


def record() -> None:
    w = WORKLOADS["chi-detuning"]
    (axis,) = w.axes
    rows = []
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        for k in range(OFFSET_STEPS):
            off = k * axis.step / OFFSET_STEPS
            p = Plan(w, ((axis.lo + off, axis.hi + off, axis.steps),), (k,))
            out = str(Path(tmp) / f"chi{k}.csv")
            if main(p.argv(out)) != 0:
                raise SystemExit(f"chi sweep failed at offset {k}")
            columns, part = read_csv(out)
            if any(r[-1] for r in part):
                raise SystemExit(f"failed rows at offset {k}")
            rows += [(i * OFFSET_STEPS + k, r[:-1]) for i, r in enumerate(part)]
    lines = [",".join(columns[:-1])] + [",".join(r) for _, r in sorted(rows)]
    REFERENCE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(rows)} rows -> {REFERENCE}")


if __name__ == "__main__":
    record()
