"""Benchmark workloads: seeded argv for the rydshe CLI sweeps.

Every workload is a closed loop: one caller runs one sweep at a time
through ``rydshe.cli.main(argv)``.  The canonical configuration is used;
only the axis windows move with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The seed shifts each axis window by k/OFFSET_STEPS of one grid step,
# k in [0, OFFSET_STEPS).  The fraction is quantized so that the recorded
# chi reference (chi_reference.csv) holds every detuning a seed can ask for.
OFFSET_STEPS = 8


@dataclass(frozen=True)
class Axis:
    flag: str          # range flag stem, e.g. "--delta2" -> --delta2-min/max
    lo: float
    hi: float
    steps_flag: str
    steps: int

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.steps - 1)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    axes: tuple
    reference: str     # kernel that tracks the host's speed for this work
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("chi-detuning", "chi",
             (Axis("--delta2", -10.0, 10.0, "--steps", 201),), "python",
             "201 detunings, every row misses the chi memo: quantum does "
             "almost all the work, multilayer and beam_shift never run"),
    Workload("shift-angle", "shift-angle",
             (Axis("--theta", 33.5, 34.2, "--steps", 501),), "blas",
             "501 angles at one detuning: one chi solve, then beam_shift "
             "and multilayer on every row"),
    # The CLI default map (71x51) takes about 28 s; 24 angles per detuning
    # keep the chi memo reuse ratio at 1 - 1/24 = 0.958 in a few seconds.
    Workload("map", "map",
             (Axis("--theta", 33.5, 34.2, "--theta-steps", 24),
              Axis("--delta2", -5.0, 5.0, "--delta2-steps", 16)), "blas",
             "24x16 angle-detuning grid: every per-row layer runs and the "
             "chi memo is reused across the 24 angles of each detuning"),
)}


@dataclass(frozen=True)
class Plan:
    """The generated inputs of one benchmark run."""

    workload: Workload
    windows: tuple     # ((lo, hi, steps), ...) per axis, after the seed offset
    offsets: tuple     # k per axis, the seeded fraction k/OFFSET_STEPS

    @property
    def rows(self) -> int:
        n = 1
        for _, _, steps in self.windows:
            n *= steps
        return n

    def argv(self, out: str, threads: int = 1, warmup: bool = False) -> list:
        """CLI argv; `warmup` keeps the window but cuts each axis to 2 points."""
        argv = [self.workload.command, "--threads", str(threads), "--out", out]
        for axis, (lo, hi, steps) in zip(self.workload.axes, self.windows):
            argv += [axis.flag + "-min", repr(lo), axis.flag + "-max", repr(hi),
                     axis.steps_flag, str(2 if warmup else steps)]
        return argv


def plan(name: str, seed: int) -> Plan:
    w = WORKLOADS[name]
    rng = random.Random(seed)
    offsets = tuple(rng.randrange(OFFSET_STEPS) for _ in w.axes)
    windows = tuple((a.lo + k * a.step / OFFSET_STEPS,
                     a.hi + k * a.step / OFFSET_STEPS, a.steps)
                    for a, k in zip(w.axes, offsets))
    return Plan(w, windows, offsets)
