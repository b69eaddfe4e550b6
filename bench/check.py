"""Off-the-clock checks of a benchmark sweep's output file.

chi rows are compared with chi_reference.csv, recorded by
make_chi_reference.py.  Shift rows are compared with the closed-form
centroids and powers of the zeroth-order Gaussian beam model, with rp and
rs recomputed through the public susceptibility, medium_index and
stack_fresnel functions.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from rydshe import (Layer, LayerStack, RunConfig, analytic_gaussian_shift,
                    medium_index, stack_fresnel, susceptibility)

from workloads import OFFSET_STEPS

REFERENCE = Path(__file__).resolve().parent / "chi_reference.csv"
CHI_COLUMNS = ("re_chi1", "im_chi1", "re_chi3_local", "im_chi3_local",
               "re_chi3_nonlocal", "im_chi3_nonlocal")
SHIFT_COLUMNS = ("delta_plus_um", "delta_minus_um", "power_plus",
                 "power_minus")
AXIS_COLUMNS = {"--delta2": "delta2_MHz", "--theta": "theta_deg"}
AXIS_TOL = 1e-9            # output is written with 12 significant digits
CHI_TOL = 1e-8             # times the largest |value| of the reference column
# The spectral synthesis differs from the closed form by its discretization,
# at most 2.5e-8 of max(|shift|, lambda) and 8e-9 of the power on these
# workloads when the benchmark was defined (the package's own oracle allows
# 2% for arbitrary rp, rs).
SHIFT_TOL = 1e-6
POWER_TOL = 1e-6           # relative


def read_csv(path) -> tuple[list, list]:
    """(columns, rows); rows are lists of str, the error column kept whole."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    columns = lines[0].split(",")
    return columns, [ln.split(",", len(columns) - 1) for ln in lines[1:]]


def expected_axes(p) -> list:
    """Grid points in the CLI's row-major order (first axis outer)."""
    axes = [np.linspace(lo, hi, n) for lo, hi, n in p.windows]
    return [pt for pt in np.stack(np.meshgrid(*axes, indexing="ij"),
                                  axis=-1).reshape(-1, len(axes))]


def check_output(p, path) -> tuple[int, list]:
    """(rows with a non-empty error column, list of check failures)."""
    columns, rows = read_csv(path)
    axis_cols = [AXIS_COLUMNS[a.flag] for a in p.workload.axes]
    values = CHI_COLUMNS if p.workload.command == "chi" else SHIFT_COLUMNS
    want = list(axis_cols) + list(values) + ["error"]
    if columns != want:
        return 0, [f"columns {columns}, expected {want}"]
    if len(rows) != p.rows:
        return 0, [f"{len(rows)} rows, expected {p.rows}"]
    problems = []
    ok_rows = []
    grid = expected_axes(p)
    for i, (row, pt) in enumerate(zip(rows, grid)):
        try:
            vals = [float(v) for v in row[:-1]]
        except ValueError:
            problems.append(f"row {i}: unreadable values {row[:-1]}")
            continue
        ax = vals[:len(axis_cols)]
        # written as `not (... <= tol)` so that nan fails
        if not all(abs(a - b) <= AXIS_TOL * max(1.0, abs(b))
                   for a, b in zip(ax, pt)):
            problems.append(f"row {i}: axis {ax}, expected {list(pt)}")
        elif row[-1] == "":
            ok_rows.append(dict(zip(columns, vals)))
    errors = sum(1 for r in rows if r[-1] != "")
    check = _check_chi if values is CHI_COLUMNS else _check_shift
    return errors, problems + check(ok_rows)


def _check_chi(rows) -> list:
    lines = REFERENCE.read_text(encoding="utf-8").splitlines()
    ref = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    d0, step = ref[0, 0], ref[1, 0] - ref[0, 0]
    scale = np.abs(ref[:, 1:]).max(axis=0)
    problems = []
    for row in rows:
        d = row["delta2_MHz"]
        j = round((d - d0) / step)
        if not (0 <= j < len(ref)) or abs(ref[j, 0] - d) > AXIS_TOL * 10:
            problems.append(f"no chi reference at delta2 = {d!r} MHz "
                            f"(seed offsets are k/{OFFSET_STEPS} of a step)")
            continue
        got = np.array([row[c] for c in CHI_COLUMNS])
        if not np.all(np.abs(got - ref[j, 1:]) <= CHI_TOL * scale):
            problems.append(f"chi at delta2 = {d} MHz: {got.tolist()}, "
                            f"reference {ref[j, 1:].tolist()}")
    return problems


def _check_shift(rows) -> list:
    base = RunConfig()
    k0 = 2 * math.pi / base.lambda_um
    chi: dict = {}
    problems = []
    for row in rows:
        cfg = RunConfig(delta2_mhz=row.get("delta2_MHz", base.delta2_mhz),
                        theta_deg=row["theta_deg"])
        if cfg.delta2_mhz not in chi:
            chi[cfg.delta2_mhz] = susceptibility(cfg.drive_params(),
                                                 cfg.atom_params()).total
        stack = LayerStack(n_in=cfg.n1, n_out=cfg.n3, layers=(
            Layer(n=medium_index(chi[cfg.delta2_mhz]), d=cfg.d2_um),))
        beam = cfg.beam_spec()
        theta = math.radians(cfg.theta_deg)
        rp, _ = stack_fresnel(stack, theta, k0, "p")
        rs, _ = stack_fresnel(stack, theta, k0, "s")
        dp, dm = analytic_gaussian_shift(rp, rs, theta, beam)
        # closed-form power of each spin component, |rp|^2 + |a|^2 / w0^2
        a = (rp + rs) / math.tan(theta) / beam.k_medium
        power = abs(rp) ** 2 + abs(a) ** 2 / beam.w0 ** 2
        scale = max(abs(dp), beam.lambda_p)
        if not (abs(row["delta_plus_um"] - dp) <= SHIFT_TOL * scale
                and abs(row["delta_minus_um"] - dm) <= SHIFT_TOL * scale
                and abs(row["power_plus"] - power) <= POWER_TOL * power
                and abs(row["power_minus"] - power) <= POWER_TOL * power):
            problems.append(
                f"shift at theta = {cfg.theta_deg} deg, delta2 = "
                f"{cfg.delta2_mhz} MHz: {[row[c] for c in SHIFT_COLUMNS]}, "
                f"closed form {[dp, dm, power, power]}")
    return problems
