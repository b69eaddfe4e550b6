"""Parameter sweeps over the physics pipeline and figure-ready output.

A sweep evaluates one pipeline stage (chi / fresnel / shift / map /
profile) on a 1-D or 2-D grid.  Each axis is validated once, not each
row (`_axis_errors`).  Grid points with the same values on the axes
other than theta_i and Delta2 share an atom, a coupling field and a slab
and form one group: one `RunConfig` and one `susceptibility` call over
the array of its probe detunings.  Each detuning of a group then makes
one `stack_fresnel` call per polarization over the array of its
incidence angles.  Failures are recorded in the row's `error` column
instead of aborting the sweep: a point's own config or shift failure on
its row (the first axis's config error when both axes fail), a chi or
layer failure on every row of its detuning, and a failure of the group
as a whole on every row of the group.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .errors import RydsheError, ConfigError
from .config import RunConfig, AXES, config_hash
from .quantum import susceptibility
from .multilayer import stack_fresnel
from .beam_shift import shifts_from_coefficients, intensity_profiles

_CHI_COLUMNS = ["re_chi1", "im_chi1", "re_chi3_local", "im_chi3_local",
                "re_chi3_nonlocal", "im_chi3_nonlocal"]
_FRESNEL_COLUMNS = ["re_rp", "im_rp", "re_rs", "im_rs", "abs_rp", "abs_rs",
                    "ratio_s_over_p"]
_SHIFT_COLUMNS = ["delta_plus_um", "delta_minus_um", "power_plus", "power_minus"]
_PROFILE_COLUMNS = ["i_incident", "i_plus", "i_minus"]


@dataclass
class SweepResult:
    columns: list
    rows: list                    # list of lists, one per grid point
    config_hash: str
    version: str
    wall_time_ms: float


def _reflection_coefficients(cfg: RunConfig, chi: complex, theta_deg):
    """(rp, rs) of the configured slab dressed with `chi`; broadcasts
    over an array of incidence angles in degrees."""
    stack = cfg.layer_stack(chi)
    k0 = 2 * math.pi / cfg.lambda_um
    theta = np.radians(theta_deg)
    return (stack_fresnel(stack, theta, k0, "p")[0],
            stack_fresnel(stack, theta, k0, "s")[0])


def _error_cell(exc: RydsheError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _group_values(quantity: str, cfg: RunConfig, setting: dict,
                  detunings: dict) -> list:
    """Per probe detuning of `detunings` ({Delta2 (MHz): [(row, theta)]}),
    the value or error cells of its rows on `cfg` changed by `setting`:
    one `susceptibility` call over the group's detunings."""
    try:
        cfg = replace(cfg, **setting)
        b = susceptibility(cfg.drive_params(list(detunings)), cfg.atom_params())
    except RydsheError as exc:
        return [[_error_cell(exc)] * len(m) for m in detunings.values()]
    chis = np.array([b.chi1, b.chi3_local_contrib, b.chi3_nonlocal_contrib])
    values = []
    for members, error, chi in zip(detunings.values(), b.errors,
                                   chis.T.tolist()):
        if error is None:
            try:
                values.append(_detuning_values(
                    quantity, cfg, chi, [theta for _, theta in members]))
                continue
            except RydsheError as exc:
                error = exc
        values.append([_error_cell(error)] * len(members))
    return values


def _detuning_values(quantity: str, cfg: RunConfig, chi: list,
                     thetas: list) -> list:
    """Value cells (or an error cell) for the incidence angles `thetas`
    (deg) on the slab of `cfg` dressed with the susceptibility parts
    chi = [chi1, chi3_local, chi3_nonlocal] of one detuning."""
    if quantity == "chi":
        return [[c for part in chi for c in (part.real, part.imag)]
                ] * len(thetas)
    rps, rss = _reflection_coefficients(cfg, chi[0] + chi[1] + chi[2], thetas)
    values = []
    for theta, rp, rs in zip(thetas, map(complex, rps), map(complex, rss)):
        if quantity == "fresnel":
            ratio = abs(rs) / abs(rp) if abs(rp) > 0 else math.inf
            values.append([rp.real, rp.imag, rs.real, rs.imag,
                           abs(rp), abs(rs), ratio])
            continue
        try:
            s = shifts_from_coefficients(cfg.beam_spec(theta), rp, rs)
            values.append([s.delta_plus, s.delta_minus,
                           s.power_plus, s.power_minus])
        except RydsheError as exc:
            values.append(_error_cell(exc))
    return values


def _axis_errors(cfg: RunConfig, field: str, values) -> list:
    """Error cell (or None) per value of one axis.

    Every `RunConfig` check on a sweep field is an interval in that field
    alone: when both endpoints pass, every value between them passes.
    """
    def error(value):
        try:
            replace(cfg, **{field: value})
        except RydsheError as exc:
            return _error_cell(exc)
        return None
    if error(values[0]) is None and error(values[-1]) is None:
        return [None] * len(values)
    return [error(v) for v in values]


def run_sweep(cfg: RunConfig) -> SweepResult:
    """Evaluate the configured quantity over the 1-D or 2-D grid."""
    t0 = time.perf_counter()
    if cfg.quantity == "profile":
        return _run_profile(cfg, t0)
    if cfg.quantity == "map" and cfg.variable2 is None:
        raise ConfigError("map sweeps need variable2/min2/max2/steps2")

    variables = [cfg.variable]
    axes = [np.linspace(cfg.sweep_min, cfg.sweep_max, cfg.steps)]
    if cfg.variable2 is not None:
        variables.append(cfg.variable2)
        axes.append(np.linspace(cfg.sweep_min2, cfg.sweep_max2, cfg.steps2))
    fields = [AXES[v][0] for v in variables]
    grid = list(itertools.product(*axes))      # row-major: axis1 outer
    errors = itertools.product(*(_axis_errors(cfg, f, a)
                                 for f, a in zip(fields, axes)))
    value_cols = {"chi": _CHI_COLUMNS, "fresnel": _FRESNEL_COLUMNS,
                  "shift": _SHIFT_COLUMNS, "map": _SHIFT_COLUMNS}[cfg.quantity]
    cells: list = [None] * len(grid)
    # settings other than theta and Delta2 -> {Delta2: [(row, theta)]}
    groups: dict = defaultdict(lambda: defaultdict(list))
    for i, (point, errs) in enumerate(zip(grid, errors)):
        if any(errs):             # the first axis's error wins
            cells[i] = next(e for e in errs if e)
            continue
        setting = dict(zip(fields, point))
        theta = setting.pop("theta_deg", cfg.theta_deg)
        delta2 = setting.pop("delta2_mhz", cfg.delta2_mhz)
        groups[tuple(setting.items())][delta2].append((i, theta))
    for setting, detunings in groups.items():
        for members, values in zip(detunings.values(), _group_values(
                cfg.quantity, cfg, dict(setting), detunings)):
            for (i, _), v in zip(members, values):
                cells[i] = v

    pad = [math.nan] * len(value_cols)
    rows = [list(point) + (pad + [c] if isinstance(c, str) else c + [""])
            for point, c in zip(grid, cells)]
    columns = [AXES[v][1] for v in variables] + value_cols + ["error"]
    return SweepResult(columns=columns, rows=rows,
                       config_hash=config_hash(cfg), version=__version__,
                       wall_time_ms=(time.perf_counter() - t0) * 1e3)


def profile_coefficients(cfg: RunConfig) -> tuple[complex, complex]:
    """(rp, rs) at the configured operating point, for the profile outputs."""
    b = susceptibility(cfg.drive_params(), cfg.atom_params())
    return _reflection_coefficients(cfg, b.total, cfg.theta_deg)


def _run_profile(cfg: RunConfig, t0: float) -> SweepResult:
    """Transverse intensity profiles of incident and spin components."""
    beam = cfg.beam_spec()
    y = np.linspace(-1.6 * beam.w0, 1.6 * beam.w0, 1281)
    profiles = intensity_profiles(beam, *profile_coefficients(cfg), y=y)
    rows = [[*map(float, r), ""] for r in zip(*profiles)]
    return SweepResult(columns=["y_um"] + _PROFILE_COLUMNS + ["error"],
                       rows=rows, config_hash=config_hash(cfg),
                       version=__version__,
                       wall_time_ms=(time.perf_counter() - t0) * 1e3)


def emit(result: SweepResult, fmt: str, path: str, precision: int = 12) -> None:
    """Write CSV or JSON; byte-deterministic for fixed config and version.

    The wall time is intentionally not serialized.
    """
    if fmt == "csv":
        text = format_csv(result, precision)
    elif fmt == "json":
        text = format_json(result, precision)
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def format_csv(result: SweepResult, precision: int = 12) -> str:
    lines = [f"# rydshe {result.version} config={result.config_hash}",
             "# frequencies in MHz, angles in deg, lengths in um, densities in mm^-3",
             ",".join(result.columns)]
    row_format = ",".join([f"%.{precision}g"] * (len(result.columns) - 1)
                          + ["%s"])
    lines.extend(row_format % tuple(row) for row in result.rows)
    return "\n".join(lines) + "\n"


def format_json(result: SweepResult, precision: int = 12) -> str:
    import json
    rows = [[v if isinstance(v, str) else
             (float(f"{v:.{precision}g}") if math.isfinite(v) else None)
             for v in row] for row in result.rows]
    return json.dumps({"meta": {"version": result.version,
                                "config": result.config_hash},
                       "columns": result.columns,
                       "rows": rows}, indent=1, sort_keys=True,
                      allow_nan=False) + "\n"
