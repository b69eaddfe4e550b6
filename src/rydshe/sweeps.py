"""Parameter sweeps over the physics pipeline and figure-ready output.

A sweep evaluates one pipeline stage (chi / fresnel / shift / map /
profile) on a 1-D or 2-D grid.  Failures at isolated grid points are
recorded in the row's `error` column instead of aborting the sweep.
Susceptibilities are memoized per (drive, atom) so that 2-D maps over
(theta, Delta2) pay for each detuning only once.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .errors import RydsheError, ConfigError
from .config import RunConfig, AXIS_COLUMNS, config_hash, serialize_config
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
    config_text: str

    def column(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([r[i] for r in self.rows if r[-1] == ""], dtype=float)


def _axis_values(cfg: RunConfig, which: int) -> tuple[str, np.ndarray]:
    if which == 1:
        return cfg.variable, np.linspace(cfg.sweep_min, cfg.sweep_max, cfg.steps)
    return cfg.variable2, np.linspace(cfg.sweep_min2, cfg.sweep_max2, cfg.steps2)


def _apply_axis(cfg: RunConfig, var: str, value: float) -> RunConfig:
    patch = {
        "Delta2": {"delta2_mhz": value},
        "theta_i": {"theta_deg": value},
        "Na": {"density_mm3": value},
        "Omega_c": {"omega_c_mhz": value},
        "Omega_p": {"omega_p_mhz": value},
        "d2": {"d2_um": value},
    }[var]
    return replace(cfg, **patch)


class _ChiCache:
    """Memoizes SusceptibilityBreakdown per (drive, atom) parameter tuple."""

    def __init__(self):
        self._store: dict = {}

    def get(self, cfg: RunConfig):
        key = (cfg.gamma21_mhz, cfg.gamma32_mhz, cfg.c6_ghz_um6,
               cfg.density_mm3, cfg.lambda_um, cfg.coh21_mhz, cfg.coh31_mhz,
               cfg.coh32_mhz, cfg.omega_p_mhz, cfg.omega_c_mhz,
               cfg.delta2_mhz, cfg.delta_c_mhz)
        if key not in self._store:
            self._store[key] = susceptibility(cfg.drive_params(), cfg.atom_params())
        return self._store[key]


def _eval_point(cfg: RunConfig, cache: _ChiCache) -> list:
    quantity = cfg.quantity
    if quantity == "chi":
        b = cache.get(cfg)
        return [b.chi1.real, b.chi1.imag,
                b.chi3_local_contrib.real, b.chi3_local_contrib.imag,
                b.chi3_nonlocal_contrib.real, b.chi3_nonlocal_contrib.imag]
    b = cache.get(cfg)
    stack = cfg.layer_stack(b.total)
    k0 = 2 * math.pi / cfg.lambda_um
    theta = math.radians(cfg.theta_deg)
    rp, _ = stack_fresnel(stack, theta, k0, "p")
    rs, _ = stack_fresnel(stack, theta, k0, "s")
    if quantity == "fresnel":
        ratio = abs(rs) / abs(rp) if abs(rp) > 0 else math.inf
        return [rp.real, rp.imag, rs.real, rs.imag, abs(rp), abs(rs), ratio]
    s = shifts_from_coefficients(cfg.beam_spec(), rp, rs)
    return [s.delta_plus, s.delta_minus, s.power_plus, s.power_minus]


def run_sweep(cfg: RunConfig, threads: int = 1) -> SweepResult:
    """Evaluate the configured quantity over the 1-D or 2-D grid."""
    t0 = time.perf_counter()
    if cfg.quantity == "profile":
        return _run_profile(cfg, t0)
    if cfg.quantity == "map" and cfg.variable2 is None:
        raise ConfigError("map sweeps need variable2/min2/max2/steps2")

    var1, axis1 = _axis_values(cfg, 1)
    grid: list[tuple] = []
    if cfg.quantity == "map" or cfg.variable2 is not None:
        var2, axis2 = _axis_values(cfg, 2)
        for v1 in axis1:            # row-major: axis1 outer, axis2 inner
            for v2 in axis2:
                grid.append((v1, v2))
        axis_cols = [AXIS_COLUMNS[var1], AXIS_COLUMNS[var2]]
    else:
        var2 = None
        grid = [(v1,) for v1 in axis1]
        axis_cols = [AXIS_COLUMNS[var1]]

    value_cols = {"chi": _CHI_COLUMNS, "fresnel": _FRESNEL_COLUMNS,
                  "shift": _SHIFT_COLUMNS, "map": _SHIFT_COLUMNS}[cfg.quantity]
    columns = axis_cols + value_cols + ["error"]
    cache = _ChiCache()

    def work(point):
        try:
            pcfg = _apply_axis(cfg, var1, point[0])
            if var2 is not None:
                pcfg = _apply_axis(pcfg, var2, point[1])
            return list(point) + _eval_point(pcfg, cache) + [""]
        except RydsheError as exc:
            pad = [math.nan] * len(value_cols)
            return list(point) + pad + [f"{type(exc).__name__}: {exc}"]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(work, grid))
    else:
        rows = [work(p) for p in grid]
    return SweepResult(columns=columns, rows=rows,
                       config_hash=config_hash(cfg), version=__version__,
                       wall_time_ms=(time.perf_counter() - t0) * 1e3,
                       config_text=serialize_config(cfg))


def profile_coefficients(cfg: RunConfig) -> tuple[complex, complex]:
    """(rp, rs) at the configured operating point, for the profile outputs."""
    b = susceptibility(cfg.drive_params(), cfg.atom_params())
    stack = cfg.layer_stack(b.total)
    k0 = 2 * math.pi / cfg.lambda_um
    theta = math.radians(cfg.theta_deg)
    return (stack_fresnel(stack, theta, k0, "p")[0],
            stack_fresnel(stack, theta, k0, "s")[0])


def _run_profile(cfg: RunConfig, t0: float) -> SweepResult:
    """Transverse intensity profiles of incident and spin components."""
    beam = cfg.beam_spec()
    y = np.linspace(-1.6 * beam.w0, 1.6 * beam.w0, 1281)
    profiles = intensity_profiles(beam, *profile_coefficients(cfg), y=y)
    rows = [[*map(float, r), ""] for r in zip(*profiles)]
    return SweepResult(columns=["y_um"] + _PROFILE_COLUMNS + ["error"],
                       rows=rows, config_hash=config_hash(cfg),
                       version=__version__,
                       wall_time_ms=(time.perf_counter() - t0) * 1e3,
                       config_text=serialize_config(cfg))


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


def _fmt(v, precision: int) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return f"{v:.{precision}g}"


def format_csv(result: SweepResult, precision: int = 12) -> str:
    lines = [f"# rydshe {result.version} config={result.config_hash}",
             "# frequencies in MHz, angles in deg, lengths in um, densities in mm^-3",
             ",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_fmt(v, precision) for v in row))
    return "\n".join(lines) + "\n"


def format_json(result: SweepResult, precision: int = 12) -> str:
    import json
    rows = [[v if isinstance(v, str) else
             (None if (isinstance(v, float) and math.isnan(v)) else
              float(f"{v:.{precision}g}"))
             for v in row] for row in result.rows]
    return json.dumps({"meta": {"version": result.version,
                                "config": result.config_hash},
                       "columns": result.columns,
                       "rows": rows}, indent=1, sort_keys=True) + "\n"


def load_json(text: str) -> SweepResult:
    import json
    obj = json.loads(text)
    rows = []
    for row in obj["rows"]:
        parsed = [math.nan if v is None else v if isinstance(v, str)
                  else float(v) for v in row[:-1]]
        rows.append(parsed + [row[-1]])
    return SweepResult(columns=list(obj["columns"]), rows=rows,
                       config_hash=obj["meta"]["config"],
                       version=obj["meta"]["version"],
                       wall_time_ms=0.0, config_text="")
