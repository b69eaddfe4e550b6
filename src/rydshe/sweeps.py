"""Parameter sweeps over the physics pipeline and figure-ready output.

A sweep evaluates one pipeline stage (chi / fresnel / shift / map /
profile) on a 1-D or 2-D grid.  Each axis is validated once, not each
row (`_axis_errors`).  Grid points at the same position on the axes
other than theta_i and Delta2 share an atom, a coupling field and a slab
and form one group: one `RunConfig` and one `susceptibility` call over
the array of the probe detunings.  The group's rows then go
through the optics and the beam as flat arrays of their detuning's
index and their incidence angle: one `stack_fresnel` call per
polarization and one `shifts_from_coefficients` call for the whole
group, and the rows are sliced out of the result arrays with
`.tolist()`.  Each stage reports its failures per element, and a
row's `error` column holds the earliest failure that reaches it
(`errors.first_errors`) instead of aborting the sweep: a config error of
its own axis value (the first axis's when both fail), a failure of its
group as a whole, a chi error of its detuning, then its own layer (p,
then s) or shift error.  An active slab index fails every row of its
detuning, because they share it.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .errors import RydsheError, ConfigError, first_errors
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


def _error_cell(exc: RydsheError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _group_values(quantity: str, cfg: RunConfig, detunings: np.ndarray,
                  det: np.ndarray, theta: np.ndarray
                  ) -> tuple[np.ndarray, dict]:
    """(values, errors) of the rows of one group, each at the probe
    detuning detunings[det] (MHz) and the angle `theta` (deg).  Each stage
    (chi over `detunings`, p, s, the shift) appends its row errors to
    `stages` as it runs; a failed row has its earliest error, no values."""
    b = susceptibility(cfg.drive_params(detunings), cfg.atom_params())
    stages = [_spread(b.errors, det)]
    if quantity == "chi":
        chi = np.array([b.chi1, b.chi3_local_contrib,
                        b.chi3_nonlocal_contrib]).T
        return (np.stack([chi.real, chi.imag], axis=-1).reshape(-1, 6)[det],
                first_errors(*stages))
    stack, beam = cfg.layer_stack(b.total[det]), cfg.beam_spec(theta)
    rp, _, errors_p = stack_fresnel(stack, beam.theta_i, beam.k0, "p")
    rs, _, errors_s = stack_fresnel(stack, beam.theta_i, beam.k0, "s")
    stages += [errors_p, errors_s]
    if quantity == "fresnel":
        # hypot rounds as the scalar abs() does; np.abs does not
        abs_rp, abs_rs = np.hypot(rp.real, rp.imag), np.hypot(rs.real, rs.imag)
        ratio = np.divide(abs_rs, abs_rp, out=np.full_like(abs_rp, math.inf),
                          where=abs_rp > 0)
        return (np.stack([rp.real, rp.imag, rs.real, rs.imag,
                          abs_rp, abs_rs, ratio], axis=-1),
                first_errors(*stages))
    s = shifts_from_coefficients(beam, rp, rs)
    stages.append(s.errors)
    return (np.stack([s.delta_plus, s.delta_minus, s.power_plus,
                      s.power_minus], axis=-1), first_errors(*stages))


def _axis_errors(cfg: RunConfig, field: str, values) -> dict:
    """{i: error} of the values of one axis that `RunConfig` refuses.

    Every `RunConfig` check on a sweep field is an interval in that field
    alone: when both endpoints pass, every value between them passes.
    """
    def error(value):
        try:
            replace(cfg, **{field: value})
        except RydsheError as exc:
            return exc
    if error(values[0]) is None and error(values[-1]) is None:
        return {}
    return {i: e for i, v in enumerate(values) if (e := error(v)) is not None}


def _spread(errors: dict, index: np.ndarray) -> dict:
    """{row: errors[index[row]]} over the rows whose value on one axis,
    index[row], failed in `errors`."""
    return {row: errors[i] for row, i in enumerate(index.tolist())
            if i in errors} if errors else {}


def run_sweep(cfg: RunConfig) -> SweepResult:
    """Evaluate the configured quantity over the 1-D or 2-D grid."""
    if cfg.quantity == "profile":
        return _run_profile(cfg)
    if cfg.quantity == "map" and cfg.variable2 is None:
        raise ConfigError("map sweeps need variable2/min2/max2/steps2")
    if cfg.variable2 == cfg.variable:
        raise ConfigError(f"variable2 = {cfg.variable2} repeats variable")

    variables = [cfg.variable]
    axes = [np.linspace(cfg.sweep_min, cfg.sweep_max, cfg.steps)]
    if cfg.variable2 is not None:
        variables.append(cfg.variable2)
        axes.append(np.linspace(cfg.sweep_min2, cfg.sweep_max2, cfg.steps2))
    fields = [AXES[v][0] for v in variables]
    value_cols = {"chi": _CHI_COLUMNS, "fresnel": _FRESNEL_COLUMNS,
                  "shift": _SHIFT_COLUMNS, "map": _SHIFT_COLUMNS}[cfg.quantity]
    # row-major grid (first axis outer): the index and value on each axis
    index = np.indices([len(a) for a in axes]).reshape(len(axes), -1)
    grid = np.stack([a[i] for a, i in zip(axes, index)], axis=-1)
    # per failed row its error: the first axis's, then its group's or its own
    errors = first_errors(*(_spread(_axis_errors(cfg, f, a), i)
                            for f, a, i in zip(fields, axes, index)))
    # per field, its axis
    column = {f: k for k, f in enumerate(fields)}
    theta = (grid[:, column["theta_deg"]] if "theta_deg" in column
             else np.full(len(grid), cfg.theta_deg))
    if "delta2_mhz" in column:
        detunings, det = axes[column["delta2_mhz"]], index[column["delta2_mhz"]]
    else:
        detunings, det = np.array([cfg.delta2_mhz]), np.zeros(len(grid), int)
    # rows at one position on the other axes form a group
    keys = [k for f, k in column.items() if f not in ("theta_deg", "delta2_mhz")]
    group = np.zeros(len(grid), dtype=int)
    for k in keys:
        group = group * len(axes[k]) + index[k]
    group[list(errors)] = -1
    table = np.full((len(grid), len(value_cols)), math.nan)
    # every group that keeps a row after the axis checks
    for g in np.flatnonzero(np.bincount(group + 1)[1:]).tolist():
        rows = np.flatnonzero(group == g)
        setting = {fields[k]: grid[rows[0], k].item() for k in keys}
        try:
            table[rows], failed = _group_values(
                cfg.quantity, replace(cfg, **setting), detunings, det[rows],
                theta[rows])
        except RydsheError as exc:
            failed = dict.fromkeys(range(len(rows)), exc)
        errors.update(zip(rows[list(failed)].tolist(), failed.values()))
    table[list(errors)] = math.nan
    rows = np.concatenate([grid, table], axis=1).tolist()
    for i, row in enumerate(rows):
        row.append(_error_cell(errors[i]) if i in errors else "")
    columns = [AXES[v][1] for v in variables] + value_cols + ["error"]
    return SweepResult(columns=columns, rows=rows,
                       config_hash=config_hash(cfg))


def profile_coefficients(cfg: RunConfig) -> tuple[complex, complex]:
    """(rp, rs) at the configured operating point, for the profile outputs."""
    b = susceptibility(cfg.drive_params(), cfg.atom_params())
    stack, beam = cfg.layer_stack(b.total), cfg.beam_spec()
    return tuple(stack_fresnel(stack, beam.theta_i, beam.k0, pol)[0]
                 for pol in "ps")


def _run_profile(cfg: RunConfig) -> SweepResult:
    """Transverse intensity profiles of incident and spin components."""
    beam = cfg.beam_spec()
    y = np.linspace(-1.6 * beam.w0, 1.6 * beam.w0, 1281)
    profiles = intensity_profiles(beam, *profile_coefficients(cfg), y=y)
    rows = [[*map(float, r), ""] for r in zip(*profiles)]
    return SweepResult(columns=["y_um"] + _PROFILE_COLUMNS + ["error"],
                       rows=rows, config_hash=config_hash(cfg))


def emit(result: SweepResult, fmt: str, path: str, precision: int = 12) -> None:
    """Write CSV or JSON; byte-deterministic for fixed config and version."""
    if fmt == "csv":
        text = format_csv(result, precision)
    elif fmt == "json":
        text = format_json(result, precision)
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    write_text(path, text)


def write_text(path: str, text: str) -> None:
    """Write `text` to `path` as UTF-8 in place of what it held.

    An existing regular file is rewritten in place and cut to the new
    length: unlike opening with O_TRUNC, its blocks are not freed and
    allocated again, and its inode, hard links and mode stay.  A new
    file gets mode 0o666 & ~umask.  Any other target (/dev/null, a pipe,
    a FIFO, the file fd 1 or 2 is open on) is written as a stream and
    never cut.  A write that raises (KeyboardInterrupt too) cuts a
    regular file to zero length, so no tail of its old content is left
    behind the new bytes; a process killed before the cut, or a crash,
    can leave that tail.  Raises OSError("cannot write PATH: ...").
    """
    data = text.encode("utf-8")
    try:
        std = _std_descriptor(path)
        fd = std or os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            regular = not std and stat.S_ISREG(os.fstat(fd).st_mode)
            try:
                rest = memoryview(data)
                while rest:
                    rest = rest[os.write(fd, rest):]
                if regular:
                    os.ftruncate(fd, len(data))
            except BaseException:
                if regular:
                    os.ftruncate(fd, 0)
                raise
        finally:
            if not std:
                os.close(fd)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _std_descriptor(path: str) -> int | None:
    """1 or 2 when `path` is the file standard output or standard error
    is open on (same device and inode), so that a write through it goes
    at its offset and honours O_APPEND (`>>`); else None."""
    try:
        target = os.stat(path)
        return next((fd for fd in (1, 2)
                     if os.path.samestat(os.fstat(fd), target)), None)
    except OSError:                 # no such file yet, or fd 1 is closed
        return None


def _csv_cell(cell: str) -> str:
    """The error cell as csv.QUOTE_MINIMAL writes it (RFC 4180): quoted,
    inner quotes doubled, when it holds a comma, a quote or a line break."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def format_csv(result: SweepResult, precision: int = 12) -> str:
    lines = [f"# rydshe {__version__} config={result.config_hash}",
             "# frequencies in MHz, angles in deg, lengths in um, densities in mm^-3",
             ",".join(result.columns)]
    row_format = ",".join([f"%.{precision}g"] * (len(result.columns) - 1)
                          + ["%s"])
    lines.extend(row_format % (*row[:-1], _csv_cell(row[-1])) if row[-1]
                 else row_format % tuple(row) for row in result.rows)
    return "\n".join(lines) + "\n"


def format_json(result: SweepResult, precision: int = 12) -> str:
    """json.dumps(..., indent=1, sort_keys=True) of the rows rounded by
    float(%g), non-finite cells null.  Up to 15 digits name one float, so
    %g is the repr but for integral values, 10**precision <= |v| < 1e16
    and subnormals: only those (all, above 15 digits) go through repr."""
    import json
    import re
    head = json.dumps({"columns": result.columns, "meta": {
        "config": result.config_hash, "version": __version__}}, indent=1)
    row = "\n  [\n   " + ",\n   ".join(
        [f"%.{precision}g"] * (len(result.columns) - 1) + ["%s"]) + "\n  ]"
    body = ",".join([row % (*r[:-1], json.dumps(r[-1]) if r[-1] else '""')
                     for r in result.rows])
    number = (r"\d+|[\d.]+e(?:\+(?:0\d|1[0-5])|-3\d\d)" if precision <= 15
              else r"[\d.]+(?:e[-+]\d+)?")
    body = re.sub(rf"\n   (-?(?:nan|inf|{number}))(?=,?\n)",
                  lambda m: "\n   " + (repr(v) if math.isfinite(
                      v := float(m[1])) else "null"), body)
    rows = body + "\n ]" if body else "]"
    return head[:-2] + ',\n "rows": [' + rows + "\n}\n"
