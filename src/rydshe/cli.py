"""Command-line front end.

Subcommands map onto the figure-style data products:

  chi             susceptibility parts vs probe detuning
  fresnel         |r_p|, |r_s| and their ratio vs incidence angle
  shift-angle     spin shifts vs incidence angle
  shift-detuning  spin shifts vs probe detuning
  map             2-D spin-shift grid over (theta_i, Delta2)
  profile         transverse intensity profiles of the spin components
  verify          run the oracle/invariant suite, exit nonzero on failure
  defaults        print the canonical configuration

The sweep subcommands also accept `--threads N`, which is ignored (a
sweep is array calls, not a thread pool) and changes no output byte.

Exit codes: 0 success, 1 usage, 2 config, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict, fields as dc_fields, replace

from . import __version__
from .errors import ConfigError, RydsheError
from .config import AXES, RunConfig, parse_config, serialize_config
from .sweeps import run_sweep, emit, profile_coefficients, write_text

EXIT_OK, EXIT_USAGE, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO = 0, 1, 2, 3, 4


class _FloatToken:
    """argparse's negative-number test, widened to every float token."""

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse (Python 3.11) takes -1 and -1.5 as values but -1e1 as an
        # option; no option here looks like a number, so any float is a value
        self._negative_number_matcher = _FloatToken

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# RunConfig field -> (flag, metavar, help); an axis's range flags add -min/-max
_OVERRIDES = {
    "density_mm3": ("--density", "MM3", "atom density in mm^-3"),
    "omega_c_mhz": ("--omega-c", "MHZ", None),
    "omega_p_mhz": ("--omega-p", "MHZ", None),
    "d2_um": ("--d2", "UM", None),
    "w0_um": ("--w0", "UM", None),
    "delta2_mhz": ("--delta2", "MHZ",
                   "fixed probe detuning (non-detuning sweeps)"),
    "theta_deg": ("--theta", "DEG", "fixed incidence angle (non-angle sweeps)"),
}

# sweep subcommand -> (help, quantity, axes); each axis is
# (AXES variable, default min, default max, steps flag, default steps)
_SWEEP_COMMANDS = {
    "chi": ("susceptibility vs probe detuning", "chi",
            [("Delta2", -10.0, 10.0, "steps", 201)]),
    "fresnel": ("Fresnel coefficients vs incidence angle", "fresnel",
                [("theta_i", 20.0, 50.0, "steps", 601)]),
    "shift-angle": ("spin shifts vs incidence angle", "shift",
                    [("theta_i", 33.5, 34.2, "steps", 501)]),
    "shift-detuning": ("spin shifts vs probe detuning", "shift",
                       [("Delta2", -5.0, 5.0, "steps", 201)]),
    "map": ("2-D shift map over angle and detuning", "map",
            [("theta_i", 33.5, 34.2, "theta-steps", 71),
             ("Delta2", -5.0, 5.0, "delta2-steps", 51)]),
}


def _out_path(value: str) -> str:
    """--out's value: a path; the empty string names no file."""
    if not value:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="configuration file")
    p.add_argument("--out", type=_out_path, metavar="PATH",
                   help="output file path")
    p.add_argument("--format", choices=("csv", "json"), help="output format")
    p.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    for field, (flag, metavar, help_) in _OVERRIDES.items():
        p.add_argument(flag, type=float, dest=field, metavar=metavar,
                       help=help_)


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process (parsing leaves it as is)."""
    ap = _Parser(prog="rydshe",
                 description="Spin-resolved beam shifts off a glass-Rydberg-"
                             "glass stack under ladder EIT")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", metavar="COMMAND")
    for name, (help_, _, axes) in _SWEEP_COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        _add_common(p)
        for var, lo, hi, steps_flag, steps in axes:
            flag, unit, _ = _OVERRIDES[AXES[var][0]]
            p.add_argument(f"{flag}-min", type=float, default=lo, metavar=unit)
            p.add_argument(f"{flag}-max", type=float, default=hi, metavar=unit)
            p.add_argument(f"--{steps_flag}", type=int, default=steps)

    p = sub.add_parser("profile", help="transverse intensity profiles")
    _add_common(p)
    p.add_argument("--full-map", action="store_true",
                   help="emit the separable 2-D intensity map as JSON")

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--out", type=_out_path, metavar="PATH",
                   help="write the JSON report here")

    sub.add_parser("defaults", help="print the canonical configuration")
    return ap


def _run_config(args) -> RunConfig:
    """The run of `args`: the file or the defaults, validated with the
    flags, then the subcommand's axes with each swept setting and other
    [sweep] key at its default.  Names on stderr what that replaces."""
    cfg = RunConfig()
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    cfg = replace(cfg, **{f: v for f in _OVERRIDES
                          if (v := getattr(args, f)) is not None})
    _, quantity, axes = _SWEEP_COMMANDS.get(args.command, ("", "profile", ()))
    fields = {f.name: f.default for f in dc_fields(RunConfig)
              if f.metadata["section"] == "sweep"} | {"quantity": quantity}
    for sfx, (var, _, _, steps_flag, _) in zip(("", "2"), axes):
        field = AXES[var][0]
        stem = _OVERRIDES[field][0][2:].replace("-", "_")  # its argparse dest
        fields.update({field: getattr(RunConfig, field), "variable" + sfx: var,
                       "sweep_min" + sfx: getattr(args, stem + "_min"),
                       "sweep_max" + sfx: getattr(args, stem + "_max"),
                       "steps" + sfx: getattr(args, steps_flag.replace("-", "_"))})
    run = replace(cfg, **fields)
    named, section = [], None
    for f in dc_fields(RunConfig):
        if getattr(cfg, f.name) in (f.default, getattr(run, f.name)):
            continue
        sec, key = f.metadata["section"], f.metadata["key"] or f.name
        if f.name in _OVERRIDES and getattr(args, f.name) is not None:
            named.append(_OVERRIDES[f.name][0])
        else:  # a key of the file, its section named where that changes
            named.append(key if sec == section else f"[{sec}] {key}")
            section = sec
    if named:
        print(f"rydshe {args.command}: the subcommand replaces "
              f"{', '.join(named)}{f' of {args.config}' if section else ''}",
              file=sys.stderr)
    return run


def _cmd_verify(args) -> int:
    from .oracle import verify_suite  # the references load only here
    results = verify_suite()
    # with a report, the table and verdict follow it on stderr, so that
    # --out /dev/stdout holds the report alone
    table = sys.stdout
    if args.out:
        write_text(args.out, json.dumps([asdict(r) for r in results],
                                        indent=1, sort_keys=True))
        print(f"report written to {args.out}", file=sys.stderr)
        table = sys.stderr
    width = max(len(r.check_name) for r in results)
    for r in results:
        print(f"{r.check_name:<{width}}  {r.status.upper():4}  "
              f"measured={r.measured:.3e}  threshold={r.threshold:.0e}  "
              f"({r.runtime_ms:.0f} ms)"
              f"{f'  {r.error}' if r.error else ''}", file=table)
    ok = all(r.status == "pass" for r in results)
    print("verify:", "PASS" if ok else "FAIL", file=table)
    return EXIT_OK if ok else EXIT_NUMERICAL


def _cmd_profile_full_map(cfg: RunConfig, out: str) -> None:
    import numpy as np
    from .beam_shift import intensity_maps_2d
    x, y, i_in, i_p, i_m = intensity_maps_2d(cfg.beam_spec(),
                                             *profile_coefficients(cfg))
    # 12 significant digits keep every coordinate distinct at any w0
    payload = {"x_um": [float(f"{c:.12g}") for c in x],
               "y_um": [float(f"{c:.12g}") for c in y],
               "i_incident": np.round(i_in, 9).tolist(),
               "i_plus": np.round(i_p, 9).tolist(),
               "i_minus": np.round(i_m, 9).tolist()}
    write_text(out, json.dumps(payload))
    print(f"2-D intensity map written to {out}", file=sys.stderr)


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command is None:
        ap.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.command == "profile" and args.full_map and args.format == "csv":
        ap.error("profile: --full-map writes JSON, not --format csv")
    try:
        if args.command == "defaults":
            print(serialize_config(RunConfig()), end="")
            return EXIT_OK
        if args.command == "verify":
            return _cmd_verify(args)
        cfg = _run_config(args)
        out = args.out or cfg.out_path
        if args.command == "profile" and args.full_map:
            _cmd_profile_full_map(cfg, out)
            return EXIT_OK
        t0 = time.perf_counter()
        result = run_sweep(cfg)
        ms = (time.perf_counter() - t0) * 1e3
        emit(result, args.format or cfg.out_format, out, cfg.precision)
        n_err = sum(1 for r in result.rows if r[-1] != "")
        print(f"{args.command}: {len(result.rows)} rows -> {out} "
              f"({ms:.0f} ms"
              f"{f', {n_err} failed points' if n_err else ''})",
              file=sys.stderr)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RydsheError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
