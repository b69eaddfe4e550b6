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
from dataclasses import asdict, replace

from . import __version__
from .errors import ConfigError, RydsheError
from .config import RunConfig, parse_config, serialize_config, with_overrides
from .sweeps import run_sweep, emit, profile_coefficients

EXIT_OK, EXIT_USAGE, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO = 0, 1, 2, 3, 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# override flag -> (RunConfig field, metavar, help)
_OVERRIDES = {
    "--density": ("density_mm3", "MM3", "atom density in mm^-3"),
    "--omega-c": ("omega_c_mhz", "MHZ", None),
    "--omega-p": ("omega_p_mhz", "MHZ", None),
    "--d2": ("d2_um", "UM", None),
    "--w0": ("w0_um", "UM", None),
    "--delta2": ("delta2_mhz", "MHZ",
                 "fixed probe detuning (non-detuning sweeps)"),
    "--theta": ("theta_deg", "DEG", "fixed incidence angle (non-angle sweeps)"),
}

# flag stem -> (sweep variable, metavar)
_AXIS_FLAGS = {"delta2": ("Delta2", "MHZ"), "theta": ("theta_i", "DEG")}

# sweep subcommand -> (help, quantity, axes); each axis is
# (flag stem, default min, default max, steps flag, default steps)
_SWEEP_COMMANDS = {
    "chi": ("susceptibility vs probe detuning", "chi",
            [("delta2", -10.0, 10.0, "steps", 201)]),
    "fresnel": ("Fresnel coefficients vs incidence angle", "fresnel",
                [("theta", 20.0, 50.0, "steps", 601)]),
    "shift-angle": ("spin shifts vs incidence angle", "shift",
                    [("theta", 33.5, 34.2, "steps", 501)]),
    "shift-detuning": ("spin shifts vs probe detuning", "shift",
                       [("delta2", -5.0, 5.0, "steps", 201)]),
    "map": ("2-D shift map over angle and detuning", "map",
            [("theta", 33.5, 34.2, "theta-steps", 71),
             ("delta2", -5.0, 5.0, "delta2-steps", 51)]),
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="configuration file")
    p.add_argument("--out", metavar="PATH", help="output file path")
    p.add_argument("--format", choices=("csv", "json"), help="output format")
    p.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    for flag, (field, metavar, help_) in _OVERRIDES.items():
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
        for stem, lo, hi, steps_flag, steps in axes:
            unit = _AXIS_FLAGS[stem][1]
            p.add_argument(f"--{stem}-min", type=float, default=lo, metavar=unit)
            p.add_argument(f"--{stem}-max", type=float, default=hi, metavar=unit)
            p.add_argument(f"--{steps_flag}", type=int, default=steps)

    p = sub.add_parser("profile", help="transverse intensity profiles")
    _add_common(p)
    p.add_argument("--full-map", action="store_true",
                   help="emit the separable 2-D intensity map as JSON")

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--out", metavar="PATH", help="write the JSON report here")

    sub.add_parser("defaults", help="print the canonical configuration")
    return ap


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        cfg = parse_config(text)
    else:
        cfg = RunConfig()
    return with_overrides(cfg, **{field: getattr(args, field)
                                  for field, _, _ in _OVERRIDES.values()})


def _sweep_config(cfg: RunConfig, args) -> RunConfig:
    if args.command == "profile":
        return replace(cfg, quantity="profile")
    _, quantity, axes = _SWEEP_COMMANDS[args.command]
    # a 1-D subcommand sweeps one axis whatever the config file says
    fields = {"quantity": quantity, "variable2": None}
    for sfx, (stem, _, _, steps_flag, _) in zip(("", "2"), axes):
        fields.update({"variable" + sfx: _AXIS_FLAGS[stem][0],
                       "sweep_min" + sfx: getattr(args, f"{stem}_min"),
                       "sweep_max" + sfx: getattr(args, f"{stem}_max"),
                       "steps" + sfx: getattr(args, steps_flag.replace("-", "_"))})
    return replace(cfg, **fields)


def _cmd_verify(args) -> int:
    from .oracle import verify_suite  # the references load only here
    results = verify_suite()
    width = max(len(r.check_name) for r in results)
    ok = True
    for r in results:
        ok &= r.status == "pass"
        print(f"{r.check_name:<{width}}  {r.status.upper():4}  "
              f"measured={r.measured:.3e}  threshold={r.threshold:.0e}  "
              f"({r.runtime_ms:.0f} ms)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump([asdict(r) for r in results], fh, indent=1,
                      sort_keys=True)
        print(f"report written to {args.out}")
    print("verify:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_NUMERICAL


def _cmd_profile_full_map(cfg: RunConfig, out: str) -> None:
    import numpy as np
    from .beam_shift import intensity_maps_2d
    x, y, i_in, i_p, i_m = intensity_maps_2d(cfg.beam_spec(),
                                             *profile_coefficients(cfg))
    payload = {"x_um": list(np.round(x, 6)), "y_um": list(np.round(y, 6)),
               "i_incident": np.round(i_in, 9).tolist(),
               "i_plus": np.round(i_p, 9).tolist(),
               "i_minus": np.round(i_m, 9).tolist()}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    print(f"2-D intensity map written to {out}")


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command is None:
        ap.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "defaults":
            print(serialize_config(RunConfig()), end="")
            return EXIT_OK
        if args.command == "verify":
            return _cmd_verify(args)
        cfg = _load_config(args)
        cfg = _sweep_config(cfg, args)
        out = args.out or cfg.out_path
        fmt = args.format or cfg.out_format
        if args.command == "profile" and args.full_map:
            _cmd_profile_full_map(cfg, out)
            return EXIT_OK
        result = run_sweep(cfg)
        emit(result, fmt, out, cfg.precision)
        n_err = sum(1 for r in result.rows if r[-1] != "")
        print(f"{args.command}: {len(result.rows)} rows -> {out} "
              f"({result.wall_time_ms:.0f} ms"
              f"{f', {n_err} failed points' if n_err else ''})")
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
