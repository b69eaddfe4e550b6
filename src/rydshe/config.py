"""Run configuration: sectioned key-value files with unit-aware parsing.

Files are INI-style with sections [atom], [drive], [geometry], [beam],
[sweep], [output].  Frequencies are given in MHz (converted to rad/us,
i.e. multiplied by 2 pi, only here at the boundary), lengths in um,
angles in degrees, densities in mm^-3, C6 in GHz um^6.  Every key has a
canonical-run default, so the empty file is a valid configuration.
"""

from __future__ import annotations

import hashlib
import io
import math
import re
import typing
from dataclasses import dataclass, field, replace, fields as dc_fields

import numpy as np

from .errors import ConfigError
from .quantum import AtomParams, DriveParams
from .multilayer import Layer, LayerStack
from .beam_shift import THETA_DOMAIN_DEG, BeamSpec, medium_index

TWO_PI = 2.0 * math.pi

MHZ = TWO_PI            # MHz -> rad/us
GHZ_UM6 = TWO_PI * 1e3  # GHz um^6 -> rad/us um^6
MM3 = 1e-9              # mm^-3 -> um^-3

# sweep variable -> (the RunConfig field it sets, its CSV column)
AXES = {
    "Delta2": ("delta2_mhz", "delta2_MHz"),
    "theta_i": ("theta_deg", "theta_deg"),
    "Na": ("density_mm3", "density_mm3"),
    "Omega_c": ("omega_c_mhz", "omega_c_MHz"),
    "Omega_p": ("omega_p_mhz", "omega_p_MHz"),
    "d2": ("d2_um", "d2_um"),
}

QUANTITIES = ("chi", "fresnel", "shift", "map", "profile")


def _setting(section: str, default, key: str | None = None):
    """A RunConfig field read from `key` (default: the field's name) in
    [section] of a config file; the fields are in file order."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters in config-file units (MHz, um, deg, mm^-3)."""

    gamma21_mhz: float = _setting("atom", 6.0)
    gamma32_mhz: float = _setting("atom", 3e-3)
    c6_ghz_um6: float = _setting("atom", 140.0)
    density_mm3: float = _setting("atom", 4e7)
    lambda_um: float = _setting("atom", 0.78)
    # coherence-rate overrides (None = the half-sum rule of AtomParams)
    coh21_mhz: float | None = _setting("atom", None)
    coh31_mhz: float | None = _setting("atom", None)
    coh32_mhz: float | None = _setting("atom", None)
    omega_p_mhz: float = _setting("drive", 0.75)
    omega_c_mhz: float = _setting("drive", 4.0)
    delta2_mhz: float = _setting("drive", 0.0)
    delta_c_mhz: float = _setting("drive", -0.1)
    n1: float = _setting("geometry", 1.49)
    n3: float = _setting("geometry", 1.49)
    d2_um: float = _setting("geometry", 100.0)
    w0_um: float = _setting("beam", 50.0)
    theta_deg: float = _setting("beam", 33.87)
    quantity: str = _setting("sweep", "shift")
    variable: str = _setting("sweep", "Delta2")
    sweep_min: float = _setting("sweep", -5.0, "min")
    sweep_max: float = _setting("sweep", 5.0, "max")
    steps: int = _setting("sweep", 101)
    variable2: str | None = _setting("sweep", None)
    sweep_min2: float = _setting("sweep", 0.0, "min2")
    sweep_max2: float = _setting("sweep", 0.0, "max2")
    steps2: int = _setting("sweep", 2)
    out_path: str = _setting("output", "sweep.csv", "path")
    out_format: str = _setting("output", "csv", "format")
    precision: int = _setting("output", 12)

    def __post_init__(self):
        # nan passes every range check below, so it is refused first
        for f in dc_fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} = {value} is not finite")
        if self.density_mm3 < 0:
            raise ConfigError("density_mm3 must be >= 0")
        if self.gamma21_mhz <= 0 or self.gamma32_mhz < 0:
            raise ConfigError("gamma21_mhz must be > 0 and gamma32_mhz >= 0")
        if ((self.coh21_mhz is not None and self.coh21_mhz <= 0)
                or min(self.coh31_mhz or 0.0, self.coh32_mhz or 0.0) < 0):
            raise ConfigError("coh21_mhz must be > 0, coh31_mhz/coh32_mhz >= 0")
        if self.omega_p_mhz < 0 or self.omega_c_mhz < 0:
            raise ConfigError("Rabi frequencies must be >= 0")
        if self.lambda_um <= 0 or self.w0_um <= 0 or self.d2_um < 0:
            raise ConfigError("lambda_um, w0_um must be > 0 and d2_um >= 0")
        lo, hi = THETA_DOMAIN_DEG
        if not (lo <= self.theta_deg <= hi):
            raise ConfigError(f"theta_deg must lie in [{lo:g}, {hi:g}]")
        if self.n1 <= 0 or self.n3 <= 0:
            raise ConfigError("window indices must be positive")
        if self.quantity not in QUANTITIES:
            raise ConfigError(f"quantity must be one of {QUANTITIES}")
        if self.variable not in AXES:
            raise ConfigError(f"sweep variable must be one of {tuple(AXES)}")
        if self.variable2 is not None and self.variable2 not in AXES:
            raise ConfigError(f"sweep variable2 must be one of {tuple(AXES)}")
        for lbl, lo, hi in (("", self.sweep_min, self.sweep_max),
                            ("2", self.sweep_min2, self.sweep_max2)):
            if getattr(self, "steps" + lbl) < 2:
                raise ConfigError(f"steps{lbl} must be >= 2")
            if not math.isfinite(hi - lo):      # the grid's step overflows
                raise ConfigError(f"max{lbl} - min{lbl} = {hi!r} - {lo!r} "
                                  "is not finite")
        if self.out_format not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        if not re.fullmatch(r"(?!.*\s[#;])[^\s#;](.*\S)?", self.out_path):
            raise ConfigError("path must be one line, unpadded, uncommented")
        if not (1 <= self.precision <= 17):
            raise ConfigError("precision must lie in [1, 17]")

    # ---- conversions into physics objects (rad/us, um, rad) ----

    def atom_params(self) -> AtomParams:
        return AtomParams(
            Gamma21=self.gamma21_mhz * MHZ,
            Gamma32=self.gamma32_mhz * MHZ,
            C6=self.c6_ghz_um6 * GHZ_UM6,
            Na=self.density_mm3 * MM3,
            lambda_p=self.lambda_um,
            coh21=None if self.coh21_mhz is None else self.coh21_mhz * MHZ,
            coh31=None if self.coh31_mhz is None else self.coh31_mhz * MHZ,
            coh32=None if self.coh32_mhz is None else self.coh32_mhz * MHZ,
        )

    def drive_params(self, delta2_mhz=None) -> DriveParams:
        """The drive at the probe detuning `delta2_mhz` (MHz; a scalar or
        a sequence, default: the configured detuning)."""
        delta2 = (self.delta2_mhz if delta2_mhz is None
                  else np.asarray(delta2_mhz, dtype=float))
        with np.errstate(over="ignore"):      # inf: refused by susceptibility
            delta2 = delta2 * MHZ
        return DriveParams(Omega_p=self.omega_p_mhz * MHZ,
                           Omega_c=self.omega_c_mhz * MHZ,
                           Delta2=delta2,
                           Delta_c=self.delta_c_mhz * MHZ)

    def layer_stack(self, chi=0.0) -> LayerStack:
        """The slab stack dressed with `chi` (a scalar or an array)."""
        return LayerStack(n_in=self.n1,
                          layers=(Layer(n=medium_index(chi), d=self.d2_um),),
                          n_out=self.n3)

    def beam_spec(self, theta_deg=None) -> BeamSpec:
        """The beam at `theta_deg` (deg; a scalar or a sequence, default:
        the configured angle)."""
        theta = self.theta_deg if theta_deg is None else theta_deg
        return BeamSpec(w0=self.w0_um, theta_i=np.radians(theta),
                        lambda_p=self.lambda_um, n_in=self.n1)


def canonical_atom() -> AtomParams:
    """The medium of the default `RunConfig`."""
    return RunConfig().atom_params()


def canonical_drive(Delta2: float = 0.0) -> DriveParams:
    """The default `RunConfig` drive at probe detuning Delta2 (rad/us)."""
    return replace(RunConfig().drive_params(), Delta2=Delta2)


def _schema() -> dict:
    """[section] -> {file key: (RunConfig field, caster)}, in file order;
    the caster is the field's annotation, `X | None` unwrapped."""
    hints, schema = typing.get_type_hints(RunConfig), {}
    for f in dc_fields(RunConfig):
        types = typing.get_args(hints[f.name]) or (hints[f.name],)
        caster = next(t for t in types if t is not type(None))
        key = f.metadata["key"] or f.name
        schema.setdefault(f.metadata["section"], {})[key] = (f.name, caster)
    return schema


_SCHEMA = _schema()


def _line_of(text: str, section: str, key: str | None = None) -> int:
    """The line of `key` in [section], or of the section's header when key
    is None; 0 when not found.  Lines are read as configparser reads them:
    inline comments dropped, section names case-sensitive, keys
    case-insensitive and ended by '=' or ':'."""
    in_section = False
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = re.split(r"\s[#;]", line, maxsplit=1)[0].strip()
        if stripped.startswith("["):
            in_section = stripped == f"[{section}]"
            if in_section and key is None:
                return i
        elif (in_section and re.split("[=:]", stripped, maxsplit=1)[0]
              .strip().lower() == key.lower()):
            return i
    return 0


def parse_config(text: str) -> RunConfig:
    """Parse a sectioned key-value config, filling canonical defaults."""
    import configparser  # only a --config run pays for loading it
    # '%' is literal, and [DEFAULT] is an unknown section like any other
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None, default_section="")
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    values: dict = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] "
                              f"(line {_line_of(text, section)})")
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}] "
                                  f"(line {_line_of(text, section, key)})")
            if raw.strip() == "":
                continue
            name, caster = _SCHEMA[section][key]
            try:
                values[name] = caster(raw) if caster is not str else raw.strip()
                if caster is float and not math.isfinite(values[name]):
                    raise ValueError(f"{raw.strip()!r} is not finite")
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for '{key}' in [{section}] "
                    f"(line {_line_of(text, section, key)}): {exc}") from exc
    return RunConfig(**values)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(parse(x))) == parse(x)."""
    out = io.StringIO()
    for section, keys in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for key, (name, _) in keys.items():
            val = getattr(cfg, name)
            if val is None:
                continue
            out.write(f"{key} = {val!r}\n" if isinstance(val, float)
                      else f"{key} = {val}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]

