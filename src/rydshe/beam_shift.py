"""Closed-form beam shifts of the reflected probe (spin Hall geometry).

A horizontally polarized Gaussian beam hits the stack at theta_i.  In
the zeroth-order (angle-independent Fresnel coefficient) approximation
the reflected angular spectrum is

    E_H(ky) = rp * G(ky)
    E_V(ky) = -ky * (rp + rs) * cot(theta_i) / k0 * G(ky)

and the circular components are E+/- = (E_H -/+ i E_V) / sqrt(2), i.e.

    E+/-(ky) = (rp +/- i a ky) G(ky) / sqrt(2),
    a = (rp + rs) cot(theta_i) / k0.

With G the spectrum of exp(-y^2/w0^2), i ky G transforms to the y
derivative, so the reflected fields are closed forms (Bliokh & Aiello,
J. Opt. 15, 014001 (2013)):

    E+/-(y) = (rp -/+ 2 a y / w0^2) exp(-y^2/w0^2) / sqrt(2).

The kx direction factors out as exp(-x^2/w0^2).  Two Gaussian moments
give the centroids and powers of |E+/-|^2 exactly; the spectral
synthesis of the same spectra is kept in `rydshe.oracle` as their
independent reference.  The label sigma+ denotes the (E_H - i E_V)/sqrt(2)
component throughout; with this labeling delta+ is negative just below
the Brewster-like reflectivity minimum and positive above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, PropagationError, failures, first_errors

_THETA_MIN = math.radians(5.0)
_THETA_MAX = math.radians(85.0)


@dataclass(frozen=True)
class BeamSpec:
    """Incident Gaussian beam parameters.

    w0 in um, theta_i in rad, lambda_p in um; n_in is the refractive
    index of the entry medium the beam travels in (the spin-mixing term
    scales with the in-medium wavenumber n_in * 2 pi / lambda_p).
    theta_i may be an array of angles, one per row of a sweep; the shift
    functions broadcast over it.
    """

    w0: float
    theta_i: float | np.ndarray
    lambda_p: float
    n_in: float = 1.0

    def __post_init__(self):
        if not (self.w0 > 0 and self.lambda_p > 0 and self.n_in > 0):
            raise DomainError("w0, lambda_p and n_in must be positive")
        if not np.all((self.theta_i >= _THETA_MIN)
                      & (self.theta_i <= _THETA_MAX)):
            raise DomainError("theta_i restricted to [5 deg, 85 deg]")

    @property
    def k0(self) -> float:
        return 2 * math.pi / self.lambda_p

    @property
    def k_medium(self) -> float:
        return self.n_in * self.k0


@dataclass(frozen=True)
class ShiftResult:
    """Spin-resolved transverse centroid shifts and relative powers.

    The fields are floats, or arrays over the rows of an array call;
    `errors` maps each failed row's flat index to the typed error a
    scalar call on that row raises (the fields are nan there).
    """

    delta_plus: float
    delta_minus: float
    power_plus: float
    power_minus: float
    errors: dict = field(default_factory=dict)


def spin_mixing_amplitude(rp, rs, theta_i, k_medium: float):
    """a = (rp + rs) cot(theta_i) / k, the H->V conversion slope in ky.

    k is the wavenumber in the entry medium: the term is the geometric
    rotation of the per-plane-wave s/p basis, and the beam's angular
    spread is ky over the in-medium wavenumber.  Broadcasts over arrays.
    """
    s = np.asarray(rp + rs, dtype=complex)
    tan = np.tan(theta_i)
    # part by part: a complex quotient would turn an inf part into nan
    a = np.empty(np.broadcast_shapes(s.shape, np.shape(tan)), dtype=complex)
    a.real = s.real / tan / k_medium
    a.imag = s.imag / tan / k_medium
    return a


def analytic_gaussian_shift(rp: complex, rs: complex, theta_i: float,
                            beam: BeamSpec) -> tuple[float, float]:
    """Closed-form centroids of |rp G(y) -/+ (2 a y / w0^2) G(y)|^2.

    With G = exp(-y^2/w0^2) the two Gaussian moments <y^2 G^2> =
    (w0^2/4) <G^2> collapse the centroid to

        delta+/- = -/+ Re(rp conj(a)) / (|rp|^2 + |a|^2 / w0^2).
    """
    s = shifts_from_coefficients(replace(beam, theta_i=theta_i), rp, rs)
    return s.delta_plus, s.delta_minus


def shifts_from_coefficients(beam: BeamSpec, rp, rs) -> ShiftResult:
    """Spin-resolved centroids and powers (relative to the incident
    power per spin) for the Fresnel coefficients rp, rs.

    The power of each spin component relative to its half of the
    incident power is P = |rp|^2 + |a|^2 / w0^2, and delta+/- =
    -/+ Re(rp conj(a)) / P (`analytic_gaussian_shift`).  rp, rs and
    beam.theta_i broadcast: a scalar call returns floats and raises its
    error, an array call returns arrays and reports each row's error in
    `errors`, with nan fields there.
    """
    scalar = np.ndim(rp) == np.ndim(rs) == np.ndim(beam.theta_i) == 0
    # scalars as one-element arrays: numpy's scalar arithmetic rounds
    # differently, and a scalar call must equal an array call
    given = np.atleast_1d(rp), np.atleast_1d(rs)
    rp, rs = (np.asarray(c, dtype=complex) for c in given)
    a = spin_mixing_amplitude(rp, rs, beam.theta_i, beam.k_medium)
    # hypot rounds as the scalar abs() does; np.abs does not.  numpy's **
    # gives inf where Python's raises, and a w0 past the float range
    # gives a non-finite power
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        power = (np.hypot(rp.real, rp.imag) ** 2
                 + np.hypot(a.real, a.imag) ** 2 / np.float64(beam.w0) ** 2)
    rp_, rs_ = (np.broadcast_to(c, power.shape) for c in given)
    nonfinite, dark = ~np.isfinite(power), power == 0
    # the earliest check an element fails gives its error
    errors = first_errors(
        failures(~(np.isfinite(rp_) & np.isfinite(rs_)), lambda i: (
            PropagationError(f"non-finite Fresnel coefficients rp="
                             f"{rp_.flat[i].item()}, rs={rs_.flat[i].item()}"))),
        failures(nonfinite, lambda i: DomainError(
            f"beam power |rp|^2 + |a|^2 / w0^2 is not finite at "
            f"w0 = {beam.w0:g} um")),
        failures(dark, lambda i: DomainError(
            "zero reflected power: shift undefined")))
    failed = nonfinite | dark
    if errors:
        # keep nan and inf out of the arithmetic below
        rp, a = np.where(failed, 0, rp), np.where(failed, 0, a)
        power = np.where(failed, np.nan, power)
    num = np.where(failed, np.nan, rp.real * a.real + rp.imag * a.imag)
    if scalar:
        if errors:
            raise errors[0]
        num, power = float(num[0]), float(power[0])
    return ShiftResult(delta_plus=-num / power, delta_minus=num / power,
                       power_plus=power, power_minus=power, errors=errors)


def medium_index(chi):
    """n = sqrt(1 + chi), forward branch; broadcasts over arrays."""
    n = np.sqrt(1.0 + np.asarray(chi, dtype=complex))
    n = np.where(n.real < 0, -n, n)
    return complex(n) if n.ndim == 0 else n


def _peak_normalized(v: np.ndarray) -> np.ndarray:
    return v / v.max() if v.max() > 0 else v


def _check_finite(beam: BeamSpec, *profiles: np.ndarray) -> None:
    """A DomainError unless every profile is finite: a w0 far from the
    scale of the transverse grid takes y^2 / w0^2 out of the float range."""
    if not all(np.isfinite(p).all() for p in profiles):
        raise DomainError(f"intensity profile is not finite at "
                          f"w0 = {beam.w0:g} um")


def intensity_profiles(beam: BeamSpec, rp: complex, rs: complex,
                       y: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(y, I_incident, I+, I-) 1-D transverse profiles, each peak-normalized.

    I+/- = |rp -/+ 2 a y / w0^2|^2 exp(-2 y^2/w0^2); the default y grid
    spans +/- 8 w0 with 2049 samples.  A profile that is not finite is a
    DomainError naming w0.
    """
    if y is None:
        y = np.linspace(-8.0 * beam.w0, 8.0 * beam.w0, 2049)
    y = np.asarray(y, dtype=float)
    a = spin_mixing_amplitude(rp, rs, beam.theta_i, beam.k_medium)
    # numpy's ** gives inf where Python's raises, and _check_finite names it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w0_sq = np.float64(beam.w0) ** 2
        i_in = np.exp(-2.0 * y**2 / w0_sq)
        slope = 2.0 * a * y / w0_sq
        profiles = (_peak_normalized(i_in),
                    _peak_normalized(np.abs(rp - slope) ** 2 * i_in),
                    _peak_normalized(np.abs(rp + slope) ** 2 * i_in))
    _check_finite(beam, *profiles)
    return (y, *profiles)


def intensity_maps_2d(beam: BeamSpec, rp: complex, rs: complex,
                      y: np.ndarray | None = None):
    """Full 2-D transverse intensity maps (x, y, I_in, I+, I-).

    The reflection operator is kx-free, so every map is the outer
    product of exp(-2 x^2/w0^2) with the 1-D y profile.
    """
    x = np.linspace(-2 * beam.w0, 2 * beam.w0, 129)
    if y is None:
        y = np.linspace(-2 * beam.w0, 2 * beam.w0, 257)
    _, i_in, i_p, i_m = intensity_profiles(beam, rp, rs, y)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ix = _peak_normalized(np.exp(-2.0 * x**2 / np.float64(beam.w0) ** 2))
    _check_finite(beam, ix)
    return x, y, np.outer(ix, i_in), np.outer(ix, i_p), np.outer(ix, i_m)
