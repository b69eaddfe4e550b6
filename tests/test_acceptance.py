"""Acceptance gate: desk-scale reproduction targets and oracle criteria.

Each test prints one PASS/FAIL line.  Criteria 1-7 are figure-level
reproduction targets at the canonical operating point; 8-9 are exact
property/oracle gates.  Tolerances are pinned here and nowhere else.

Known-red criteria (4, 5, 6, 7a) fail for a documented reason: the
interior-layer interference phase k0*n2*d2*cos(theta2) ~ 449 rad at the
canonical point moves by pi for a ~0.35 um change of d2, so the
positions of the near-Brewster shift extrema in detuning are set by
sub-wavelength details of the 100 um slab thickness that the operating
point does not pin down.  The corresponding asserts state the measured
values; the analysis lives in the project notes outside the package.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from rydshe import (BeamSpec, DriveParams, intensity_profiles,
                    response_parts, shifts_from_coefficients,
                    stack_fresnel, susceptibility, canonical_atom, canonical_drive,
                    RunConfig)
from rydshe.oracle import (full_local_bloch_steady_state,
                           perturbative_rho21_local, _airy_two_interface,
                           brewster_angle, spectral_shifts,
                           gauss_legendre_nonlocal_integral)
from rydshe.multilayer import Layer, LayerStack

TWO_PI = 2.0 * math.pi
K0 = TWO_PI / 0.78
W0 = 50.0


def beam_at(theta_deg: float) -> BeamSpec:
    return BeamSpec(w0=W0, theta_i=math.radians(theta_deg), lambda_p=0.78,
                    n_in=1.49)


def chi_breakdown(d2_mhz: float, density_mm3: float = 4e7, oc_mhz: float = 4.0):
    atom = replace(canonical_atom(), Na=density_mm3 * 1e-9)
    drv = DriveParams(TWO_PI * 0.75, TWO_PI * oc_mhz, TWO_PI * d2_mhz,
                      -TWO_PI * 0.1)
    return susceptibility(drv, atom)


def rp_rs(theta_deg: float, chi: complex):
    stk = RunConfig().layer_stack(chi)
    th = math.radians(theta_deg)
    return (stack_fresnel(stk, th, K0, "p")[0],
            stack_fresnel(stk, th, K0, "s")[0])


def shift_plus(theta_deg: float, chi: complex) -> float:
    rp, rs = rp_rs(theta_deg, chi)
    return shifts_from_coefficients(beam_at(theta_deg), rp, rs).delta_plus


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def local_extrema(x: np.ndarray, y: np.ndarray):
    """(position, value) of interior local maxima and minima of y(x)."""
    d = np.diff(y)
    maxima = [(x[i + 1], y[i + 1]) for i in range(len(d) - 1)
              if d[i] > 0 >= d[i + 1]]
    minima = [(x[i + 1], y[i + 1]) for i in range(len(d) - 1)
              if d[i] < 0 <= d[i + 1]]
    return maxima, minima


# -------------------------------------------------------------- criterion 1

def test_criterion_1_eit_dip_floor():
    """Transparency dip floor near two-photon resonance rises when the
    interaction term is on; runtime < 10 s."""
    t0 = time.perf_counter()
    # dip neighborhood: |Delta3| <= 1 MHz, i.e. Delta2 in [-0.9, +1.1] MHz
    dsc = np.linspace(-0.9, 1.1, 41)
    bs = [chi_breakdown(d) for d in dsc]
    floor_on = min(b.total.imag for b in bs)
    floor_off = min((b.chi1 + b.chi3_local_contrib).imag for b in bs)
    elapsed = time.perf_counter() - t0
    ok = floor_on > floor_off >= 0 and floor_on > 1e-6 and elapsed < 10.0
    assert report(1, "EIT dip floor", ok,
                  f"floor_on={floor_on:.3e}, floor_off={floor_off:.3e}, "
                  f"{elapsed:.1f}s")


# -------------------------------------------------------------- criterion 2

def test_criterion_2_brewster_and_rs_trend():
    """|r_p| minimum at 33.8 +/- 0.15 deg at zero probe detuning; the
    |r_s| interference envelope rises monotonically over [20, 50] deg;
    runtime < 5 s."""
    t0 = time.perf_counter()
    chi0 = chi_breakdown(0.0).total
    stk = RunConfig().layer_stack(chi0)
    th_b = math.degrees(brewster_angle(stk, K0))
    # |r_s| carries a ~0.24 deg interference ripple from the 100 um slab;
    # the monotone content is its envelope: crest and trough sequences of
    # 0.5 deg bins must both rise strictly
    th = np.arange(20.0, 50.0001, 0.01)
    rs_mag = np.abs(stack_fresnel(stk, np.radians(th), K0, "s")[0])
    n = 50   # 0.5 deg bins
    nb = len(rs_mag) // n
    crests = np.array([rs_mag[i * n:(i + 1) * n].max() for i in range(nb)])
    troughs = np.array([rs_mag[i * n:(i + 1) * n].min() for i in range(nb)])
    mono = bool(np.all(np.diff(crests) > 0) and np.all(np.diff(troughs) > 0))
    elapsed = time.perf_counter() - t0
    ok = abs(th_b - 33.8) <= 0.15 and mono and elapsed < 5.0
    assert report(2, "Brewster behavior", ok,
                  f"theta_B={th_b:.3f} deg, rs envelope monotone={mono}, "
                  f"{elapsed:.1f}s")


# -------------------------------------------------------------- criterion 3

def test_criterion_3_peak_shifts_vs_angle():
    """Max spin shift over theta in [33.5, 34.2] deg at zero detuning is
    20 um +/- 30%, bounded by 0.525 w0, opposite-sign peaks; 500-point
    scan in < 60 s."""
    t0 = time.perf_counter()
    chi0 = chi_breakdown(0.0).total
    thetas = np.linspace(33.5, 34.2, 500)
    d = np.array([shift_plus(t, chi0) for t in thetas])
    elapsed = time.perf_counter() - t0
    peak = float(np.max(np.abs(d)))
    ok = (14.0 <= peak <= 26.0 and np.all(np.abs(d) <= 0.525 * W0)
          and d.max() > 0 > d.min() and elapsed < 60.0)
    assert report(3, "peak shifts", ok,
                  f"max|delta|={peak:.2f} um at "
                  f"{thetas[np.argmax(np.abs(d))]:.3f} deg, "
                  f"range=({d.min():.1f}, {d.max():.1f}), {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 4

def test_criterion_4_detuning_sign_reversal():
    """At theta = 33.87 deg the shift-vs-detuning curve has a +20 um
    (+/-30%) extremum at -3 +/- 1 MHz and a -22 um (+/-30%) extremum at
    +3 +/- 1 MHz with total swing > 30 um; < 60 s."""
    t0 = time.perf_counter()
    dsc = np.linspace(-6.0, 6.0, 481)
    d = np.array([shift_plus(33.87, chi_breakdown(x).total) for x in dsc])
    elapsed = time.perf_counter() - t0
    maxima, minima = local_extrema(dsc, d)
    pos = [(p, v) for p, v in maxima if -4.0 <= p <= -2.0 and 14.0 <= v <= 26.0]
    neg = [(p, v) for p, v in minima if 2.0 <= p <= 4.0 and -28.6 <= v <= -15.4]
    swing = float(d.max() - d.min())
    ok = bool(pos) and bool(neg) and swing > 30.0 and elapsed < 60.0
    best_max = max(maxima, key=lambda t: t[1]) if maxima else (math.nan,) * 2
    best_min = min(minima, key=lambda t: t[1]) if minima else (math.nan,) * 2
    assert report(4, "detuning sign reversal", ok,
                  f"largest max {best_max[1]:+.1f} um at {best_max[0]:+.2f} MHz, "
                  f"deepest min {best_min[1]:+.1f} um at {best_min[0]:+.2f} MHz, "
                  f"swing={swing:.1f} um, {elapsed:.1f}s "
                  "(extremum positions ride on the slab interference phase; "
                  "see project notes)")


# -------------------------------------------------------------- criterion 5

def test_criterion_5_reversal_angle_migration():
    """The sign-reversal angle of the shift-vs-angle curve moves by
    0.08 +/- 0.04 deg between detunings -2.5 and +3.3 MHz; < 120 s."""
    t0 = time.perf_counter()

    def crossing(d2_mhz):
        chi = chi_breakdown(d2_mhz).total
        thetas = np.linspace(33.5, 34.2, 701)
        d = np.array([shift_plus(t, chi) for t in thetas])
        i_min, i_max = int(np.argmin(d)), int(np.argmax(d))
        if not (d[i_min] < -1.0 and d[i_max] > 1.0):
            return None       # no genuine reversal structure
        lo, hi = sorted((i_min, i_max))
        seg = d[lo:hi + 1]
        idx = np.where(np.sign(seg[:-1]) != np.sign(seg[1:]))[0]
        if len(idx) == 0:
            return None
        i = lo + int(idx[0])
        t1, t2, y1, y2 = thetas[i], thetas[i + 1], d[i], d[i + 1]
        return t1 - y1 * (t2 - t1) / (y2 - y1)

    c_red = crossing(-2.5)
    c_blue = crossing(+3.3)
    elapsed = time.perf_counter() - t0
    shift = None if (c_red is None or c_blue is None) else c_blue - c_red
    ok = shift is not None and 0.04 <= shift <= 0.12 and elapsed < 120.0
    assert report(5, "reversal-angle migration", ok,
                  f"crossing(-2.5 MHz)={c_red}, crossing(+3.3 MHz)={c_blue}, "
                  f"migration={shift}, {elapsed:.1f}s "
                  "(at +3.3 MHz the truncated Kerr gain pocket suppresses the "
                  "reversal; see project notes)")


# -------------------------------------------------------------- criterion 6

def test_criterion_6_profile_orientation():
    """At +3.5 MHz the sigma+ intensity peaks at -20 um +/- 30% and
    sigma- at +20 um; the positions swap at -3 MHz; < 30 s."""
    t0 = time.perf_counter()

    def peaks(d2_mhz):
        rp, rs = rp_rs(33.87, chi_breakdown(d2_mhz).total)
        y = np.linspace(-60.0, 60.0, 1921)
        yy, _, ip, im = intensity_profiles(beam_at(33.87), rp, rs, y=y)
        return float(yy[np.argmax(ip)]), float(yy[np.argmax(im)])

    p_blue, m_blue = peaks(3.5)
    p_red, m_red = peaks(-3.0)
    elapsed = time.perf_counter() - t0
    ok = (-26.0 <= p_blue <= -14.0 and 14.0 <= m_blue <= 26.0
          and 14.0 <= p_red <= 26.0 and -26.0 <= m_red <= -14.0
          and elapsed < 30.0)
    assert report(6, "profile orientation", ok,
                  f"+3.5 MHz: sigma+ at {p_blue:+.1f}, sigma- at {m_blue:+.1f}; "
                  f"-3.0 MHz: sigma+ at {p_red:+.1f}, sigma- at {m_red:+.1f} um, "
                  f"{elapsed:.1f}s (splitting detunings follow the slab "
                  "interference phase; see project notes)")


# -------------------------------------------------------------- criterion 7

def test_criterion_7_density_dependence():
    """Shift swing over +/-5 MHz at 2e7 mm^-3 stays below 15 um and
    exceeds 30 um at 4e7 mm^-3; < 120 s."""
    t0 = time.perf_counter()

    def swing(density_mm3):
        dsc = np.linspace(-5.0, 5.0, 201)
        d = np.array([shift_plus(33.87, chi_breakdown(x, density_mm3).total)
                      for x in dsc])
        return float(d.max() - d.min())

    s_low, s_high = swing(2e7), swing(4e7)
    elapsed = time.perf_counter() - t0
    ok = s_low < 15.0 and s_high > 30.0 and elapsed < 120.0
    assert report(7, "density dependence", ok,
                  f"swing(2e7)={s_low:.1f} um (< 15 required), "
                  f"swing(4e7)={s_high:.1f} um (> 30 required), {elapsed:.1f}s "
                  "(low-density swing is carried by interference-dip "
                  "crossings that persist at half density; see project notes)")


# -------------------------------------------------------------- criterion 8

def test_criterion_8_exact_density_scaling():
    """Doubling the density multiplies the interaction-induced
    susceptibility by exactly 4 (to 1e-10); < 1 s."""
    t0 = time.perf_counter()
    b1 = chi_breakdown(1.0, 4e7)
    b2 = chi_breakdown(1.0, 8e7)
    ratio = b2.chi3_nonlocal_contrib / b1.chi3_nonlocal_contrib
    err = abs(ratio - 4.0) / 4.0
    elapsed = time.perf_counter() - t0
    ok = err < 1e-10 and elapsed < 1.0
    assert report(8, "exact density scaling", ok,
                  f"ratio={ratio:.12g}, rel err={err:.2e}, {elapsed:.2f}s")


# -------------------------------------------------------------- criterion 9

def test_criterion_9_oracle_certification(rng):
    """Perturbative coherence within 1% of the nonperturbative local
    steady state at 0.1 MHz probe; closed-form two-interface formula
    within 1e-12; closed-form pipeline within 2% of the spectral-synthesis
    centroid;
    closed-form shell integral within 1e-8 of the oracle Gauss-Legendre
    rule; < 60 s total."""
    t0 = time.perf_counter()
    atom = canonical_atom()

    worst_pert = 0.0
    for d2 in TWO_PI * np.linspace(-10, 10, 81):
        drv = DriveParams(TWO_PI * 0.1, TWO_PI * 4.0, d2, -TWO_PI * 0.1)
        o = full_local_bloch_steady_state(drv, atom)[1, 0]
        worst_pert = max(worst_pert,
                         abs(perturbative_rho21_local(drv, atom) - o) / abs(o))

    worst_airy = 0.0
    for _ in range(100):
        stk = LayerStack(n_in=rng.uniform(1.2, 1.8),
                         layers=(Layer(n=rng.uniform(0.8, 2.0)
                                       + 1j * rng.uniform(0, 0.05),
                                       d=rng.uniform(0.5, 30.0)),),
                         n_out=rng.uniform(1.2, 1.8))
        th = rng.uniform(math.radians(5), math.radians(80))
        for pol in ("p", "s"):
            r, _ = stack_fresnel(stk, th, K0, pol)
            worst_airy = max(worst_airy,
                             abs(r - _airy_two_interface(stk, th, K0, pol)))

    beam = beam_at(33.87)
    worst_shift = 0.0
    for _ in range(30):
        rp = rng.normal() * 0.4 + 1j * rng.normal() * 0.4
        rs = rng.normal() * 0.4 + 1j * rng.normal() * 0.4
        if abs(rp) <= 0.05:
            continue
        s = shifts_from_coefficients(beam, rp, rs)
        da = spectral_shifts(beam, rp, rs).delta_plus
        worst_shift = max(worst_shift,
                          abs(s.delta_plus - da) / max(abs(da), 1e-3 * W0))

    drv = canonical_drive(0.0)
    i_gl = gauss_legendre_nonlocal_integral(drv, atom)
    i_cf = response_parts(drv, atom).shell_integral
    drift = abs(i_cf - i_gl) / abs(i_gl)

    elapsed = time.perf_counter() - t0
    ok = (worst_pert < 0.01 and worst_airy < 1e-12 and worst_shift < 0.02
          and drift < 1e-8 and elapsed < 60.0)
    assert report(9, "oracle certification", ok,
                  f"pert-vs-oracle={worst_pert:.2e} (<1e-2), "
                  f"airy={worst_airy:.2e} (<1e-12), "
                  f"pipeline-vs-analytic={worst_shift:.2e} (<2e-2), "
                  f"closed-form-vs-GL64={drift:.2e} (<1e-8), {elapsed:.1f}s")
