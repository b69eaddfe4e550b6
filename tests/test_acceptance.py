"""Acceptance gate: desk-scale reproduction targets and oracle criteria.

Each test prints one PASS/FAIL line.  Criteria 1-7 are figure-level
reproduction targets at the canonical operating point; 8-9 are exact
property/oracle gates.  Tolerances are pinned here and nowhere else.

Criteria 1-8 read the production path of one configuration, `CFG`:
`run_sweep` (through `sweep`), the `RunConfig` conversions and
`profile_coefficients`, as the CLI figures do.  Criterion 9 builds its
random inputs by hand, because it certifies the fast path against the
oracle.

Criteria 4-7 are known red, and their messages name the ROADMAP items
that hold the cause.  The slab's interference phase (k0*n2*d2*cos(theta2)
moves by pi for a ~0.35 um change of d2) is not it: a scan of d2 over
more than one fringe passes none of them at any thickness.  What moves
their readings is the model (beam angular spread, the gain pockets of
the truncated chi, the shell cutoff), or the targets themselves.  The
asserts state the measured values.
"""

import math
import time
from dataclasses import replace

import numpy as np

from rydshe import (DriveParams, intensity_profiles, response_parts,
                    run_sweep, shifts_from_coefficients, stack_fresnel,
                    susceptibility, canonical_atom, canonical_drive,
                    RunConfig)
from rydshe.config import TWO_PI
from rydshe.oracle import (full_local_bloch_steady_state,
                           perturbative_rho21_local, _airy_two_interface,
                           brewster_angle, spectral_shifts,
                           gauss_legendre_nonlocal_integral)
from rydshe.multilayer import Layer, LayerStack
from rydshe.sweeps import profile_coefficients

CFG = RunConfig()


def sweep(quantity: str, **settings) -> dict:
    """{column: values} of the value columns of `run_sweep` of CFG with
    `settings`; a row with an error cell fails the criterion."""
    result = run_sweep(replace(CFG, quantity=quantity, **settings))
    *values, errors = zip(*result.rows)
    assert not any(errors), [e for e in errors if e]
    return {c: np.array(v) for c, v in zip(result.columns, values)}


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def local_extrema(x: np.ndarray, y: np.ndarray):
    """(position, value) of interior local maxima and minima of y(x)."""
    d = np.diff(y)
    up, down = d[:-1], d[1:]
    x, y = x[1:-1], y[1:-1]
    maxima, minima = (up > 0) & (down <= 0), (up < 0) & (down >= 0)
    return (list(zip(x[maxima], y[maxima])),
            list(zip(x[minima], y[minima])))


# -------------------------------------------------------------- criterion 1

def test_criterion_1_eit_dip_floor():
    """Transparency dip floor near two-photon resonance rises when the
    interaction term is on; runtime < 10 s."""
    t0 = time.perf_counter()
    # dip neighborhood: |Delta3| <= 1 MHz, i.e. Delta2 in [-0.9, +1.1] MHz
    c = sweep("chi", sweep_min=-0.9, sweep_max=1.1, steps=41)
    im_off = c["im_chi1"] + c["im_chi3_local"]
    floor_on, floor_off = (im_off + c["im_chi3_nonlocal"]).min(), im_off.min()
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
    stk = CFG.layer_stack(
        susceptibility(CFG.drive_params(), CFG.atom_params()).total)
    k0 = CFG.beam_spec().k0
    th_b = math.degrees(brewster_angle(stk, k0))
    # |r_s| carries a ~0.24 deg interference ripple from the 100 um slab;
    # the monotone content is its envelope: crest and trough sequences of
    # 0.5 deg bins must both rise strictly
    th = np.arange(20.0, 50.0001, 0.01)
    rs_mag = np.abs(stack_fresnel(stk, np.radians(th), k0, "s")[0])
    n = 50   # 0.5 deg bins
    bins = rs_mag[:len(rs_mag) // n * n].reshape(-1, n)
    crests, troughs = bins.max(axis=1), bins.min(axis=1)
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
    s = sweep("shift", variable="theta_i", sweep_min=33.5, sweep_max=34.2,
              steps=500)
    thetas, d = s["theta_deg"], s["delta_plus_um"]
    elapsed = time.perf_counter() - t0
    peak = float(np.max(np.abs(d)))
    ok = (14.0 <= peak <= 26.0 and np.all(np.abs(d) <= 0.525 * CFG.w0_um)
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
    s = sweep("shift", sweep_min=-6.0, sweep_max=6.0, steps=481)
    dsc, d = s["delta2_MHz"], s["delta_plus_um"]
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
                  "(no d2 within one interference fringe passes: "
                  "ROADMAP item 9)")


# -------------------------------------------------------------- criterion 5

def test_criterion_5_reversal_angle_migration():
    """The sign-reversal angle of the shift-vs-angle curve moves by
    0.08 +/- 0.04 deg between detunings -2.5 and +3.3 MHz; < 120 s."""
    t0 = time.perf_counter()

    s = sweep("map", sweep_min=-2.5, sweep_max=3.3, steps=2,
              variable2="theta_i", sweep_min2=33.5, sweep_max2=34.2,
              steps2=701)
    thetas = s["theta_deg"][:701]
    d_red, d_blue = s["delta_plus_um"].reshape(2, 701)

    def crossing(d):
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

    c_red, c_blue = crossing(d_red), crossing(d_blue)
    elapsed = time.perf_counter() - t0
    shift = None if (c_red is None or c_blue is None) else c_blue - c_red
    ok = shift is not None and 0.04 <= shift <= 0.12 and elapsed < 120.0
    assert report(5, "reversal-angle migration", ok,
                  f"crossing(-2.5 MHz)={c_red}, crossing(+3.3 MHz)={c_blue}, "
                  f"migration={shift}, {elapsed:.1f}s "
                  "(at +3.3 MHz the gain pocket of the truncated chi removes "
                  "the crossing: ROADMAP items 4 and 13)")


# -------------------------------------------------------------- criterion 6

def test_criterion_6_profile_orientation():
    """At +3.5 MHz the sigma+ intensity peaks at -20 um +/- 30% and
    sigma- at +20 um; the positions swap at -3 MHz; < 30 s."""
    t0 = time.perf_counter()

    def peaks(d2_mhz):
        rp, rs = profile_coefficients(replace(CFG, delta2_mhz=d2_mhz))
        y = np.linspace(-60.0, 60.0, 1921)
        yy, _, ip, im = intensity_profiles(CFG.beam_spec(), rp, rs, y=y)
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
                  f"{elapsed:.1f}s (no d2 within one interference fringe "
                  "passes: ROADMAP item 9)")


# -------------------------------------------------------------- criterion 7

def test_criterion_7_density_dependence():
    """Shift swing over +/-5 MHz at 2e7 mm^-3 stays below 15 um and
    exceeds 30 um at 4e7 mm^-3; < 120 s."""
    t0 = time.perf_counter()

    d = sweep("map", variable="Na", sweep_min=2e7, sweep_max=4e7, steps=2,
              variable2="Delta2", sweep_min2=-5.0, sweep_max2=5.0,
              steps2=201)["delta_plus_um"].reshape(2, 201)
    s_low, s_high = (d.max(axis=1) - d.min(axis=1)).tolist()
    elapsed = time.perf_counter() - t0
    ok = s_low < 15.0 and s_high > 30.0 and elapsed < 120.0
    assert report(7, "density dependence", ok,
                  f"swing(2e7)={s_low:.1f} um (< 15 required), "
                  f"swing(4e7)={s_high:.1f} um (> 30 required), {elapsed:.1f}s "
                  "(half the density keeps the gain pockets: ROADMAP items 9 "
                  "and 14)")


# -------------------------------------------------------------- criterion 8

def test_criterion_8_exact_density_scaling():
    """Doubling the density multiplies the interaction-induced
    susceptibility by exactly 4 (to 1e-10); < 1 s."""
    t0 = time.perf_counter()
    c = sweep("chi", variable="Na", sweep_min=4e7, sweep_max=8e7, steps=2,
              delta2_mhz=1.0)
    nl1, nl2 = (c["re_chi3_nonlocal"] + 1j * c["im_chi3_nonlocal"]).tolist()
    ratio = nl2 / nl1
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
    beam = CFG.beam_spec()
    k0 = beam.k0

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
            r, _ = stack_fresnel(stk, th, k0, pol)
            worst_airy = max(worst_airy,
                             abs(r - _airy_two_interface(stk, th, k0, pol)))

    worst_shift = 0.0
    for _ in range(30):
        rp = rng.normal() * 0.4 + 1j * rng.normal() * 0.4
        rs = rng.normal() * 0.4 + 1j * rng.normal() * 0.4
        if abs(rp) <= 0.05:
            continue
        s = shifts_from_coefficients(beam, rp, rs)
        da = spectral_shifts(beam, rp, rs).delta_plus
        worst_shift = max(worst_shift,
                          abs(s.delta_plus - da) / max(abs(da), 1e-3 * beam.w0))

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
