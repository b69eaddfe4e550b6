import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rydshe import (AtomParams, DriveParams, DomainError,
                    PropagationError, SingularityError, derive_dipole_moment,
                    response_parts, susceptibility, canonical_atom,
                    canonical_drive)
from rydshe import quantum
from rydshe.oracle import (full_local_bloch_steady_state,
                           gauss_legendre_nonlocal_integral,
                           twobody_correlators)
from rydshe.quantum import _correlator_poles, _denominators, _shell_pole_sum

TWO_PI = 2.0 * math.pi


def second_order_twobody(drv, atom, r):
    """The eight O(Omega_p^2) two-body correlators at separation r (um)."""
    return twobody_correlators(drv, atom, [atom.C6 / r**6])[0][0]


def third_order_twobody(drv, atom, r):
    """The eight O(Omega_p^3) two-body correlators at separation r (um)."""
    return twobody_correlators(drv, atom, [atom.C6 / r**6])[1][0]


# ---------------------------------------------------------------- dipole

def test_dipole_moment_reference_value():
    p = derive_dipole_moment(TWO_PI * 6.0e6, 780e-9)
    # regression pin of the implementation
    assert p == pytest.approx(2.5193335499544487e-29, rel=1e-12)
    # independent 50-digit mpmath evaluation of
    # sqrt(3 pi eps0 hbar c^3 Gamma / omega^3); tolerance covers the
    # difference between CODATA revisions of eps0/hbar
    import mpmath as mp
    mp.mp.dps = 50
    eps0 = mp.mpf("8.8541878128e-12")
    hbar = mp.mpf("1.054571817e-34")
    c = mp.mpf("299792458")
    omega = 2 * mp.pi * c / mp.mpf("780e-9")
    ref = mp.sqrt(3 * mp.pi * eps0 * hbar * c**3
                  * (2 * mp.pi * mp.mpf("6.0e6")) / omega**3)
    assert p == pytest.approx(float(ref), rel=1e-8)


def test_si_constants_match_scipy():
    import scipy.constants as const
    for ours, theirs in ((quantum.C_LIGHT, const.c),
                         (quantum.EPSILON_0, const.epsilon_0),
                         (quantum.HBAR, const.hbar)):
        assert ours == pytest.approx(theirs, rel=1e-9)


def test_dipole_moment_sqrt_scaling():
    p1 = derive_dipole_moment(TWO_PI * 6.0e6, 780e-9)
    p4 = derive_dipole_moment(4 * TWO_PI * 6.0e6, 780e-9)
    assert p4 == pytest.approx(2 * p1, rel=1e-14)


def test_dipole_moment_zero_and_domain():
    assert derive_dipole_moment(0.0, 780e-9) == 0.0
    with pytest.raises(DomainError):
        derive_dipole_moment(-1.0, 780e-9)
    with pytest.raises(DomainError):
        derive_dipole_moment(1.0, 0.0)


# ---------------------------------------------------------- blockade radius

def test_blockade_radius_canonical_value(atom, drive0):
    # R_b = (|C6| gamma12 / Oc^2)^(1/6) with C6 = 2pi*140e3, gamma12 = 2pi*3,
    # Oc = 2pi*4 (all rad/us): frozen independent arithmetic
    rb = atom.blockade_radius(drive0.Omega_c)
    assert rb == pytest.approx(5.451569477115342, rel=1e-12)
    assert rb == pytest.approx(5.4, rel=0.02)


def test_blockade_radius_power_laws(atom, drive0):
    rb = atom.blockade_radius(drive0.Omega_c)
    assert atom.blockade_radius(8 * drive0.Omega_c) == pytest.approx(
        rb * 8 ** (-1 / 3), rel=1e-12)
    big = replace(atom, C6=64 * atom.C6)
    assert big.blockade_radius(drive0.Omega_c) == pytest.approx(2 * rb, rel=1e-12)


def test_two_dimensional_detunings_refused(atom):
    with pytest.raises(DomainError, match="Delta2 must be a scalar or a 1-D"):
        susceptibility(canonical_drive(np.zeros((2, 2))), atom)


def test_blockade_radius_errors(atom):
    with pytest.raises(DomainError):
        atom.blockade_radius(0.0)
    with pytest.raises(DomainError):
        replace(atom, C6=0.0).blockade_radius(1.0)


# ------------------------------------------------------------- atom params

def test_coherence_rate_defaults(atom):
    assert atom.gamma21 == pytest.approx(atom.Gamma21 / 2, rel=1e-15)
    assert atom.gamma31 == pytest.approx(atom.Gamma32 / 2, rel=1e-15)
    # 3-2 coherence damped by the short-lived intermediate level
    assert atom.gamma32 == pytest.approx((atom.Gamma21 + atom.Gamma32) / 2,
                                         rel=1e-15)


def test_coherence_rate_overrides_validated(atom):
    # a negative rate (a medium with gain) or gamma21 = 0 is refused
    for bad in ({"coh21": 0.0}, {"coh21": -1.0}, {"coh31": -0.5},
                {"coh32": -3.0}):
        with pytest.raises(DomainError, match=next(iter(bad))):
            replace(atom, **bad)
    assert replace(atom, coh31=0.0, coh32=0.0).gamma32 == 0.0


@settings(max_examples=30, deadline=None)
@given(na=st.floats(0.0, 0.4), gamma21=st.floats(0.5, 30.0),
       d2=st.floats(-10, 10))
def test_replace_matches_a_fresh_atom(na, gamma21, d2):
    # only inputs are stored, so a replaced input carries everything
    # derived from it: K, p21 and the coherence rates
    base = canonical_atom()
    inputs = {"Gamma21": base.Gamma21, "Gamma32": base.Gamma32,
              "C6": base.C6, "Na": base.Na, "lambda_p": base.lambda_p}
    drv = canonical_drive(TWO_PI * np.array([d2, 0.5]))
    for change in ({"Na": na}, {"Gamma21": TWO_PI * gamma21}):
        got = susceptibility(drv, replace(base, **change))
        want = susceptibility(drv, AtomParams(**{**inputs, **change}))
        np.testing.assert_array_equal(_parts(got), _parts(want))
        assert list(map(str, got.errors)) == list(map(str, want.errors))


def test_chi_prefactor_linear_in_density(atom):
    doubled = replace(atom, Na=2 * atom.Na)
    assert doubled.chi_prefactor == pytest.approx(2 * atom.chi_prefactor,
                                                  rel=1e-12)
    rebuilt = AtomParams(atom.Gamma21, atom.Gamma32, atom.C6, 2 * atom.Na,
                         atom.lambda_p)
    assert rebuilt.chi_prefactor == pytest.approx(2 * atom.chi_prefactor,
                                                  rel=1e-12)


# ---------------------------------------------------------- first order

def test_first_order_two_level_limit(atom):
    drv = DriveParams(Omega_p=0.0, Omega_c=0.0, Delta2=TWO_PI * 2.0,
                      Delta_c=-TWO_PI * 0.1)
    p = response_parts(drv, atom)
    r21, r31 = p.rho21_1, p.rho31_1
    d21 = drv.Delta2 + 1j * atom.gamma21
    assert r21 == pytest.approx(-1 / d21, rel=1e-14)
    assert r31 == 0


def test_first_order_dark_state():
    atom = AtomParams(Gamma21=TWO_PI * 6.0, Gamma32=0.0, C6=TWO_PI * 1.4e5,
                      Na=0.04, lambda_p=0.78)
    assert atom.gamma31 == 0.0
    drv = DriveParams(Omega_p=0.0, Omega_c=TWO_PI * 4.0, Delta2=TWO_PI * 0.1,
                      Delta_c=-TWO_PI * 0.1)   # Delta3 = 0 exactly
    r21 = response_parts(drv, atom).rho21_1
    assert r21 == 0


def test_first_order_matches_oracle_weak_probe(atom):
    # extrapolation to Omega_p -> 0 of the full steady state
    drv = canonical_drive(0.0)
    weak = DriveParams(TWO_PI * 3e-5, drv.Omega_c, drv.Delta2, drv.Delta_c)
    rho = full_local_bloch_steady_state(weak, atom)
    p = response_parts(weak, atom)
    r21_1, r31_1 = p.rho21_1, p.rho31_1
    assert abs(rho[1, 0] / weak.Omega_p - r21_1) / abs(r21_1) < 1e-6
    assert abs(rho[2, 0] / weak.Omega_p - r31_1) / abs(r31_1) < 1e-6


# ---------------------------------------------------------- second order

def test_second_order_decoupled_rydberg(atom):
    drv = DriveParams(Omega_p=0.0, Omega_c=0.0, Delta2=TWO_PI * 1.0,
                      Delta_c=-TWO_PI * 0.1)
    p = response_parts(drv, atom)
    r11, r22, r33, r32 = p.rho11_2, p.rho22_2, p.rho33_2, p.rho32_2
    assert abs(r33) < 1e-14 and abs(r32) < 1e-14
    # two-level population correction is 1/|d21|^2
    d21 = drv.Delta2 + 1j * atom.gamma21
    assert r22 == pytest.approx(1 / abs(d21) ** 2, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(d2=st.floats(-10, 10), dc=st.floats(-1, 1), oc=st.floats(0.1, 8))
def test_second_order_trace_property(d2, dc, oc):
    atom = canonical_atom()
    drv = DriveParams(Omega_p=0.0, Omega_c=TWO_PI * oc, Delta2=TWO_PI * d2,
                      Delta_c=TWO_PI * dc)
    p = response_parts(drv, atom)
    r11, r22, r33 = p.rho11_2, p.rho22_2, p.rho33_2
    assert abs(r11 + r22 + r33) < 1e-12


def test_second_order_population_reality(atom):
    drv = canonical_drive(TWO_PI * 1.3)
    p = response_parts(drv, atom)
    r22, r33 = p.rho22_2, p.rho33_2
    assert r22.real > 0 and r33.real > 0
    assert abs(r22.imag) < 1e-12 * abs(r22)
    assert abs(r33.imag) < 1e-12 * abs(r33)


def test_second_order_matches_oracle_scaling(atom):
    # populations converge to Omega_p^2 * rho^(2) with an O(Omega_p^4) error
    drv = canonical_drive(TWO_PI * 1.3)
    p = response_parts(drv, atom)
    r33, r32 = p.rho33_2, p.rho32_2
    residual = []
    omegas = TWO_PI * np.array([0.05, 0.1, 0.2])
    for op in omegas:
        rho = full_local_bloch_steady_state(
            DriveParams(op, drv.Omega_c, drv.Delta2, drv.Delta_c), atom)
        residual.append(abs(rho[2, 2] - op**2 * r33))
    slopes = np.diff(np.log(residual)) / np.diff(np.log(omegas))
    assert np.all(np.abs(slopes - 4.0) < 0.8)
    # and the quadratic coefficient itself converges at small Omega_p
    op = TWO_PI * 0.003
    rho = full_local_bloch_steady_state(
        DriveParams(op, drv.Omega_c, drv.Delta2, drv.Delta_c), atom)
    assert rho[2, 2].real == pytest.approx(op**2 * r33.real, rel=5e-3)
    assert rho[2, 1] == pytest.approx(op**2 * r32, rel=5e-3)


# ----------------------------------------------------- two-body, 2nd order

def test_twobody_factorizes_far_outside_blockade(atom):
    drv = canonical_drive(TWO_PI * 1.3)
    rb = atom.blockade_radius(drv.Omega_c)
    z = second_order_twobody(drv, atom, 100.0 * rb)
    p = response_parts(drv, atom)
    r21, r31 = p.rho21_1, p.rho31_1
    r12, r13 = np.conj(r21), np.conj(r31)
    expected = np.array([r13 * r31, r12 * r31, r12 * r21, r13 * r21,
                         r31 * r31, r21 * r31, r21 * r21, r31 * r21])
    assert np.max(np.abs(z - expected)) / np.max(np.abs(expected)) < 1e-6


def test_twobody_exchange_symmetry(atom):
    drv = canonical_drive(TWO_PI * 0.7)
    rb = atom.blockade_radius(drv.Omega_c)
    z = second_order_twobody(drv, atom, 1.4 * rb)
    # <s21(r') s31(r)> = <s31(r') s21(r)> for a uniform isotropic gas
    assert z[5] == pytest.approx(z[7], rel=1e-12)


def test_twobody_blockade_suppression(atom):
    drv = canonical_drive(TWO_PI * 1.3)
    rb = atom.blockade_radius(drv.Omega_c)
    z_in = second_order_twobody(drv, atom, rb / 10.0)
    z_far = second_order_twobody(drv, atom, 100.0 * rb)
    assert abs(z_in[4]) < 1e-6 * abs(z_far[4])   # rr31_31 killed by V


def test_twobody_decoupled_without_coupling(atom):
    drv = DriveParams(Omega_p=0.0, Omega_c=0.0, Delta2=TWO_PI * 1.0,
                      Delta_c=-TWO_PI * 0.1)
    z = second_order_twobody(drv, atom, 3.0)
    # indices: rr13_31, rr12_31, rr12_21, rr13_21, rr31_31, rr21_31,
    #          rr21_21, rr31_21 -- everything touching level 3 vanishes
    for i in (0, 1, 3, 4, 5, 7):
        assert abs(z[i]) < 1e-14
    assert abs(z[2]) > 0 and abs(z[6]) > 0


# ----------------------------------------------------- two-body, 3rd order

def test_third_order_factorizes_at_zero_interaction(atom):
    drv = canonical_drive(TWO_PI * 1.3)
    x = twobody_correlators(drv, atom, np.array([0.0]))[1][0]
    p = response_parts(drv, atom)
    r21, r31 = p.rho21_1, p.rho31_1
    r22, r33, r32 = p.rho22_2, p.rho33_2, p.rho32_2
    r23 = np.conj(r32)
    expected = np.array([r33 * r31, r23 * r31, r32 * r31, r33 * r21,
                         r22 * r31, r23 * r21, r32 * r21, r22 * r21])
    assert np.max(np.abs(x - expected)) / np.max(np.abs(expected)) < 1e-12


def test_third_order_blockade_limit(atom):
    drv = canonical_drive(TWO_PI * 1.3)
    rb = atom.blockade_radius(drv.Omega_c)
    x_in = third_order_twobody(drv, atom, rb / 10.0)
    x_far = third_order_twobody(drv, atom, 100.0 * rb)
    assert abs(x_in[0]) < 1e-5 * abs(x_far[0])


def test_third_order_far_field_continuity(atom):
    drv = canonical_drive(TWO_PI * 1.3)
    rb = atom.blockade_radius(drv.Omega_c)
    far = third_order_twobody(drv, atom, 100.0 * rb)[0]
    p = response_parts(drv, atom)
    r31, r33 = p.rho31_1, p.rho33_2
    assert abs(far - r33 * r31) / abs(r33 * r31) < 1e-6


def test_third_order_continuity_on_shell(atom):
    drv = canonical_drive(TWO_PI * 1.3)
    rb = atom.blockade_radius(drv.Omega_c)
    s = np.linspace(rb, 3 * rb, 200)
    x1 = twobody_correlators(drv, atom, atom.C6 / s**6)[1][:, 0]
    steps = np.abs(np.diff(x1))
    assert np.max(steps) < 0.2 * np.max(np.abs(x1))


def test_third_order_decoupling_without_coupling(atom):
    drv = DriveParams(Omega_p=0.0, Omega_c=0.0, Delta2=TWO_PI * 1.0,
                      Delta_c=-TWO_PI * 0.1)
    x = third_order_twobody(drv, atom, 3.0)
    for i in range(7):       # every component touching level 3
        assert abs(x[i]) < 1e-14
    assert abs(x[7]) > 0     # rr22_21 survives


def test_third_order_residual(atom):
    # the solver enforces ||Qx - q|| / scale < 1e-10; re-check directly
    drv = canonical_drive(TWO_PI * 0.37)
    rb = atom.blockade_radius(drv.Omega_c)
    x = third_order_twobody(drv, atom, 1.7 * rb)
    assert np.all(np.isfinite(x))


# ---------------------------------------------------------- shell integral

def test_nonlocal_integral_zero_cases(atom, drive0):
    assert response_parts(drive0, replace(atom, C6=0.0)).shell_integral == 0
    assert response_parts(drive0, replace(atom, Na=0.0)).shell_integral == 0
    no_coupling = DriveParams(drive0.Omega_p, 0.0, drive0.Delta2,
                              drive0.Delta_c)
    assert response_parts(no_coupling, atom).shell_integral == 0


def test_nonlocal_integral_linear_density_prefactor(atom, drive0):
    i1 = response_parts(drive0, atom).shell_integral
    i2 = response_parts(drive0, replace(atom, Na=2 * atom.Na)).shell_integral
    assert i2 == pytest.approx(2 * i1, rel=1e-12)


def test_nonlocal_integral_vs_trapezoid_reference(atom, drive0):
    from rydshe.oracle import trapezoid_nonlocal_integral
    i_gl = response_parts(drive0, atom).shell_integral
    i_tr = trapezoid_nonlocal_integral(drive0, atom, panels=10_000)
    assert abs(i_gl - i_tr) / abs(i_tr) < 1e-6


def test_nonlocal_integral_node_doubling(atom, drive0):
    # the oracle rule is converged, and the closed form sits on it
    i64 = gauss_legendre_nonlocal_integral(drive0, atom, n_nodes=64)
    i128 = gauss_legendre_nonlocal_integral(drive0, atom, n_nodes=128)
    assert abs(i128 - i64) / abs(i128) < 1e-8
    i_cf = response_parts(drive0, atom).shell_integral
    assert abs(i_cf - i128) / abs(i128) < 1e-12


def test_partial_fractions_reproduce_correlator(atom):
    # the systems as production builds them: at Delta2 = 0, shifted to
    # the detuning; the oracle assembles them at the detuning itself
    drv = canonical_drive(TWO_PI * 1.3)
    systems = quantum._systems(replace(drv, Delta2=0.0), atom)
    p = response_parts(drv, atom)
    poles, res, errors = _correlator_poles(
        systems, np.array([drv.Delta2]), np.array([p.rho21_1]),
        np.array([p.rho31_1]), tuple(np.array([r]) for r in (
            p.rho11_2, p.rho22_2, p.rho33_2, p.rho32_2)))
    assert not errors
    poles, res = poles[0], res[0]
    V = np.concatenate([
        [0.0, 1.0 + 1.0j, 1e3 + 5j, -2e3 + 300j, 1e5j],
        poles * (1 + 1e-2j), poles * (1 - 1e-2), poles * (1 + 1e-3)])
    direct = twobody_correlators(drv, atom, V)[1][:, 0]
    pf = np.sum(res / (V[:, None] - poles), axis=1)
    assert np.max(np.abs(pf - direct) / np.abs(direct)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(d2=st.floats(-10, 10), dc=st.floats(-1, 1), oc=st.floats(0.5, 8),
       c6_sign=st.sampled_from([-1.0, 1.0]), na=st.floats(0.004, 0.4),
       upper=st.sampled_from([3.0, 5.0]))
def test_closed_form_matches_gauss_legendre(d2, dc, oc, c6_sign, na, upper):
    base = canonical_atom()
    atom = replace(base, C6=c6_sign * base.C6, Na=na)
    drv = DriveParams(Omega_p=TWO_PI * 0.75, Omega_c=TWO_PI * oc,
                      Delta2=TWO_PI * d2, Delta_c=TWO_PI * dc)
    i_cf = response_parts(drv, atom, upper_factor=upper).shell_integral
    i_gl = gauss_legendre_nonlocal_integral(drv, atom, n_nodes=128,
                                            upper_factor=upper)
    assert abs(i_cf - i_gl) / abs(i_gl) < 1e-12


def test_infinite_shell_limit(atom):
    # upper_factor = inf integrates out to u = 0: far shells converge on
    # it, and the default 3 R_b cutoff leaves out a few percent of it
    drv = canonical_drive(TWO_PI * np.array([-3.0, 0.0, 3.0]))
    inf, far, cut = (response_parts(drv, atom, upper_factor=f).shell_integral
                     for f in (math.inf, 300.0, 3.0))
    assert np.all(np.abs(inf - far) / np.abs(inf) < 1e-7)
    cutoff = np.abs(inf - cut) / np.abs(inf)
    assert np.all((0.03 < cutoff) & (cutoff < 0.05)), cutoff


def test_shell_pole_sum_single_pole():
    # c / (C6 u^2 - V) with V = C6 a^2: antiderivative
    # c / (2 a C6) ln((u - a) / (u + a)), a pole well off the segment
    C6, a, c = 2.0, 0.3 + 0.4j, 1.5 - 0.5j
    got, errors = _shell_pole_sum(np.array([[C6 * a**2]]), np.array([[c]]),
                                  C6, 1.0, 2.0)
    F = lambda u: c / (2 * a * C6) * (np.log(u - a) - np.log(u + a))
    assert not errors
    assert got[0] == pytest.approx(F(2.0) - F(1.0), rel=1e-14)


def test_shell_pole_sum_refuses_poles_on_the_shell():
    # one batch: each row gets its own error, and a clear row its value
    C6, lo, hi = -3.0, 1.0, 2.0
    on_shell = C6 * (1.5 + 1e-5j) ** 2
    near_end = C6 * (hi + 5e-4) ** 2          # just beyond u_hi
    twin = 7.0 + 1j
    clear = [C6 * (hi + 0.01) ** 2, twin]     # a clear segment, poles apart
    poles = np.array([[on_shell, twin], [near_end, twin],
                      [twin, twin * (1 + 1e-4)], clear])
    total, errors = _shell_pole_sum(poles, np.ones((4, 2)), C6, lo, hi)
    assert sorted(errors) == [0, 1, 2]
    assert all(isinstance(e, SingularityError) for e in errors.values())
    assert re.search(re.escape(f"pole V = {on_shell:.6g} rad/us"),
                     str(errors[0]))
    assert "shell lengths" in str(errors[1])
    assert "coincide" in str(errors[2])
    alone, none = _shell_pole_sum(np.array([clear]), np.ones((1, 2)),
                                  C6, lo, hi)
    assert not none and total[3] == alone[0]


def _closest(got, want):
    """Largest distance from an eigenvalue in want to got, relative to
    the larger eigenvalue: the rounded entries of S fix the smaller one
    of a widely separated pair only to that scale, for eigvals and the
    closed form alike."""
    return max(np.min(np.abs(got - w)) for w in want) / np.max(np.abs(want))


def test_closed_form_eigenvalues_match_eigvals():
    # random, near-degenerate (relative gaps down to 1e-9, eigenvectors
    # well conditioned) and widely separated (ratios 1e-4 to 1e4) 2x2
    # matrices
    rng = np.random.default_rng(11)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    P = cplx(60, 2, 2) + 3 * np.eye(2)
    lam = cplx(60, 1) * np.array([1.0, 1.0])
    lam[:20, 1] *= 1 + np.logspace(-9, -3, 20) * np.exp(1j * rng.uniform(
        0, 2 * np.pi, 20))
    lam[20:40, 1] *= np.logspace(-4, 4, 20)
    lam[40:] = cplx(20, 2)
    S = np.concatenate([P @ (lam[:, :, None] * np.linalg.inv(P)),
                        cplx(40, 2, 2)])
    got = quantum._eig2(S)
    for i in range(len(S)):
        assert _closest(got[i], np.linalg.eigvals(S[i])) < 1e-13, i
        assert _closest(np.linalg.eigvals(S[i]), got[i]) < 1e-13, i


def test_closed_form_eigenvalues_keep_coincident_poles_refused():
    # poles 1/eig(S) of a near-degenerate S are refused as coincident,
    # with the text _shell_pole_sum gives for any coincident pair
    C6, lo, hi = 2.0, 1.0, 2.0
    lam = np.array([[0.1 + 0.2j, (0.1 + 0.2j) * (1 + 1e-5)]])
    P = np.array([[[1.0, 0.3j], [0.2, 1.0]]])
    S = P @ (lam[:, :, None] * np.linalg.inv(P))
    poles = 1.0 / quantum._eig2(S)
    total, errors = _shell_pole_sum(poles, np.ones((1, 2)), C6, lo, hi)
    assert list(errors) == [0]
    assert re.fullmatch(r"poles V = \S+ and V = \S+ rad/us of "
                        r"rr33_31\^\(3\) coincide", str(errors[0]))


def test_pole_error_names_the_detuning(atom, monkeypatch):
    # widen the clearance so the canonical poles count as on the shell
    monkeypatch.setattr(quantum, "POLE_CLEARANCE", 10.0)
    drv = canonical_drive(TWO_PI * 1.3)
    with pytest.raises(SingularityError,
                       match=re.escape(f"at Delta2 = {drv.Delta2:g} rad/us")):
        response_parts(drv, atom)


@pytest.mark.parametrize("label", ["second-order one-body (5x5)",
                                   "second-order two-body (mixed 4x4)",
                                   "second-order two-body (pair 4x4)",
                                   "third-order two-body (8x8)"])
def test_solve_failure_names_the_detuning(atom, monkeypatch, label):
    # a failure injected at one detuning of a system -- shared by every
    # detuning or batched over them -- names that detuning in a scalar
    # call and lands on that detuning alone in an array call
    solve = quantum._solve_checked
    at = []

    def failing(A, b, what):
        x, errors = solve(A, b, what)
        if what == label:
            errors = {i: SingularityError(f"singular matrix in {what}: "
                                          "injected") for i in at}
        return x, errors
    monkeypatch.setattr(quantum, "_solve_checked", failing)
    drv = canonical_drive(TWO_PI * 1.3)
    at[:] = [0]
    with pytest.raises(SingularityError, match=re.escape(
            f"{label}: injected at Delta2 = {drv.Delta2:g} rad/us")):
        susceptibility(drv, atom)
    D2 = TWO_PI * np.linspace(-10, 10, 7)
    at[:] = [4]
    b = susceptibility(replace(drv, Delta2=D2), atom)
    assert [i for i, e in enumerate(b.errors) if e] == [4]
    assert str(b.errors[4]) == (f"singular matrix in {label}: injected at "
                                f"Delta2 = {D2[4]:g} rad/us")
    parts = _parts(b)
    assert np.all(np.isnan(parts[:, 4]))
    assert np.all(np.isfinite(np.delete(parts, 4, axis=1)))


def test_susceptibility_solve_count(atom, monkeypatch):
    # one pass per call, whatever the number of detunings: the 5x5 (shared
    # by the local and nonlocal terms) and the mixed 4x4 do not depend on
    # the detuning and are factorized once, with the n detunings as
    # right-hand-side columns; the pair 4x4 and the 8x8 are one batched
    # solve each over the n detunings; no node axis.  The denominators
    # are made once over the detunings and once, as scalars, for the
    # matrices.
    shapes, factorized, made = [], [], []
    solve = quantum._solve_checked
    lu = np.linalg.solve
    denominators = quantum._denominators

    def record(A, b, what):
        shapes.append((A.shape, b.shape[0]))
        return solve(A, b, what)

    def record_lu(A, b):
        factorized.append(A.shape)
        return lu(A, b)

    def record_denominators(drive, atom):
        made.append(drive.Delta2)
        return denominators(drive, atom)
    monkeypatch.setattr(quantum, "_solve_checked", record)
    monkeypatch.setattr(np.linalg, "solve", record_lu)
    monkeypatch.setattr(quantum, "_denominators", record_denominators)
    for n, D2 in [(1, TWO_PI * 0.4), (1, TWO_PI * np.array([0.4])),
                  (7, TWO_PI * np.linspace(-10, 10, 7)),
                  (201, TWO_PI * np.linspace(-10, 10, 201))]:
        shapes.clear()
        factorized.clear()
        made.clear()
        susceptibility(canonical_drive(D2), atom)
        assert sorted(shapes, key=str) == sorted(
            [((5, 5), n), ((4, 4), n), ((n, 4, 4), n), ((n, 8, 8), n)],
            key=str)
        assert sorted(factorized, key=str) == sorted(
            [(5, 5), (4, 4), (n, 4, 4), (n, 8, 8)], key=str)
        assert len(made) == 2 and made[1] == 0.0
        assert np.array_equal(made[0], np.atleast_1d(D2))


def _parts(b):
    """The parts of a SusceptibilityBreakdown or ResponseParts, as rows."""
    return np.array([getattr(b, f.name) for f in fields(b)
                     if f.name != "errors"])


def test_array_call_reports_each_failure_at_its_detuning(atom, monkeypatch):
    # a wider pole clearance fails some detunings and not others, and one
    # detuning is poisoned; for susceptibility and for the reader of the
    # named parts alike, each failure is the error a scalar call at that
    # detuning raises, its parts are nan, and the rest are the scalar
    # values
    from rydshe import RydsheError
    monkeypatch.setattr(quantum, "POLE_CLEARANCE", 0.25)
    D2 = TWO_PI * np.linspace(-10, 10, 41)
    D2[7] = math.nan
    for reader in (susceptibility, response_parts):
        b = reader(canonical_drive(D2), atom)
        parts = _parts(b)
        assert len(b.errors) == len(D2)
        n_failed = 0
        for i, d2 in enumerate(D2):
            try:
                one = _parts(reader(canonical_drive(d2), atom))
            except RydsheError as exc:
                n_failed += 1
                assert type(b.errors[i]) is type(exc)
                assert str(b.errors[i]) == str(exc)
                assert np.all(np.isnan(parts[:, i]))
            else:
                assert b.errors[i] is None
                assert np.array_equal(parts[:, i], one)
        assert "non-finite entries" in str(b.errors[7])
        assert 1 < n_failed < len(D2) - 1
        assert any(re.search(r"at Delta2 = \S+ rad/us$", str(e))
                   for e in b.errors if e)


def _medium(atom, medium):
    if medium == "Gamma32=0":
        return replace(atom, Gamma32=0.0)
    if medium == "C6<0":
        return replace(atom, C6=-atom.C6)
    return atom


@pytest.mark.parametrize("medium", ["canonical", "Gamma32=0", "C6<0"])
def test_batch_matches_gauss_legendre(atom, medium):
    # the array call at 41 detunings against the 128-node quadrature of
    # the directly solved correlators, and against the scalar closed forms
    atom = _medium(atom, medium)
    D2 = TWO_PI * np.linspace(-10, 10, 41)
    b = susceptibility(canonical_drive(D2), atom)
    assert not any(b.errors)
    K = atom.chi_prefactor
    for i, d2 in enumerate(D2):
        drv = canonical_drive(d2)
        Op2, Oc = drv.Omega_p**2, drv.Omega_c
        d21, d31, _ = _denominators(drv, atom)
        i_gl = gauss_legendre_nonlocal_integral(drv, atom, n_nodes=128)
        want = K * Op2 * Oc * i_gl / (Oc**2 - d21 * d31)
        got = b.chi3_nonlocal_contrib[i]
        assert abs(got - want) / abs(want) < 1e-12
        p = response_parts(drv, atom)
        r21, local = p.rho21_1, p.rho21_3_local
        assert b.chi1[i] == pytest.approx(K * r21, rel=1e-14)
        assert b.chi3_local_contrib[i] == pytest.approx(K * Op2 * local,
                                                       rel=1e-14)


def test_systems_shift_with_the_detuning(atom):
    # built at two detunings, the 5x5 and the mixed 4x4 are the same, the
    # pair 4x4 moves by 2 dDelta2 I and the 8x8 by dDelta2 I (to rounding)
    at = [quantum._systems(canonical_drive(TWO_PI * f), atom)
          for f in (-3.7, 6.1)]
    step = TWO_PI * (6.1 - -3.7)
    for moves, before, after in zip([0, 0, 2, 1], *at):
        want = moves * step * np.eye(len(before))
        assert np.max(np.abs(after - before - want)) < 1e-12


@pytest.mark.parametrize("medium", ["canonical", "Gamma32=0", "C6<0"])
def test_chi_matches_per_detuning_assembly(atom, medium):
    # production builds the systems once and shifts them to each of 201
    # detunings; the reference builds every matrix from each detuning's
    # own denominators: the 5x5 for the local term, and the oracle's
    # directly solved correlators, by 128-node quadrature, for the
    # nonlocal one
    atom = _medium(atom, medium)
    D2 = TWO_PI * np.linspace(-10, 10, 201)
    b = susceptibility(canonical_drive(D2), atom)
    assert not any(b.errors)
    K = atom.chi_prefactor
    worst = 0.0
    for i, d2 in enumerate(D2):
        drv = canonical_drive(d2)
        Op2, Oc = drv.Omega_p**2, drv.Omega_c
        d21, d31, _ = _denominators(drv, atom)
        p = response_parts(drv, atom)
        r21, r31 = p.rho21_1, p.rho31_1
        (r11, r22, _, r32), errors = quantum._onebody(
            quantum._systems(drv, atom)[0], np.array([r21]), np.array([r31]))
        assert not errors
        den = Oc**2 - d21 * d31
        local = -(d31 * (r22[0] - r11[0]) - Oc * r32[0]) / den
        i_gl = gauss_legendre_nonlocal_integral(drv, atom, n_nodes=128)
        want = [K * r21, K * Op2 * local, K * Op2 * Oc * i_gl / den]
        got = _parts(b)[:, i]
        worst = max(worst, *(abs(g - w) / abs(w) for g, w in zip(got, want)))
    assert worst <= 1e-13


@settings(max_examples=60, deadline=None)
@given(d2=st.lists(st.floats(-10, 10), min_size=2, max_size=24),
       data=st.data())
def test_batch_members_are_independent(d2, data):
    # member i of a batch does not depend on the other members: a
    # permutation or a subset of the batch gives the same values
    atom = canonical_atom()
    D2 = TWO_PI * np.array(d2)
    full = _parts(susceptibility(canonical_drive(D2), atom))
    order = data.draw(st.permutations(range(len(D2))))
    keep = data.draw(st.lists(st.sampled_from(range(len(D2))), min_size=1,
                              max_size=len(D2), unique=True))
    for index in (order, keep):
        part = _parts(susceptibility(
            canonical_drive(D2[index]), atom))
        scale = np.abs(full[:, index])
        assert np.all(np.abs(part - full[:, index]) <= 1e-14 * scale)


# ------------------------------------------------------ third-order parts

def test_third_order_coherence_limits(atom, drive0):
    p0 = response_parts(drive0, atom)
    p1 = response_parts(drive0, replace(atom, C6=0.0))
    loc0, nl0 = p0.rho21_3_local, p0.rho21_3_nonlocal
    loc1, nl1 = p1.rho21_3_local, p1.rho21_3_nonlocal
    assert nl1 == 0 and nl0 != 0
    assert loc1 == pytest.approx(loc0, rel=1e-12)
    drv = DriveParams(drive0.Omega_p, 0.0, drive0.Delta2, drive0.Delta_c)
    nl2 = response_parts(drv, atom).rho21_3_nonlocal
    assert nl2 == 0


def test_local_kerr_matches_oracle_cubic_coefficient(atom):
    # Richardson extraction of the oracle's Omega_p^3 coefficient
    for d2_mhz in np.linspace(-10, 10, 11):
        drv = canonical_drive(TWO_PI * d2_mhz)
        p = response_parts(drv, replace(atom, Na=0.0))
        loc, r21_1 = p.rho21_3_local, p.rho21_1
        op_a, op_b = TWO_PI * 0.02, TWO_PI * 0.01
        def cubic(op):
            rho = full_local_bloch_steady_state(
                DriveParams(op, drv.Omega_c, drv.Delta2, drv.Delta_c), atom)
            return (rho[1, 0] - op * r21_1) / op**3
        # c(op) = loc + a op^2: eliminate the quadratic-in-op^2 error
        extrap = (4 * cubic(op_b) - cubic(op_a)) / 3
        assert abs(extrap - loc) / abs(loc) < 0.01


# ------------------------------------------------------------ susceptibility

def test_susceptibility_zero_density(drive0, atom):
    b = susceptibility(drive0, replace(atom, Na=0.0))
    assert b.chi1 == 0 and b.chi3_local_contrib == 0
    assert b.chi3_nonlocal_contrib == 0 and b.total == 0


def test_susceptibility_past_the_float_range_fails_by_name(atom):
    # K (the density) or Omega_p^2 past the float range gives a typed
    # error naming the non-finite parts; their total stays nan, unwarned
    D2 = TWO_PI * np.array([-1.0, 0.5])
    dense = replace(atom, Na=1e300)
    b = susceptibility(canonical_drive(D2), dense)
    assert [str(e) for e in b.errors] == [
        "non-finite chi1 and chi3_local_contrib and chi3_nonlocal_contrib"] * 2
    assert np.isnan(b.total).all()
    with pytest.raises(PropagationError, match="non-finite chi1 "):
        susceptibility(canonical_drive(0.0), dense)
    strong = replace(canonical_drive(D2), Omega_p=1e300)
    assert all(str(e) == "non-finite chi3_local_contrib and "
               "chi3_nonlocal_contrib"
               for e in susceptibility(strong, atom).errors)
    # the named parts hold no K: a denser gas takes I past the range
    denser = replace(atom, Na=1e306)
    assert [str(e) for e in response_parts(canonical_drive(D2), denser).errors
            ] == ["non-finite shell_integral and rho21_3_nonlocal"] * 2


def test_coupling_past_the_float_range_is_a_domain_error(atom):
    # Omega_c^2 overflows: no OverflowError, a zero blockade radius refused
    drv = replace(canonical_drive(0.0), Omega_c=1e160)
    with pytest.raises(DomainError, match="R_b in float range"):
        susceptibility(drv, atom)
    with pytest.raises(DomainError, match="R_b in float range"):
        atom.blockade_radius(1e160)


def test_susceptibility_weak_probe_limit(atom):
    drv = DriveParams(Omega_p=0.0, Omega_c=TWO_PI * 4.0, Delta2=TWO_PI * 1.0,
                      Delta_c=-TWO_PI * 0.1)
    b = susceptibility(drv, atom)
    assert b.total == b.chi1
    assert b.chi3_local_contrib == 0 and b.chi3_nonlocal_contrib == 0


def test_two_level_resonant_absorption_identity(atom):
    # Im chi_peak = K / gamma21 = 3 Na lambda^3 / (4 pi^2) exactly
    drv = DriveParams(Omega_p=0.0, Omega_c=0.0, Delta2=0.0, Delta_c=0.0)
    r21_1 = response_parts(drv, atom).rho21_1
    peak = (atom.chi_prefactor * r21_1).imag
    assert peak == pytest.approx(3 * atom.Na * atom.lambda_p**3
                                 / (4 * math.pi**2), rel=1e-12)


def test_linear_passivity(atom):
    for d2 in TWO_PI * np.linspace(-20, 20, 201):
        r21_1 = response_parts(canonical_drive(d2), atom).rho21_1
        assert (atom.chi_prefactor * r21_1).imag >= -1e-12


def test_exact_density_scaling(atom):
    drv = canonical_drive(TWO_PI * 1.0)
    b1 = susceptibility(drv, atom)
    b2 = susceptibility(drv, replace(atom, Na=2 * atom.Na))
    assert abs(b2.chi3_nonlocal_contrib / b1.chi3_nonlocal_contrib - 4) < 1e-10
    assert abs(b2.chi1 / b1.chi1 - 2) < 1e-10
    assert abs(b2.chi3_local_contrib / b1.chi3_local_contrib - 2) < 1e-10


def test_breakdown_total_is_sum(atom, drive0):
    b = susceptibility(drive0, atom)
    assert b.total == b.chi1 + b.chi3_local_contrib + b.chi3_nonlocal_contrib


# ------------------------------------------------------------- diagnostics

def test_hermiticity_of_second_order_pair(atom):
    drv = canonical_drive(TWO_PI * 2.4)
    from rydshe.quantum import _solve_checked  # noqa: F401 (import guard)
    p = response_parts(drv, atom)
    r11, r22, r33, r32 = p.rho11_2, p.rho22_2, p.rho33_2, p.rho32_2
    # rebuild rho23 independently and compare against conj(rho32)
    _, _, d32 = _denominators(drv, atom)
    r31 = p.rho31_1
    lhs = np.conj(d32 * r32) - drv.Omega_c * (r33 - r22)
    assert lhs == pytest.approx(np.conj(r31), rel=1e-10)


def test_nan_input_names_failing_solve(atom, drive0):
    # a poisoned pair energy is reported at the first solve it reaches
    from rydshe import PropagationError
    with pytest.raises(PropagationError, match="second-order two-body"):
        twobody_correlators(drive0, atom, np.array([math.nan]))


def test_solve_residual_checked_per_system(monkeypatch):
    # LU with partial pivoting is backward stable, so only a spoiled solve
    # misses the tolerance.  Spoil one small-scale system of a batch: its
    # own relative residual is 1e-6, while the norm over the whole batch
    # stays near 1e-15 and would let it pass.
    from rydshe import SingularityError
    from rydshe.quantum import _solve_checked
    rng = np.random.default_rng(3)
    A = 4 * np.eye(8) + rng.normal(size=(64, 8, 8)) + 1j * rng.normal(size=(64, 8, 8))
    b = rng.normal(size=(64, 8, 1)) + 0j
    A[17] *= 1e-6
    b[17] *= 1e-6
    clean, errors = _solve_checked(A, b, "test batch")
    assert not errors                           # the clean batch passes
    solve = np.linalg.solve

    def spoiled(a, rhs):
        x = solve(a, rhs)
        x[17] *= 1 + 1e-6
        return x
    monkeypatch.setattr(np.linalg, "solve", spoiled)
    x, errors = _solve_checked(A, b, "test batch")
    assert list(errors) == [17]
    assert isinstance(errors[17], SingularityError)
    assert re.fullmatch(r"test batch solve residual \S+ exceeds 1e-10",
                        str(errors[17]))
    assert np.all(x[17] == 0)
    assert np.array_equal(np.delete(x, 17, axis=0), np.delete(clean, 17, axis=0))


def test_solve_guards_each_system():
    # a non-finite and an exactly singular system fail alone, with the
    # text a batch of one gives; the rest of the batch still solves
    from rydshe import PropagationError
    from rydshe.quantum import _solve_checked
    rng = np.random.default_rng(5)
    A = 4 * np.eye(4) + rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    b = rng.normal(size=(6, 4, 2)) + 0j
    A[2, :, 1] = 0.0                            # singular
    b[4, 3, 0] = math.nan                       # poisoned
    x, errors = _solve_checked(A, b, "test batch")
    assert sorted(errors) == [2, 4]
    assert isinstance(errors[2], SingularityError)
    assert isinstance(errors[4], PropagationError)
    for i in (2, 4):
        alone = _solve_checked(A[i:i + 1], b[i:i + 1], "test batch")[1]
        assert str(alone[0]) == str(errors[i])
        assert type(alone[0]) is type(errors[i])
        assert np.all(x[i] == 0)
    for i in (0, 1, 3, 5):
        assert np.allclose(A[i] @ x[i], b[i], rtol=1e-12, atol=1e-12)


def test_shared_matrix_guards_each_column():
    # one matrix for every system, factorized once: a non-finite
    # right-hand side fails its own system alone, and a singular matrix
    # fails every system; each with the text a batch of one gives
    from rydshe import PropagationError
    from rydshe.quantum import _solve_checked
    rng = np.random.default_rng(7)
    A = 4 * np.eye(5) + rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    b = rng.normal(size=(6, 5, 1)) + 0j
    b[3, 1, 0] = math.inf
    x, errors = _solve_checked(A, b, "test shared")
    assert list(errors) == [3]
    assert isinstance(errors[3], PropagationError)
    assert str(errors[3]) == str(_solve_checked(A, b[3:4], "test shared")[1][0])
    assert np.all(x[3] == 0)
    for i in (0, 1, 2, 4, 5):
        assert np.allclose(A @ x[i], b[i], rtol=1e-12, atol=1e-12)
    A[:, 2] = 0.0
    x, errors = _solve_checked(A, b, "test shared")
    assert sorted(errors) == list(range(6))
    assert isinstance(errors[3], PropagationError)
    for i in (0, 1, 2, 4, 5):
        assert isinstance(errors[i], SingularityError)
        assert str(errors[i]) == str(
            _solve_checked(A, b[i:i + 1], "test shared")[1][0])
    assert np.all(x == 0)
