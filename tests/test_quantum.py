import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rydshe import (AtomParams, DriveParams, DomainError,
                    PropagationError, SingularityError, response_parts,
                    susceptibility, canonical_atom, canonical_drive)
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


# ------------------------------------------------------------ chi prefactor

def _si_chi_prefactor(Na, Gamma21, lambda_p):
    """K = Na |d|^2 / (eps0 hbar) in rad/us, with |d|^2 = 3 pi eps0 hbar
    c^3 Gamma21 / omega^3, evaluated in SI at 50 digits (CODATA values)."""
    import mpmath as mp
    import scipy.constants as const
    with mp.workdps(50):
        eps0, hbar, c = map(mp.mpf, (const.epsilon_0, const.hbar, const.c))
        omega = 2 * mp.pi * c / (mp.mpf(lambda_p) / 10**6)      # rad/s
        d2 = (3 * mp.pi * eps0 * hbar * c**3 * mp.mpf(Gamma21) * 10**6
              / omega**3)                                         # (C m)^2
        return float(mp.mpf(Na) * 10**18 * d2 / (eps0 * hbar) / 10**6)


def test_chi_prefactor_matches_the_si_formula(atom, rng):
    # the closed form K = 3 Na lambda^3 Gamma21 / (8 pi^2) against the SI
    # route through eps0, hbar and c, at the canonical atom and at random
    atoms = [atom] + [
        replace(atom, Na=10 ** rng.uniform(-6, 3),
                Gamma21=TWO_PI * 10 ** rng.uniform(-2, 2),
                lambda_p=10 ** rng.uniform(-1, 1)) for _ in range(50)]
    for a in atoms:
        assert a.chi_prefactor == pytest.approx(
            _si_chi_prefactor(a.Na, a.Gamma21, a.lambda_p), rel=1e-14)


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
    # a negative rate (a medium with gain) or gamma21 = 0 is refused, as
    # is a decay rate Gamma21 or a wavelength that is not positive
    for bad in ({"coh21": 0.0}, {"coh21": -1.0}, {"coh31": -0.5},
                {"coh32": -3.0}, {"Gamma21": 0.0}, {"Gamma21": -1.0},
                {"lambda_p": 0.0}, {"lambda_p": -0.78}):
        with pytest.raises(DomainError, match=next(iter(bad))):
            replace(atom, **bad)
    assert replace(atom, coh31=0.0, coh32=0.0).gamma32 == 0.0


@settings(max_examples=30, deadline=None)
@given(na=st.floats(0.0, 0.4), gamma21=st.floats(0.5, 30.0),
       d2=st.floats(-10, 10))
def test_replace_matches_a_fresh_atom(na, gamma21, d2):
    # only inputs are stored, so a replaced input carries everything
    # derived from it: K and the coherence rates
    base = canonical_atom()
    inputs = {"Gamma21": base.Gamma21, "Gamma32": base.Gamma32,
              "C6": base.C6, "Na": base.Na, "lambda_p": base.lambda_p}
    drv = canonical_drive(TWO_PI * np.array([d2, 0.5]))
    for change in ({"Na": na}, {"Gamma21": TWO_PI * gamma21}):
        got = susceptibility(drv, replace(base, **change))
        want = susceptibility(drv, AtomParams(**{**inputs, **change}))
        np.testing.assert_array_equal(_parts(got), _parts(want))
        assert _texts(got.errors) == _texts(want.errors)


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
def test_second_order_onebody_residual_property(d2, dc, oc):
    # rho^(2) solves the one-body equations A4 y = (0, -rho13, rho31,
    # rho21 - rho12), y = (rho33, rho23, rho32, rho22)^(2), to rounding
    atom = canonical_atom()
    drv = DriveParams(Omega_p=0.0, Omega_c=TWO_PI * oc, Delta2=TWO_PI * d2,
                      Delta_c=TWO_PI * dc)
    p, A4 = response_parts(drv, atom), quantum._systems(drv, atom)
    y = [p.rho33_2, np.conj(p.rho32_2), p.rho32_2, p.rho22_2]
    r21, r31 = p.rho21_1, p.rho31_1
    residual = A4 @ y - [0, -np.conj(r31), r31, r21 - np.conj(r21)]
    assert (np.linalg.norm(residual) / np.linalg.norm(A4)
            / np.linalg.norm(y)) <= 1e-12


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

def test_shell_integral_zero_cases(atom, drive0):
    assert response_parts(drive0, replace(atom, C6=0.0)).shell_integral == 0
    assert response_parts(drive0, replace(atom, Na=0.0)).shell_integral == 0
    no_coupling = DriveParams(drive0.Omega_p, 0.0, drive0.Delta2,
                              drive0.Delta_c)
    assert response_parts(no_coupling, atom).shell_integral == 0


def test_shell_integral_linear_density_prefactor(atom, drive0):
    i1 = response_parts(drive0, atom).shell_integral
    i2 = response_parts(drive0, replace(atom, Na=2 * atom.Na)).shell_integral
    assert i2 == pytest.approx(2 * i1, rel=1e-12)


def test_shell_integral_vs_trapezoid_reference(atom, drive0):
    from rydshe.oracle import trapezoid_nonlocal_integral
    i_gl = response_parts(drive0, atom).shell_integral
    i_tr = trapezoid_nonlocal_integral(drive0, atom)
    assert abs(i_gl - i_tr) / abs(i_tr) < 1e-6


def _mp_onebody(drv, atom):
    """(d21, d31, A4, rho21, rho31, u) in mpmath at its working precision:
    the denominators, the one-atom 4x4 A4, rho^(1), and u = (rho11,
    rho22, rho33, rho32, rho23)^(2) solved from the 5x5 with the trace
    row above -A4 (rows 33, 22, 32, 23; columns 22, 33, 32, 23), a form
    production does not use."""
    import mpmath as mp
    f = mp.mpf
    Oc, G21, G32 = map(f, (drv.Omega_c, atom.Gamma21, atom.Gamma32))
    d21 = mp.mpc(drv.Delta2, atom.gamma21)
    d31 = mp.mpc(f(drv.Delta2) + f(drv.Delta_c), atom.gamma31)
    d32 = mp.mpc(drv.Delta_c, atom.gamma32)
    r21, r31 = -d31 / (d21 * d31 - Oc**2), Oc / (d21 * d31 - Oc**2)
    A4 = [[1j * G32, Oc, -Oc, 0], [Oc, -mp.conj(d32), 0, -Oc],
          [-Oc, 0, d32, Oc], [-1j * G32, -Oc, Oc, 1j * G21]]
    A = [[1, 1, 1, 0, 0]] + [[0] + [-A4[r][c] for c in (3, 0, 2, 1)]
                             for r in (0, 3, 2, 1)]
    u = mp.lu_solve(mp.matrix(A), mp.matrix(
        [0, 0, mp.conj(r21) - r21, -r31, mp.conj(r31)]))
    return d21, d31, A4, r21, r31, u


_FAR_ATOMS = {"canonical": {}, "Gamma32=0": {"Gamma32": 0.0},
              "coherences": {"coh21": TWO_PI * 2.0, "coh31": TWO_PI * 0.3,
                             "coh32": TWO_PI * 4.0}}


@pytest.mark.parametrize("medium", list(_FAR_ATOMS))
def test_second_order_matches_a_40_digit_solve(atom, medium):
    # rho^(2) = P + G P keeps the digits of the pure state P far from
    # resonance; a solve for rho^(2) itself lost them as Delta2^2 (rho33
    # was off by 1.9e-7 at 100 GHz).  Worst here: about 4e-13, rho33 at
    # 1 THz on the canonical atom
    import mpmath as mp
    atom = replace(atom, Na=0.0, **_FAR_ATOMS[medium])
    for mhz in (0.0, 3.0, -3.0, 1e3, 1e5, 1e6):
        drv = canonical_drive(TWO_PI * mhz)
        p = response_parts(drv, atom)
        with mp.workdps(40):
            _, r22, r33, r32, _ = map(complex, _mp_onebody(drv, atom)[-1])
        for got, want in ((p.rho22_2, r22), (p.rho33_2, r33),
                          (p.rho32_2, r32)):
            assert abs(got - want) <= 1e-12 * abs(want), (mhz, got, want)


def _mp_shell_integral(drv, atom, upper_factor=3.0):
    """The shell integral I at 30 digits: mp.quad over u of rr33_31^(3)
    from the pair 4x4 and the 8x8 solved directly at V = C6 u^2, with
    rho^(1), rho^(2) and the mixed correlators zA in mpmath too."""
    import mpmath as mp
    from rydshe.oracle import _PAIR_ROWS, _kron_sum
    with mp.workdps(30):
        f, solve = mp.mpf, mp.lu_solve
        Oc, C6 = f(drv.Omega_c), f(atom.C6)
        d21, d31, A4, r21, r31, u = _mp_onebody(drv, atom)
        _, r22, r33, r32, _ = u
        B = [[d31, Oc], [Oc, d21]]
        pair = [(0, 0), (1, 0), (1, 1), (0, 1)]
        zA = solve(mp.matrix(_kron_sum([[-mp.conj(z) for z in row]
                                        for row in B], B, pair)),
                   mp.matrix([0, r31, r21 - mp.conj(r21), -mp.conj(r31)]))
        MB = mp.matrix(_kron_sum(B, B, pair))
        Q = mp.matrix(_kron_sum(A4, B, [(0, 0), (1, 0), (2, 0), (0, 1),
                                        (3, 0), (1, 1), (2, 1), (3, 1)]))

        def rr33_31(u):
            V, MBV, QV = C6 * u**2, MB.copy(), Q.copy()
            MBV[0, 0] -= V
            QV[0, 0] -= V
            QV[2, 2] -= V
            zB = solve(MBV, mp.matrix([0, -r31, -2 * r21, -r31]))
            q = [0, -zA[0], 0, -r33, -zA[1], -mp.conj(r32) - zA[3], -r32,
                 -r22 - zA[2]]
            for row, z in zip(_PAIR_ROWS, zB):
                q[row] += z
            return solve(QV, mp.matrix(q))[0]
        Rb = (abs(C6) * f(atom.gamma21) / Oc**2) ** (f(1) / 6)
        integral = mp.quad(rr33_31, [(upper_factor * Rb) ** -3, Rb**-3])
        return complex(f(atom.Na) * 4 * mp.pi * C6 / 3 * integral)


@pytest.mark.parametrize("mhz, medium, tol", [
    (0.0, "canonical", 1e-14), (3.3, "canonical", 1e-14),
    (3.3, "C6<0", 1e-14), (-3e3, "canonical", 1e-12),
    (3e3, "canonical", 1e-12), (-7e3, "canonical", 1e-12),
    (7e3, "canonical", 1e-12), (-8e3, "canonical", 1e-12),
    (8e3, "canonical", 1e-12), (3e4, "canonical", 1e-11),
    (1e5, "canonical", 1e-11), (1e6, "canonical", 1e-10)])
def test_shell_integral_matches_a_30_digit_reference(atom, mhz, medium, tol):
    # near resonance the closed form is good to rounding; far from it
    # the two poles of S approach each other relative to their size
    # (46.6 rad/us apart at |V| ~ Delta2), so the residues lose digits as
    # Delta2: 2e-14 at 3 GHz, 3e-13 at 7 and 8 GHz, 2e-12 at 30 GHz and
    # 2e-11 at 1 THz
    atom = _medium(atom, medium)
    drv = canonical_drive(TWO_PI * mhz)
    want = _mp_shell_integral(drv, atom)
    got = response_parts(drv, atom).shell_integral
    assert abs(got - want) / abs(want) <= tol


def test_shell_integral_node_doubling(atom, drive0):
    # the oracle rule is converged, and the closed form sits on it
    i64 = gauss_legendre_nonlocal_integral(drive0, atom, n_nodes=64)
    i128 = gauss_legendre_nonlocal_integral(drive0, atom, n_nodes=128)
    assert abs(i128 - i64) / abs(i128) < 1e-8
    i_cf = response_parts(drive0, atom).shell_integral
    assert abs(i_cf - i128) / abs(i128) < 1e-12


def _hierarchy_args(drv, atom):
    """The arguments production passes `_hierarchy` and
    `_correlator_poles`, for the scalar detuning of drv."""
    d21, d31 = _denominators(replace(drv, Delta2=np.array([drv.Delta2])),
                             atom)
    p = response_parts(drv, replace(atom, Na=0.0))
    D = d21 * d31 - drv.Omega_c**2
    return (quantum._systems(drv, atom), d21, d31, D, drv.Omega_c,
            np.array([p.rho31_1]), tuple(np.array([r]) for r in (
                p.rho11_2, p.rho22_2, p.rho33_2, p.rho32_2)))


def test_partial_fractions_reproduce_correlator(atom):
    # the poles and residues as production finds them, from closed forms
    # and the block 4x4; the oracle solves the pair 4x4 and the 8x8 with
    # V on their diagonals
    drv = canonical_drive(TWO_PI * 1.3)
    poles, res, errors = _correlator_poles(*_hierarchy_args(drv, atom))
    assert not errors
    poles, res = poles[0], res[0]
    V = np.concatenate([
        [0.0, 1.0 + 1.0j, 1e3 + 5j, -2e3 + 300j, 1e5j],
        poles * (1 + 1e-2j), poles * (1 - 1e-2), poles * (1 + 1e-3)])
    direct = twobody_correlators(drv, atom, V)[1][:, 0]
    pf = np.sum(res / (V[:, None] - poles), axis=1)
    assert np.max(np.abs(pf - direct) / np.abs(direct)) < 1e-12


def _direct_hierarchy(drv, atom):
    """zB0, w, S, a and b from the oracle's pair 4x4 and 8x8 at V = 0,
    built at the detuning and solved as they stand."""
    from rydshe.oracle import _PAIR_ROWS, _kron_sum
    (d21, d31), Oc = _denominators(drv, atom), drv.Omega_c
    B, A4 = [[d31, Oc], [Oc, d21]], quantum._systems(drv, atom)
    MB = np.array(_kron_sum(B, B, [(0, 0), (1, 0), (1, 1), (0, 1)]))
    Q = np.array(_kron_sum(A4, B, [(0, 0), (1, 0), (2, 0), (0, 1), (3, 0),
                                   (1, 1), (2, 1), (3, 1)]))
    zB0, x3 = (z[0] for z in twobody_correlators(drv, atom, [0.0]))
    w = np.linalg.solve(MB, np.eye(4)[0])
    rhs = np.zeros((8, 3), dtype=complex)
    rhs[[0, 2], [0, 1]] = 1
    rhs[_PAIR_ROWS, 2] = w * zB0[4]
    X = np.linalg.solve(Q, rhs)[[0, 2]]
    return zB0[4:], w, X[:, :2], x3[[0, 2]], X[:, 2]


def _hierarchy_cases(rng):
    """(drive, atom) over random drives and atoms: Gamma32 = 0, C6 < 0,
    coherence overrides, and the Delta_c = 0 drive at which B is
    defective at every Delta2, Omega_c = (gamma21 - gamma31)/2."""
    base = canonical_atom()
    yield canonical_drive(TWO_PI * 1.3), replace(base, Gamma32=0.0)
    for d2 in TWO_PI * np.array([-4.0, 0.0, 0.7]):
        yield (DriveParams(TWO_PI * 0.75, (base.gamma21 - base.gamma31) / 2,
                           d2, 0.0), base)
    for _ in range(60):
        atom = replace(base, C6=rng.choice([-1, 1]) * base.C6,
                       Gamma32=rng.choice([0.0, TWO_PI * rng.uniform(0, 1)]),
                       coh21=rng.choice([None, TWO_PI * rng.uniform(0.1, 10)]),
                       coh31=rng.choice([None, TWO_PI * rng.uniform(0, 1)]),
                       coh32=rng.choice([None, TWO_PI * rng.uniform(0, 10)]))
        yield DriveParams(TWO_PI * 0.75, TWO_PI * rng.uniform(0.5, 8),
                          TWO_PI * rng.uniform(-10, 10),
                          TWO_PI * rng.uniform(-1, 1)), atom


def test_hierarchy_closed_forms_match_the_direct_solves(rng):
    # zB0 = rho^(1) (x) rho^(1), w and beta = w_0 against the pair 4x4 at
    # V = 0; S, a and b against rows 0 and 2 of the 8x8, each to 1e-13 of
    # its largest entry
    assert (canonical_atom().gamma21 - canonical_atom().gamma31) / 2 == (
        pytest.approx(TWO_PI * 1.49925, rel=1e-15))
    worst = 0.0
    for drv, atom in _hierarchy_cases(rng):
        w, a, S, b, errors = quantum._hierarchy(*_hierarchy_args(drv, atom))
        assert not errors
        p = response_parts(drv, replace(atom, Na=0.0))
        r31, r21 = p.rho31_1, p.rho21_1
        zB0 = np.array([r31 * r31, r21 * r31, r21 * r21, r31 * r21])
        direct = _direct_hierarchy(drv, atom)
        beta = abs(w[0, 0] - direct[1][0]) / abs(direct[1][0])
        worst = max(worst, beta, *(
            np.max(np.abs(got - want)) / np.max(np.abs(want))
            for got, want in zip((zB0, w[0], S[0], a[0], b[0]), direct)))
    assert worst < 1e-13


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
                      [twin, twin * (1 + 1e-9)], clear])
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
    lam = np.array([[0.1 + 0.2j, (0.1 + 0.2j) * (1 + 1e-9)]])
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


@pytest.mark.parametrize("label", ["second-order one-body (4x4)",
                                   "third-order two-body (block 4x4)"])
def test_solve_failure_names_the_detuning(atom, monkeypatch, label):
    # a failure injected into a solve names the detuning in a scalar
    # call; in an array call it lands on its own detuning for the block
    # 4x4, batched over the detunings, and on every detuning for the
    # one-body 4x4, one solve shared by them all
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
    failed = range(7) if "one-body" in label else [4]
    at[:] = [0] if "one-body" in label else [4]
    b = susceptibility(replace(drv, Delta2=D2), atom)
    assert sorted(b.errors) == list(failed)
    for i in failed:
        assert str(b.errors[i]) == (f"singular matrix in {label}: injected "
                                    f"at Delta2 = {D2[i]:g} rad/us")
    parts = _parts(b)
    assert np.all(np.isnan(parts[:, failed]))
    assert np.all(np.isfinite(np.delete(parts, failed, axis=1)))


def test_susceptibility_solve_count(atom, monkeypatch):
    # one pass per call, whatever the number of detunings: the one-body
    # 4x4 (shared by the local and nonlocal terms) does not depend on the
    # detuning and is solved once, a batch of one; the block 4x4 of the
    # third-order hierarchy is one batched solve over the n detunings; the
    # pair 4x4 and the 8x8 are not solved; no node axis.  The
    # denominators are made once, over the detunings.
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
            [((1, 4, 4), 1), ((n, 4, 4), n)], key=str)
        assert sorted(factorized, key=str) == sorted([(1, 4, 4), (n, 4, 4)],
                                                     key=str)
        assert len(made) == 1
        assert np.array_equal(made[0], np.atleast_1d(D2))


def _parts(b):
    """The parts of a SusceptibilityBreakdown or ResponseParts, as rows."""
    return np.array([getattr(b, f.name) for f in fields(b)
                     if f.name != "errors"])


def _texts(errors):
    """{i: message} of an {i: error} map."""
    return {i: str(e) for i, e in errors.items()}


def test_array_call_reports_each_failure_at_its_detuning(atom, monkeypatch):
    # a wider pole clearance fails some detunings and not others, one
    # detuning is poisoned and one is past the float range; for
    # susceptibility and for the reader of the named parts alike, each
    # failure is the error a scalar call at that detuning raises, its
    # parts are nan, and the rest are the scalar values bit for bit
    from rydshe import RydsheError
    monkeypatch.setattr(quantum, "POLE_CLEARANCE", 0.25)
    D2 = TWO_PI * np.linspace(-10, 10, 41)
    D2[7], D2[30] = math.nan, 1e155
    for reader in (susceptibility, response_parts):
        b = reader(canonical_drive(D2), atom)
        parts = _parts(b)
        failed = []
        for i, d2 in enumerate(D2):
            try:
                one = _parts(reader(canonical_drive(d2), atom))
            except RydsheError as exc:
                failed.append(i)
                assert type(b.errors[i]) is type(exc)
                assert str(b.errors[i]) == str(exc)
                assert np.all(np.isnan(parts[:, i]))
            else:
                assert i not in b.errors
                assert np.array_equal(parts[:, i], one)
        assert sorted(b.errors) == failed
        # nan fails the block 4x4 solve, the pole check and the
        # finite-part check: the earliest check's error is reported
        assert str(b.errors[7]) == ("non-finite entries entering the "
                                    "third-order two-body (block 4x4) solve")
        assert type(b.errors[30]) is DomainError
        assert 1 < len(failed) < len(D2) - 1
        assert any(re.search(r"at Delta2 = \S+ rad/us$", str(e))
                   for e in b.errors.values())


def test_eit_denominator_vanishes_at_two_photon_resonance(atom):
    # Omega_c = 0 and gamma31 = 0 make D = d21 d31 exactly 0 at
    # Delta2 = -Delta_c: a scalar call raises it, an array call fails
    # that detuning alone
    dark = replace(atom, coh31=0.0)
    drive = replace(canonical_drive(0.0), Omega_c=0.0)
    with pytest.raises(SingularityError) as exc:
        susceptibility(replace(drive, Delta2=-drive.Delta_c), dark)
    assert str(exc.value) == ("EIT denominator vanishes at "
                              "Delta2 = 0.628319 rad/us")
    D2 = np.array([-1.0, -drive.Delta_c, 1.0])
    b = susceptibility(replace(drive, Delta2=D2), dark)
    assert _texts(b.errors) == {1: str(exc.value)}
    parts = _parts(b)
    assert np.isnan(parts[:, 1]).all() and np.isfinite(parts[:, [0, 2]]).all()


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
    assert not b.errors
    K = atom.chi_prefactor
    for i, d2 in enumerate(D2):
        drv = canonical_drive(d2)
        Op2, Oc = drv.Omega_p**2, drv.Omega_c
        d21, d31 = _denominators(drv, atom)
        i_gl = gauss_legendre_nonlocal_integral(drv, atom, n_nodes=128)
        want = K * Op2 * Oc * i_gl / (Oc**2 - d21 * d31)
        got = b.chi3_nonlocal_contrib[i]
        assert abs(got - want) / abs(want) < 1e-12
        p = response_parts(drv, atom)
        r21, local = p.rho21_1, p.rho21_3_local
        assert b.chi1[i] == pytest.approx(K * r21, rel=1e-14)
        assert b.chi3_local_contrib[i] == pytest.approx(K * Op2 * local,
                                                       rel=1e-14)


def test_systems_do_not_depend_on_the_detuning(atom):
    # A4 holds d32 = Delta_c + i gamma32 and no d21 or d31: built at two
    # detunings, and at an array of them, it is the same bit for bit
    at = [quantum._systems(canonical_drive(D2), atom)
          for D2 in (TWO_PI * -3.7, TWO_PI * 6.1, TWO_PI * np.arange(3.0))]
    assert at[0].shape == (4, 4)
    for other in at[1:]:
        assert np.array_equal(at[0], other)


@pytest.mark.parametrize("medium", ["canonical", "Gamma32=0", "C6<0"])
def test_chi_matches_per_detuning_assembly(atom, medium):
    # production builds the systems once and shifts them to each of 201
    # detunings; the reference builds every matrix from each detuning's
    # own denominators: the 5x5 for rho^(2), solved at 30 digits, for the
    # local term, and the oracle's directly solved correlators, by
    # 128-node quadrature, for the nonlocal one.  (A float 4x4 solve for
    # rho^(2) misses the local term by 1.2e-13 at 0.1 MHz.)
    import mpmath as mp
    atom = _medium(atom, medium)
    D2 = TWO_PI * np.linspace(-10, 10, 201)
    b = susceptibility(canonical_drive(D2), atom)
    assert not b.errors
    K = atom.chi_prefactor
    worst = 0.0
    for i, d2 in enumerate(D2):
        drv = canonical_drive(d2)
        Op2, Oc = drv.Omega_p**2, drv.Omega_c
        d21, d31 = _denominators(drv, atom)
        p = response_parts(drv, atom)
        r21 = p.rho21_1
        with mp.workdps(30):
            r11, r22, _, r32, _ = map(complex, _mp_onebody(drv, atom)[-1])
        den = Oc**2 - d21 * d31
        local = -(d31 * (r22 - r11) - Oc * r32) / den
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

def test_third_order_parts_limits(atom, drive0):
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
    # a zero density (every part) or probe (the third-order parts) times
    # a negative part is 0, not -0
    D2 = TWO_PI * np.linspace(-10, 10, 21)
    dilute = _parts(susceptibility(canonical_drive(D2), replace(atom, Na=0.0)))
    dark = _parts(susceptibility(replace(canonical_drive(D2), Omega_p=0.0),
                                 atom))[1:]
    for parts in (dilute, dark):
        assert (parts == 0).all() and not np.signbit(parts.view(float)).any()


@pytest.mark.filterwarnings("error")
def test_detuning_past_the_float_range_fails_by_name(atom):
    # a probe or coupling detuning past 1e150 rad/us would take the pair
    # energies' squares out of the float range: a DomainError naming it,
    # and no numpy warning
    for d2 in (1e155, -1e300, math.inf):
        with pytest.raises(DomainError, match=re.escape(
                f"Delta2 = {d2:g} rad/us is outside the float "
                f"range (|Delta2| <= 1e+150)")):
            susceptibility(canonical_drive(d2), atom)
    b = response_parts(canonical_drive(np.array([0.0, 1e155, -math.inf])),
                       atom)
    assert {i: type(e) for i, e in b.errors.items()} == {1: DomainError,
                                                         2: DomainError}
    assert np.isnan(_parts(b)[:, 1:]).all()
    with pytest.raises(DomainError, match=re.escape(
            "Delta_c = 1e+153 rad/us is outside the float range "
            "(|Delta_c| <= 1e+150)")):
        replace(canonical_drive(0.0), Delta_c=1e153)
    # at the limit the solves still run, unwarned
    edge = replace(canonical_drive(np.array([1e150, -1e150, 0.0])),
                   Delta_c=1e150)
    assert not any(isinstance(e, DomainError)
                   for e in susceptibility(edge, atom).errors.values())


@pytest.mark.filterwarnings("error")
def test_susceptibility_past_the_float_range_fails_by_name(atom):
    # K (the wavelength), Na^2 or Omega_p^2 past the float range gives a
    # typed error naming the non-finite parts; their total stays nan,
    # unwarned, and no OverflowError or ZeroDivisionError is raised
    D2 = TWO_PI * np.array([-1.0, 0.5])
    for lam in (1e110, 1e125, 1e300):
        far = replace(atom, lambda_p=lam)
        b = susceptibility(canonical_drive(D2), far)
        assert _texts(b.errors) == dict.fromkeys(range(2), "non-finite chi1 "
            "and chi3_local_contrib and chi3_nonlocal_contrib")
        assert np.isnan(b.total).all()
        with pytest.raises(PropagationError, match="non-finite chi1 "):
            susceptibility(canonical_drive(0.0), far)
    # K scales as Na, the nonlocal part as Na^2: only that part leaves
    dense = replace(atom, Na=1e300)
    b = susceptibility(canonical_drive(D2), dense)
    assert _texts(b.errors) == dict.fromkeys(
        range(2), "non-finite chi3_nonlocal_contrib")
    assert np.isnan(b.total).all()
    with pytest.raises(PropagationError, match="non-finite chi3_nonlocal"):
        susceptibility(canonical_drive(0.0), dense)
    strong = replace(canonical_drive(D2), Omega_p=1e300)
    assert _texts(susceptibility(strong, atom).errors) == dict.fromkeys(
        range(2), "non-finite chi3_local_contrib and chi3_nonlocal_contrib")
    # the named parts hold no K: a denser gas takes I past the range
    denser = replace(atom, Na=1e306)
    assert _texts(response_parts(canonical_drive(D2), denser).errors
                  ) == dict.fromkeys(
        range(2), "non-finite shell_integral and rho21_3_nonlocal")


def test_coupling_past_the_float_range_is_a_domain_error(atom):
    # Omega_c^2 overflows: no OverflowError, a zero blockade radius refused
    drv = replace(canonical_drive(0.0), Omega_c=1e160)
    with pytest.raises(DomainError, match="R_b in float range"):
        susceptibility(drv, atom)
    with pytest.raises(DomainError, match="R_b in float range"):
        atom.blockade_radius(1e160)
    # Omega_c^2 underflows, to a subnormal or to 0: no ZeroDivisionError,
    # an infinite blockade radius refused alike
    for oc in (1e-160, 1e-170, 1e-300):
        with pytest.raises(DomainError, match=re.escape(
                "need C6 != 0 and R_b in float range: inf um")):
            susceptibility(replace(drv, Omega_c=oc), atom)
        with pytest.raises(DomainError, match="R_b in float range: inf"):
            atom.blockade_radius(oc)


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
    d32 = drv.Delta_c + 1j * atom.gamma32
    r31 = p.rho31_1
    lhs = np.conj(d32 * r32) - drv.Omega_c * (r33 - r22)
    assert lhs == pytest.approx(np.conj(r31), rel=1e-10)


@pytest.mark.filterwarnings("error")
def test_oracle_refuses_a_detuning_past_the_float_range(atom):
    # the oracle's rho^(1) and rho^(2) come through the production range
    # check: the error susceptibility raises, with no numpy warning
    for d2 in (1e155, -math.inf):
        with pytest.raises(DomainError, match=re.escape(
                f"Delta2 = {d2:g} rad/us is outside the float range")):
            twobody_correlators(canonical_drive(d2), atom, [1.0])


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


@pytest.mark.parametrize("one", [False, True], ids=["batched", "one"])
def test_solve_verdict_holds_at_extreme_scales(one, monkeypatch):
    # at scales 1e-200 and 1e200, with A scaled alone or with b, each
    # verdict and message equals the one at scale 1: a well-conditioned
    # and a nearly singular system pass, and a spoiled well-conditioned
    # solve fails with the same residual.  The right-hand sides are three
    # systems of a batch, or the columns of a batch of one
    from rydshe.quantum import _solve_checked
    rng = np.random.default_rng(13)
    good = 4 * np.eye(4) + rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    near = good.copy()
    near[:, 3] = near[:, 2] + 1e-9 * rng.normal(size=4)
    assert np.linalg.cond(near) > 1e9
    b = rng.normal(size=(3, 4, 1)) + 0j
    if one:
        b = b.transpose(2, 1, 0)

    def verdicts(A, b):
        x, errors = _solve_checked(np.repeat(A[None], len(b), axis=0), b,
                                   "test scaled")
        return {i: str(e) for i, e in errors.items()}
    solve = np.linalg.solve
    for A, spoil, failed in ((good, 1, []), (near, 1, []),
                             (good, 1 + 1e-6, list(range(len(b))))):
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, rhs: solve(a, rhs) * spoil)
        at_one = verdicts(A, b)
        assert sorted(at_one) == failed
        for s in (1e-200, 1.0, 1e200):
            assert verdicts(A * s, b) == at_one, (spoil, s)
            assert verdicts(A * s, b * s) == at_one, (spoil, s)
