import math
from dataclasses import replace

import numpy as np
import pytest

from rydshe import (DriveParams, response_parts, canonical_atom,
                    canonical_drive)
from rydshe.config import TWO_PI
from rydshe.oracle import (density_matrix_defects,
                           full_local_bloch_steady_state,
                           perturbative_rho21_local,
                           trapezoid_nonlocal_integral, verify_suite)


def test_ground_state_without_fields(atom):
    drv = DriveParams(Omega_p=0.0, Omega_c=0.0, Delta2=0.0, Delta_c=0.0)
    rho = full_local_bloch_steady_state(drv, atom)
    herm, trace, neg = density_matrix_defects(rho)
    assert herm <= 1e-12 and trace <= 1e-12 and neg <= 1e-10
    assert np.allclose(rho, np.diag([1.0, 0.0, 0.0]), atol=1e-14)


def test_two_level_linear_response(atom):
    drv = DriveParams(Omega_p=TWO_PI * 0.01, Omega_c=0.0,
                      Delta2=TWO_PI * 2.0, Delta_c=0.0)
    rho = full_local_bloch_steady_state(drv, atom)
    d21 = drv.Delta2 + 1j * atom.gamma21
    assert rho[1, 0] == pytest.approx(-drv.Omega_p / d21, rel=2e-4)


def test_steady_state_invariants_random(atom, rng):
    for _ in range(200):
        drv = DriveParams(Omega_p=TWO_PI * rng.uniform(0, 2),
                          Omega_c=TWO_PI * rng.uniform(0, 8),
                          Delta2=TWO_PI * rng.uniform(-10, 10),
                          Delta_c=TWO_PI * rng.uniform(-1, 1))
        rho = full_local_bloch_steady_state(drv, atom)
        herm, trace, neg = density_matrix_defects(rho)
        assert herm <= 1e-12 and trace <= 1e-12 and neg <= 1e-10


def test_perturbative_certification(atom):
    # < 1% pointwise at Omega_p/2pi = 0.1 MHz across the canonical scan,
    # and the worst deviation grows monotonically with the probe power
    worsts = []
    for op_mhz in (0.1, 0.2, 0.4):
        worst = 0.0
        for d2 in TWO_PI * np.linspace(-10, 10, 81):
            drv = DriveParams(TWO_PI * op_mhz, TWO_PI * 4.0, d2, -TWO_PI * 0.1)
            o = full_local_bloch_steady_state(drv, atom)[1, 0]
            p = perturbative_rho21_local(drv, atom)
            worst = max(worst, abs(p - o) / abs(o))
        worsts.append(worst)
    assert worsts[0] < 0.01
    assert worsts[0] < worsts[1] < worsts[2]


def test_shell_cutoff_3_to_5_rb_is_bounded(atom, drive0):
    # truncating at 3 R_b instead of 5 R_b is a small, bounded change
    i3 = response_parts(drive0, atom, upper_factor=3.0).shell_integral
    i5 = response_parts(drive0, atom, upper_factor=5.0).shell_integral
    assert abs(i5 - i3) / abs(i3) < 0.2


def test_pure_kernel_upper_limit_ratio(atom, drive0):
    # with the correlator frozen to 1 the shell integral is analytic:
    # extending 3Rb -> 5Rb multiplies int s^2 V ds by
    # (1 - 5^-3) / (1 - 3^-3)
    rb = atom.blockade_radius(drive0.Omega_c)

    def kernel_only(upper):
        s = np.linspace(rb, upper * rb, 20001)
        return np.trapezoid(s**2 * atom.C6 / s**6, s)

    got = kernel_only(5.0) / kernel_only(3.0)
    want = (1 - 5.0**-3) / (1 - 3.0**-3)
    assert got == pytest.approx(want, rel=1e-6)


def test_trapezoid_reference_null_kernel(atom, drive0):
    no_vdw = replace(atom, C6=0.0)
    assert trapezoid_nonlocal_integral(drive0, no_vdw) == 0


@pytest.mark.parametrize("limit", ["C6 = 0", "Na = 0", "Omega_c = 0"])
def test_references_agree_with_production_at_zero(atom, drive0, limit):
    # the shell integral vanishes exactly, in production and in both
    # quadrature references
    from rydshe.oracle import gauss_legendre_nonlocal_integral
    drive = drive0
    if limit == "C6 = 0":
        atom = replace(atom, C6=0.0)
    elif limit == "Na = 0":
        atom = replace(atom, Na=0.0)
    else:
        drive = DriveParams(drive0.Omega_p, 0.0, drive0.Delta2,
                            drive0.Delta_c)
    values = [response_parts(drive, atom).shell_integral,
              gauss_legendre_nonlocal_integral(drive, atom),
              trapezoid_nonlocal_integral(drive, atom)]
    for v in values:
        assert v == 0
        assert math.copysign(1, v.real) == math.copysign(1, v.imag) == 1


def test_verify_suite_all_pass():
    results = verify_suite()
    names = {r.check_name for r in results}
    assert {"perturbative_vs_oracle_rho21", "nonlocal_na_squared_scaling",
            "airy_equivalence", "mirror_antisymmetry"} <= names
    failures = [r for r in results if r.status != "pass"]
    assert not failures, f"failed checks: {[(r.check_name, r.measured) for r in failures]}"
    for r in results:
        assert math.isfinite(r.measured)
        assert r.runtime_ms >= 0
