"""Independent brute-force references used to certify the fast paths.

The main physics modules are validated against four kinds of oracle:

* the full (all orders in Omega_p) steady state of the local three-level
  Bloch equations, solved as a 9x9 linear system with the trace row --
  this pins every sign convention of the perturbative expansion;
* the two-body correlators solved directly at given pair energies
  (`twobody_correlators`: the two-body matrices built here, at the
  detuning, with V on their diagonals, batched over V), checking the
  closed forms of `quantum._hierarchy`, and Gauss-Legendre and
  dense-trapezoid quadrature of the nonlocal shell integral over them,
  checking its closed form;
* closed-form optics identities (two-interface Airy summation, energy
  conservation) exercised in the tests, and the scan for the |r_p|
  minimum (`brewster_angle`) that the acceptance tests read;
* angular-spectrum synthesis of the reflected beam: the spin spectra are
  inverse-transformed by direct quadrature on an explicit y grid and the
  centroids and powers are summed numerically -- the reference for the
  closed-form beam stage.  The phase matrix is built afresh per call and
  shared by every (rp, rs) pair the call synthesizes.

`verify_suite` bundles the cheap machine-checkable invariants into one
report for the CLI `verify` subcommand.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, SearchError, SingularityError, WindowError
from . import quantum
from .quantum import (SHELL_END, AtomParams, DriveParams, response_parts,
                      susceptibility)
from .multilayer import Layer, LayerStack, stack_fresnel
from .beam_shift import (THETA_DOMAIN, BeamSpec, ShiftResult,
                         shifts_from_coefficients, spin_mixing_amplitude)
from .config import TWO_PI, canonical_atom, canonical_drive

# y-window half-width and sampling of the synthesis, in units of w0
_Y_HALFWIDTH_W0 = 8.0
_Y_POINTS = 2049

_ALIAS_POWER_TOL = 1e-6
_ALIAS_EDGE_FRACTION = 0.05


def density_matrix_defects(rho: np.ndarray) -> tuple[float, float, float]:
    """How far rho is from a density matrix: (max |rho - rho^H|,
    |tr rho - 1|, minus the least eigenvalue of the Hermitian part).  The
    last is the most negative population where it is positive."""
    rho_h = rho.conj().T
    return (float(np.max(np.abs(rho - rho_h))), float(abs(np.trace(rho) - 1)),
            -float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho_h)))))


def full_local_bloch_steady_state(drive: DriveParams, atom: AtomParams
                                  ) -> np.ndarray:
    """Nonperturbative 3x3 steady state of the local (C6 = 0) Bloch
    equations.

    Hamiltonian (rotating frame, hbar = 1):
        h = -Delta2 |2><2| - Delta3 |3><3|
            - (Omega_p |2><1| + Omega_c |3><2| + h.c.)
    with population flow 2->1 at Gamma21, 3->2 at Gamma32 and coherence
    damping at the atom's gamma_ab.  Solved as a direct linear system,
    not by time integration.
    """
    D2, D3 = drive.Delta2, drive.Delta3
    Op, Oc = drive.Omega_p, drive.Omega_c
    h = np.zeros((3, 3), dtype=complex)
    h[1, 1] = -D2
    h[2, 2] = -D3
    h[1, 0] = h[0, 1] = -Op
    h[2, 1] = h[1, 2] = -Oc
    gam = np.array([[0.0, atom.gamma21, atom.gamma31],
                    [atom.gamma21, 0.0, atom.gamma32],
                    [atom.gamma31, atom.gamma32, 0.0]])
    # d(vec rho)/dt = L vec rho over row-major vec rho, where
    # vec(h rho - rho h) = (h (x) 1 - 1 (x) h^T) vec rho
    one = np.eye(3)
    L = -1j * (np.kron(h, one) - np.kron(one, h.T)) - np.diag(gam.ravel())
    L[4, [4, 8]] += [-atom.Gamma21, atom.Gamma32]  # rho22: to 1, from 3
    L[8, 8] -= atom.Gamma32                        # rho33: to 2
    L[0, :] = 0.0
    L[0, [0, 4, 8]] = 1.0      # trace row replaces rho11's equation
    b = np.zeros(9, dtype=complex)
    b[0] = 1.0
    try:
        return np.linalg.solve(L, b).reshape(3, 3)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"singular Bloch steady state: {exc}") from exc


def perturbative_rho21_local(drive: DriveParams, atom: AtomParams) -> complex:
    """Omega_p rho21^(1) + Omega_p^3 rho21^(3,local)."""
    # Na = 0 skips the shell integral; both parts are Na-free
    p = response_parts(drive, replace(atom, Na=0.0))
    return drive.Omega_p * p.rho21_1 + drive.Omega_p**3 * p.rho21_3_local


def _kron_sum(X, Y, unknowns: list) -> list:
    """X (+) Y = X (x) I + I (x) Y over the unknowns (x, y) of X and Y."""
    return [[X[x][u] + Y[y][v] if (x, y) == (u, v) else X[x][u] if y == v
             else Y[y][v] if x == u else 0 for u, v in unknowns]
            for x, y in unknowns]


# rows of the 8x8 fed by the pair correlators (rr31_31, rr21_31, rr21_21,
# rr31_21)^(2), in that order
_PAIR_ROWS = [2, 4, 7, 6]


def twobody_correlators(drive: DriveParams, atom: AtomParams, V
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(z2, x3), each (n, 8): the two-body correlators at the scalar
    detuning of drive, solved directly at each of the n pair energies V
    (rad/us); a separation r is V = C6/r^6.

    z2 holds the O(Omega_p^2) (rr13_31, rr12_31, rr12_21, rr13_21, rr31_31,
    rr21_31, rr21_21, rr31_21), of which only the last four see V; x3 the
    O(Omega_p^3) (rr33_31, rr23_31, rr32_31, rr33_21, rr22_31, rr23_21,
    rr32_21, rr22_21), x3[:, 0] being rr33_31.  The matrices are built at
    this detuning from B = [[d31, Omega_c], [Omega_c, d21]] and A4 of
    `quantum._systems`: the mixed 4x4 -conj(B) (+) B, the pair 4x4
    B (+) B - V e0 e0^T and the 8x8 A4 (+) B - V (e0 e0^T + e2 e2^T),
    solved as batches over V.  rho^(1) and rho^(2) come from
    `response_parts`, which raises a bad detuning's error.
    """
    n, V = len(V), np.asarray(V)
    # rho^(1) and rho^(2) hold no Na, and Na = 0 skips the shell
    p = response_parts(drive, replace(atom, Na=0.0))
    r21, r31 = p.rho21_1, p.rho31_1
    r12, r13 = np.conj(r21), np.conj(r31)
    (d21, d31), Oc = quantum._denominators(drive, atom), drive.Omega_c
    B, A4 = [[d31, Oc], [Oc, d21]], quantum._systems(drive, atom)
    pair = [(0, 0), (1, 0), (1, 1), (0, 1)]
    zA = _checked(*quantum._solve_checked(
        np.array([_kron_sum(-np.conj(B), B, pair)]),
        np.array([[[0], [r31], [r21 - r12], [-r13]]]),
        "second-order two-body (mixed 4x4)"))[0, :, 0]
    zB = _checked(*quantum._solve_checked(
        np.array(_kron_sum(B, B, pair)) - V[:, None, None] * np.diag(
            [1, 0, 0, 0]),
        np.broadcast_to([[0], [-r31], [-2 * r21], [-r31]], (n, 4, 1)),
        "second-order two-body (pair 4x4)"))[..., 0]
    Q = (np.array(_kron_sum(A4, B, [(0, 0), (1, 0), (2, 0), (0, 1), (3, 0),
                                    (1, 1), (2, 1), (3, 1)]))
         - V[:, None, None] * np.diag([1, 0, 1, 0, 0, 0, 0, 0]))
    q = np.array([0, -zA[0], 0, -p.rho33_2, -zA[1],
                  -np.conj(p.rho32_2) - zA[3], -p.rho32_2,
                  -p.rho22_2 - zA[2]]) * np.ones((n, 1))
    q[:, _PAIR_ROWS] += zB
    x3 = _checked(*quantum._solve_checked(
        Q, q[..., None], "third-order two-body (8x8)"))[..., 0]
    return np.concatenate([np.broadcast_to(zA, (n, 4)), zB], axis=1), x3


def _checked(value, errors: dict):
    """value, unless an element of its batch (over V, or angles) failed:
    then the first failure's error, naming its batch index."""
    if errors:
        i = min(errors)
        raise type(errors[i])(f"{errors[i]} at batch index {i}") from errors[i]
    return value


def gauss_legendre_nonlocal_integral(
        drive: DriveParams, atom: AtomParams,
        n_nodes: int = quantum.DEFAULT_QUAD_NODES,
        upper_factor: float = SHELL_END) -> complex:
    """Reference for the closed-form shell integral: Gauss-Legendre
    quadrature in u = 1/s^3 (where s^2 V ds -> (C6/3) du) of
    `twobody_correlators`, one batched 8x8 solve per node.  0 when C6,
    Na or Omega_c is 0, as in production."""
    if atom.C6 == 0 or atom.Na == 0 or drive.Omega_c == 0:
        return 0.0 + 0.0j
    Rb = atom.blockade_radius(drive.Omega_c)
    u_hi, u_lo = Rb**-3, (upper_factor * Rb)**-3
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    u = 0.5 * (u_hi - u_lo) * x + 0.5 * (u_hi + u_lo)
    wu = 0.5 * (u_hi - u_lo) * w
    x1 = twobody_correlators(drive, atom, atom.C6 * u**2)[1][:, 0]
    return complex(atom.Na * 4.0 * np.pi * (atom.C6 / 3.0) * np.sum(wu * x1))


def trapezoid_nonlocal_integral(drive: DriveParams, atom: AtomParams
                                ) -> complex:
    """Brute-force reference for the shell integral: 10^4-panel trapezoid
    in s, no substitution, of Na 4 pi s^2 V(s) rr33_31^(3)(s) over [R_b,
    SHELL_END R_b].  0 if C6, Na or Omega_c is 0, as in production."""
    if atom.C6 == 0 or atom.Na == 0 or drive.Omega_c == 0:
        return 0.0 + 0.0j
    Rb = atom.blockade_radius(drive.Omega_c)
    s = np.linspace(Rb, SHELL_END * Rb, 10_001)
    x1 = twobody_correlators(drive, atom, atom.C6 / s**6)[1][:, 0]
    integrand = 4.0 * np.pi * s**2 * (atom.C6 / s**6) * x1
    return complex(atom.Na * np.trapezoid(integrand, s))


def brewster_angle(stack: LayerStack, k0: float,
                   theta_min: float = THETA_DOMAIN[0],
                   theta_max: float = THETA_DOMAIN[1]) -> float:
    """Incidence angle minimizing |r_p|, to ~1e-9 rad.

    Coarse scan of 20001 angles (fine enough to resolve slab fringes),
    then three 101-point scans, each over the two steps of the previous
    scan around its minimum.  Raises SearchError when the coarse minimum
    sits on the scan edge, and the error of the first angle that fails.
    """
    def argmin_rp(thetas):
        r, _, errors = stack_fresnel(stack, thetas, k0, "p")
        return int(np.argmin(np.abs(_checked(r, errors))))
    thetas = np.linspace(theta_min, theta_max, 20001)
    i = argmin_rp(thetas)
    if i == 0 or i == len(thetas) - 1:
        raise SearchError("no interior |r_p| minimum in the scan range")
    for _ in range(3):
        i = min(max(i, 1), len(thetas) - 2)
        thetas = np.linspace(thetas[i - 1], thetas[i + 1], 101)
        i = argmin_rp(thetas)
    return float(thetas[i])


# ------------------------------------------------ spectral beam synthesis

def incident_spectrum(beam: BeamSpec, *, grid_n: int = 2048,
                      grid_span: float = 8.0) -> tuple[np.ndarray, np.ndarray]:
    """ky grid (1/um) and Gaussian spectral amplitude w0 sqrt(pi) e^{-ky^2 w0^2/4}.

    The kx direction is already integrated out; the returned amplitude is
    the 1-D spectrum of exp(-y^2/w0^2).  grid_span is the k-space half
    width in units of 1/w0; the default covers the spectrum down to
    exp(-16) in amplitude.  The grid holds grid_n + 1 samples, symmetric
    about (and including) ky = 0, so that mirror symmetry of the
    synthesized fields is exact.
    """
    if grid_n < 256 or (grid_n & (grid_n - 1)) != 0:
        raise DomainError("grid_n must be a power of two >= 256")
    if grid_span < 6:
        raise DomainError("grid_span must be >= 6 (spectral coverage)")
    kmax = grid_span / beam.w0
    ky = np.linspace(-kmax, kmax, grid_n + 1)
    amp = beam.w0 * math.sqrt(math.pi) * np.exp(-(ky * beam.w0) ** 2 / 4.0)
    return ky, amp


def reflected_spin_spectra(beam: BeamSpec, rp, rs, *,
                           grid_n: int = 2048, grid_span: float = 8.0
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ky, E+ spectrum, E- spectrum) for unit-amplitude H input.

    Arrays of rp, rs give one spectrum per row.
    """
    ky, amp = incident_spectrum(beam, grid_n=grid_n, grid_span=grid_span)
    rp, rs = np.asarray(rp)[..., None], np.asarray(rs)[..., None]
    a = spin_mixing_amplitude(rp, rs, beam.theta_i, beam.k_medium)
    e_plus = (rp + 1j * a * ky) * amp / math.sqrt(2.0)
    e_minus = (rp - 1j * a * ky) * amp / math.sqrt(2.0)
    return ky, e_plus, e_minus


@dataclass(frozen=True)
class SpinFields:
    """Reflected circular components sampled on a transverse grid."""

    y_samples: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray


def _synthesize(ky: np.ndarray, spectra: np.ndarray,
                y: np.ndarray) -> np.ndarray:
    """E(y) = (dk/2pi) sum_k E(k) e^{i k y}, one column per spectrum."""
    ph = np.multiply.outer(y, 1j * ky)
    np.exp(ph, out=ph)
    return (float(ky[1] - ky[0]) / (2 * math.pi)) * (ph @ spectra)


def reflected_field(beam: BeamSpec, ky: np.ndarray,
                    e_plus_spec: np.ndarray, e_minus_spec: np.ndarray,
                    y: np.ndarray | None = None) -> SpinFields:
    """Inverse-transform the spin spectra to the transverse y grid.

    Spectra stacked in rows are synthesized as the columns of one matrix
    product.  The default grid spans +/- 8 w0 with 2049 samples.  A
    WindowError is raised when more than 1e-6 of any field's power sits
    in the outer 5% of the window (aliasing / undersized window).
    """
    if y is None:
        half = _Y_HALFWIDTH_W0 * beam.w0
        y = -half + (2.0 * half / (_Y_POINTS - 1)) * np.arange(_Y_POINTS)
    y = np.asarray(y, dtype=float)
    ep_s, em_s = np.atleast_2d(e_plus_spec), np.atleast_2d(e_minus_spec)
    m = len(ep_s)
    spectra = np.concatenate([ep_s, em_s]).T
    fields = np.ascontiguousarray(_synthesize(ky, spectra, y).T)
    p = np.abs(fields) ** 2
    tot = p.sum(axis=1)
    edge = max(1, int(len(y) * _ALIAS_EDGE_FRACTION / 2))
    leak = (p[:, :edge].sum(axis=1) + p[:, -edge:].sum(axis=1)) / np.where(
        tot > 0, tot, 1.0)
    bad = np.flatnonzero((tot > 0) & (leak > _ALIAS_POWER_TOL))
    if bad.size:
        name = "sigma+" if bad[0] < m else "sigma-"
        raise WindowError(
            f"{name}: {leak[bad[0]]:.2e} of the power in the window edge")
    ep, em = fields[:m], fields[m:]
    if np.ndim(e_plus_spec) == 1:
        ep, em = ep[0], em[0]
    return SpinFields(y_samples=y, e_plus=ep, e_minus=em)


def centroid(y: np.ndarray, field: np.ndarray):
    """Power-weighted mean transverse position (uniform-grid midpoint
    rule) along the last axis."""
    p = np.abs(field) ** 2
    tot = p.sum(axis=-1)
    if np.any(tot <= 0):
        raise DomainError("zero total power: centroid undefined")
    return (y * p).sum(axis=-1) / tot


def spectral_shifts(beam: BeamSpec, rp, rs, *, grid_n: int = 2048
                    ) -> ShiftResult:
    """Reference for `shifts_from_coefficients`: spectra (+/- 8/w0) ->
    fields -> numerical centroids and powers.

    Equal-length arrays of rp, rs share one phase matrix and give a
    ShiftResult of arrays.
    """
    ky, ep_s, em_s = reflected_spin_spectra(beam, rp, rs, grid_n=grid_n)
    fields = reflected_field(beam, ky, ep_s, em_s)
    dy = fields.y_samples[1] - fields.y_samples[0]
    # unit-amplitude H input carries power w0 sqrt(pi/2), half per spin
    p_in_spin = beam.w0 * math.sqrt(math.pi / 2.0) / 2.0
    pp = (np.abs(fields.e_plus) ** 2).sum(axis=-1) * dy
    pm = (np.abs(fields.e_minus) ** 2).sum(axis=-1) * dy
    return ShiftResult(
        delta_plus=centroid(fields.y_samples, fields.e_plus),
        delta_minus=centroid(fields.y_samples, fields.e_minus),
        power_plus=pp / p_in_spin,
        power_minus=pm / p_in_spin,
    )


@dataclass
class CheckResult:
    check_name: str
    status: str            # "pass" | "fail"
    measured: float
    threshold: float
    runtime_ms: float
    error: str = ""        # "Type: message" of what the check raised


def _run_check(name: str, fn, threshold: float, results: list) -> None:
    t0, error = time.perf_counter(), ""
    try:
        measured = float(fn())
        status = "pass" if measured <= threshold else "fail"
    except Exception as exc:
        measured, status = float("nan"), "fail"
        error = f"{type(exc).__name__}: {exc}"
    results.append(CheckResult(check_name=name, status=status,
                               measured=measured, threshold=threshold,
                               runtime_ms=(time.perf_counter() - t0) * 1e3,
                               error=error))


def verify_suite() -> list[CheckResult]:
    """Machine-checkable invariants across all modules (fixed seed)."""
    rng = np.random.default_rng(20240811)
    atom = canonical_atom()
    results: list[CheckResult] = []

    def chk_oracle():
        worst = 0.0
        for d2 in TWO_PI * np.linspace(-10, 10, 41):
            drv = canonical_drive(d2)
            drv_weak = DriveParams(TWO_PI * 0.1, drv.Omega_c, d2, drv.Delta_c)
            o = full_local_bloch_steady_state(drv_weak, atom)[1, 0]
            p = perturbative_rho21_local(drv_weak, atom)
            worst = max(worst, abs(p - o) / abs(o))
        return worst
    _run_check("perturbative_vs_oracle_rho21", chk_oracle, 0.01, results)

    def chk_onebody():
        # relative residual of A4 y = (0, -rho13, rho31, rho21 - rho12),
        # y = (rho33, rho23, rho32, rho22)^(2) and rho23 = conj(rho32)
        worst = 0.0
        for _ in range(100):
            drv = DriveParams(Omega_p=0.0, Omega_c=TWO_PI * rng.uniform(0.5, 8),
                              Delta2=TWO_PI * rng.uniform(-10, 10),
                              Delta_c=TWO_PI * rng.uniform(-1, 1))
            p, A4 = response_parts(drv, atom), quantum._systems(drv, atom)
            y = [p.rho33_2, np.conj(p.rho32_2), p.rho32_2, p.rho22_2]
            r = A4 @ y - [0, -np.conj(p.rho31_1), p.rho31_1,
                          2j * p.rho21_1.imag]
            worst = max(worst, np.linalg.norm(r) / np.linalg.norm(A4)
                        / np.linalg.norm(y))
        return worst
    _run_check("second_order_onebody_residual", chk_onebody, 1e-12, results)

    def chk_factorization():
        drv = canonical_drive(TWO_PI * 1.3)
        Rb = atom.blockade_radius(drv.Omega_c)
        z = twobody_correlators(drv, atom, [atom.C6 / (100.0 * Rb) ** 6])[0][0]
        p = response_parts(drv, atom)
        r21, r31 = p.rho21_1, p.rho31_1
        r12, r13 = np.conj(r21), np.conj(r31)
        expect = np.array([r13 * r31, r12 * r31, r12 * r21, r13 * r21,
                           r31 * r31, r21 * r31, r21 * r21, r31 * r21])
        return np.max(np.abs(z - expect)) / np.max(np.abs(expect))
    _run_check("twobody_factorization_far", chk_factorization, 1e-6, results)

    def chk_blockade_continuity():
        drv = canonical_drive(TWO_PI * 1.3)
        Rb = atom.blockade_radius(drv.Omega_c)
        far = twobody_correlators(drv, atom,
                                  [atom.C6 / (100.0 * Rb) ** 6])[1][0, 0]
        p = response_parts(drv, atom)
        return abs(far - p.rho33_2 * p.rho31_1) / abs(p.rho33_2 * p.rho31_1)
    _run_check("third_order_far_field_limit", chk_blockade_continuity, 1e-6, results)

    def chk_passivity():
        drv = canonical_drive(TWO_PI * np.linspace(-20, 20, 201))
        r21_1 = response_parts(drv, atom).rho21_1
        return np.max(-(atom.chi_prefactor * r21_1).imag, initial=0.0)
    _run_check("linear_passivity", chk_passivity, 1e-12, results)

    def chk_na_scaling():
        drv = canonical_drive(TWO_PI * 1.0)
        c1 = susceptibility(drv, atom)
        c2 = susceptibility(drv, replace(atom, Na=2 * atom.Na))
        return abs(c2.chi3_nonlocal_contrib / c1.chi3_nonlocal_contrib - 4.0) / 4.0
    _run_check("nonlocal_na_squared_scaling", chk_na_scaling, 1e-10, results)

    def chk_quadrature():
        drv = canonical_drive(0.0)
        i_cf = response_parts(drv, atom).shell_integral
        i_gl = gauss_legendre_nonlocal_integral(drv, atom)
        return abs(i_cf - i_gl) / abs(i_gl)
    _run_check("shell_integral_vs_gauss_legendre", chk_quadrature, 1e-8,
               results)

    def chk_airy():
        k0 = TWO_PI / atom.lambda_p
        worst = 0.0
        for _ in range(100):
            n2 = rng.uniform(0.8, 2.0) + 1j * rng.uniform(0, 0.05)
            stk = LayerStack(n_in=rng.uniform(1.2, 1.8),
                             layers=(Layer(n=n2, d=rng.uniform(0.5, 30.0)),),
                             n_out=rng.uniform(1.2, 1.8))
            th = rng.uniform(THETA_DOMAIN[0], math.radians(80))
            for pol in ("p", "s"):
                r, _ = stack_fresnel(stk, th, k0, pol)
                worst = max(worst, abs(r - _airy_two_interface(stk, th, k0, pol)))
        return worst
    _run_check("airy_equivalence", chk_airy, 1e-12, results)

    def chk_energy():
        k0 = TWO_PI / atom.lambda_p
        worst = 0.0
        for _ in range(100):
            n2 = rng.uniform(1.0, 2.5) + 0j
            stk = LayerStack(n_in=rng.uniform(1.0, 2.0),
                             layers=(Layer(n=n2, d=rng.uniform(0.1, 5.0)),),
                             n_out=rng.uniform(1.0, 2.0))
            th = rng.uniform(THETA_DOMAIN[0], math.radians(60))
            # keep propagating in the slab and exit (no TIR): real p_j
            n_min = min(n2.real, stk.n_out)
            if stk.n_in * math.sin(th) >= 0.98 * n_min:
                continue
            for pol in ("p", "s"):
                r, t = stack_fresnel(stk, th, k0, pol)
                cos_in = math.cos(th)
                cos_out = complex(np.sqrt(1 - (stk.n_in * math.sin(th)
                                               / stk.n_out) ** 2 + 0j)).real
                if pol == "p":
                    p1, p3 = stk.n_in / cos_in, stk.n_out / cos_out
                else:
                    p1, p3 = stk.n_in * cos_in, stk.n_out * cos_out
                worst = max(worst, abs(abs(r)**2 + (p3 / p1) * abs(t)**2 - 1.0))
        return worst
    _run_check("energy_conservation", chk_energy, 1e-10, results)

    def draws(n, sp, ss):
        """n (rp, rs) pairs, each drawn re(rp), im(rp), re(rs), im(rs)."""
        return np.array([(rng.normal() * sp + 1j * rng.normal() * sp,
                          rng.normal() * ss + 1j * rng.normal() * ss)
                         for _ in range(n)]).T

    beam = BeamSpec(w0=50.0, theta_i=math.radians(33.87), lambda_p=0.78)

    def chk_mirror():
        s = spectral_shifts(beam, *draws(10, 0.1, 0.3))
        return np.max(np.abs(s.delta_plus + s.delta_minus))
    _run_check("mirror_antisymmetry", chk_mirror, 1e-9, results)

    def chk_fft_vs_analytic():
        rp, rs = draws(30, 0.3, 0.3)
        rp, rs = rp[abs(rp) > 0.05], rs[abs(rp) > 0.05]
        o = spectral_shifts(beam, rp, rs)
        da = shifts_from_coefficients(beam, rp, rs).delta_plus
        scale = np.maximum(np.abs(da), beam.lambda_p)
        return np.max(np.abs(o.delta_plus - da) / scale, initial=0.0)
    _run_check("pipeline_vs_analytic_shift", chk_fft_vs_analytic, 0.02, results)

    def chk_residuals():
        drv = canonical_drive(TWO_PI * 0.37)
        Rb = atom.blockade_radius(drv.Omega_c)
        # raises if residual > 1e-10
        twobody_correlators(drv, atom, [atom.C6 / (1.7 * Rb) ** 6])
        return 0.0
    _run_check("solver_residuals", chk_residuals, 0.5, results)

    def chk_density_matrix_invariants():
        worst = 0.0
        for _ in range(1000):
            drv = DriveParams(Omega_p=TWO_PI * rng.uniform(0, 2),
                              Omega_c=TWO_PI * rng.uniform(0, 8),
                              Delta2=TWO_PI * rng.uniform(-10, 10),
                              Delta_c=TWO_PI * rng.uniform(-1, 1))
            herm, trace, neg = density_matrix_defects(
                full_local_bloch_steady_state(drv, atom))
            worst = max(worst, herm, trace, max(0.0, neg - 1e-10))
        return worst
    _run_check("oracle_density_matrix_invariants", chk_density_matrix_invariants,
               1e-10, results)

    return results


def _airy_two_interface(stack: LayerStack, theta: float, k0: float,
                        pol: str) -> complex:
    """r of a one-slab stack as the multiple-beam (Airy) sum of interface
    coefficients, a derivation independent of `stack_fresnel`'s."""
    from .multilayer import refraction_cosine
    (layer,) = stack.layers
    c1 = math.cos(theta) + 0j
    c2 = refraction_cosine(stack.n_in, theta, layer.n)
    c3 = refraction_cosine(stack.n_in, theta, stack.n_out + 0j)
    if pol == "p":
        p1, p2, p3 = stack.n_in / c1, layer.n / c2, stack.n_out / c3
    else:
        p1, p2, p3 = stack.n_in * c1, layer.n * c2, stack.n_out * c3
    r12 = (p1 - p2) / (p1 + p2)
    r23 = (p2 - p3) / (p2 + p3)
    phase = np.exp(2j * k0 * layer.n * layer.d * c2)
    return complex((r12 + r23 * phase) / (1 + r12 * r23 * phase))
