"""Steady-state response of the interacting three-level ladder medium.

Level scheme: |1> ground, |2> intermediate, |3> Rydberg.  A weak probe
(Rabi frequency Omega_p, detuning Delta2) drives 1<->2, a strong coupling
field (Omega_c, Delta_c) drives 2<->3; the two-photon detuning is
Delta3 = Delta2 + Delta_c.  Rydberg pairs interact through the van der
Waals potential V(r) = C6 / r^6.

Everything here works in "atomic" units: angular frequencies in rad/us
(so a quantity quoted as f MHz enters as 2*pi*f), lengths in um, C6 in
rad/us * um^6.  This keeps all matrix entries O(1)-O(100) and the small
dense solves well conditioned.

The probe coherence is expanded in powers of the (real, non-negative)
probe Rabi frequency:

    rho21 = Omega_p * rho21^(1) + Omega_p^3 * rho21^(3) + ...

rho21^(1) comes from a closed form, rho21^(3) splits into a local part
(single-atom saturation) and a nonlocal part driven by the pair
correlator <sigma33(r') sigma31(r)> integrated against V over the shell
[R_b, 3 R_b] outside the blockade radius.  The correlator hierarchy is
closed at two atoms / third order: one 5x5, two 4x4 and one 8x8 complex
linear system.  The pair energy enters them as a low-rank change, so the
correlator is a rational function of V and the shell integral has a
closed form.  `susceptibility` makes one pass per detuning: the
denominators, rho21^(1), the four solves (two of them with several
right-hand sides) and a 2x2 eigenvalue problem, each once.  Nothing here
solves at a given separation; `oracle.twobody_correlators` does, and
certifies the closed form.

Sign conventions are pinned by two independent checks exercised in the
test suite: (a) the full nonperturbative local steady state (oracle
module) must agree with the expansion order by order, and (b) at V = 0
every two-body solution must factorize exactly into products of
one-body solutions.  Both checks fix, in particular,

    rho31^(1) = -Omega_c * rho21^(1) / d31 = +Omega_c / (d21*d31 - Omega_c^2)

and the right-hand sides q2 = -rhorho13,31^(2) and q6 = -rho23^(2)
- rhorho13,21^(2) of the third-order system; the alternative sign
choices break both checks at O(1).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PropagationError, SingularityError

TWO_PI = 2.0 * math.pi

# SI constants, CODATA 2022: speed of light (m/s), vacuum permittivity
# (F/m), reduced Planck constant (J s)
C_LIGHT = 299792458.0
EPSILON_0 = 8.8541878188e-12
HBAR = 1.0545718176461565e-34

# relative residual allowed for any dense solve in this module
SOLVE_RESIDUAL_TOL = 1e-10

# default order of the oracle's Gauss-Legendre rule for the shell integral
DEFAULT_QUAD_NODES = 64

# a pole of rr33_31^(3)(V) closer to the shell than this fraction of its
# length (in u = 1/s^3), or two poles closer than this relative distance,
# is a resonance the closed form refuses to integrate
POLE_CLEARANCE = 1e-3


def derive_dipole_moment(Gamma21_si: float, lambda_si: float) -> float:
    """Dipole matrix element (C*m) from the spontaneous decay rate.

    Inverts the free-space emission formula Gamma = omega^3 p^2 /
    (3 pi eps0 hbar c^3) for p.  Inputs are SI: Gamma21 in rad/s,
    wavelength in m.
    """
    if Gamma21_si < 0 or lambda_si <= 0:
        raise DomainError("decay rate must be >= 0 and wavelength > 0")
    omega = TWO_PI * C_LIGHT / lambda_si
    return math.sqrt(3 * math.pi * EPSILON_0 * HBAR * C_LIGHT**3
                     * Gamma21_si / omega**3)


def blockade_radius(Omega_c: float, gamma12: float, C6: float) -> float:
    """Blockade radius R_b (um) where |C6|/R_b^6 equals Omega_c^2/gamma12."""
    if Omega_c == 0:
        raise DomainError("Omega_c = 0 gives a divergent blockade radius")
    if gamma12 <= 0 or C6 == 0:
        raise DomainError("need gamma12 > 0 and C6 != 0")
    return (abs(C6) * gamma12 / abs(Omega_c) ** 2) ** (1.0 / 6.0)


@dataclass(frozen=True)
class AtomParams:
    """Atomic constants of the medium (rad/us, um units).

    gamma21/gamma32/gamma31 are the coherence decay rates entering the
    complex denominators d_ab.  `chi_prefactor` is
    K = Na |p21|^2 / (eps0 hbar), expressed in rad/us, so that
    chi = K * rho21 / Omega_p.
    """

    Gamma21: float          # population decay 2 -> 1
    Gamma32: float          # population decay 3 -> 2
    gamma21: float
    gamma32: float
    gamma31: float
    C6: float               # vdW coefficient, sign included (rad/us um^6)
    Na: float               # number density (um^-3)
    lambda_p: float         # probe wavelength (um)
    p21: float              # dipole moment (C m)
    chi_prefactor: float    # K (rad/us)

    def __post_init__(self):
        if self.Gamma21 <= 0:
            raise DomainError("Gamma21 must be positive")
        if self.Gamma32 < 0 or self.Na < 0:
            raise DomainError("Gamma32 and Na must be non-negative")
        if self.lambda_p <= 0:
            raise DomainError("lambda_p must be positive")

    @classmethod
    def from_decay_rates(cls, Gamma21: float, Gamma32: float, C6: float,
                         Na: float, lambda_p: float,
                         gamma21: float | None = None,
                         gamma32: float | None = None,
                         gamma31: float | None = None) -> "AtomParams":
        """Build the parameter set from population decay rates.

        Coherence decay defaults follow the half-sum-of-level-widths
        rule gamma_ab = (Gamma_a + Gamma_b)/2 with level widths
        Gamma_1 = 0, Gamma_2 = Gamma21, Gamma_3 = Gamma32:

            gamma21 = Gamma21 / 2
            gamma31 = Gamma32 / 2           (no extra dephasing)
            gamma32 = (Gamma21 + Gamma32) / 2

        All three accept explicit overrides.
        """
        if Gamma21 <= 0:
            raise DomainError("Gamma21 must be positive")
        g21 = Gamma21 / 2 if gamma21 is None else gamma21
        g31 = Gamma32 / 2 if gamma31 is None else gamma31
        g32 = (Gamma21 + Gamma32) / 2 if gamma32 is None else gamma32
        p21 = derive_dipole_moment(Gamma21 * 1e6, lambda_p * 1e-6)
        # K = Na p^2/(eps0 hbar): um^-3 -> m^-3 is 1e18, 1/s -> rad/us is 1e-6
        K = Na * 1e18 * p21**2 / (EPSILON_0 * HBAR) * 1e-6
        return cls(Gamma21=Gamma21, Gamma32=Gamma32, gamma21=g21, gamma32=g32,
                   gamma31=g31, C6=C6, Na=Na, lambda_p=lambda_p, p21=p21,
                   chi_prefactor=K)

    def with_density(self, Na: float) -> "AtomParams":
        """Same atom at a different number density."""
        if Na < 0:
            raise DomainError("Na must be non-negative")
        return AtomParams.from_decay_rates(
            self.Gamma21, self.Gamma32, self.C6, Na, self.lambda_p,
            gamma21=self.gamma21, gamma32=self.gamma32, gamma31=self.gamma31)

    def blockade_radius(self, Omega_c: float) -> float:
        # the EIT linewidth uses gamma12 = gamma21 (the only symmetric reading)
        return blockade_radius(Omega_c, self.gamma21, self.C6)


@dataclass(frozen=True)
class DriveParams:
    """Probe/coupling Rabi frequencies and detunings (rad/us).

    Omega_p and Omega_c are taken real and non-negative; conjugate
    coherences are then plain complex conjugates.  Delta3 is always
    Delta2 + Delta_c.
    """

    Omega_p: float
    Omega_c: float
    Delta2: float
    Delta_c: float

    def __post_init__(self):
        if self.Omega_p < 0 or self.Omega_c < 0:
            raise DomainError("Rabi frequencies are taken real and >= 0")

    @property
    def Delta3(self) -> float:
        return self.Delta2 + self.Delta_c

    def detuned(self, Delta2: float) -> "DriveParams":
        return DriveParams(self.Omega_p, self.Omega_c, Delta2, self.Delta_c)


@dataclass(frozen=True)
class ComplexDenominators:
    """d_ab = Delta_a - Delta_b + i gamma_ab with Delta_1 = 0."""

    d21: complex
    d31: complex
    d32: complex
    d13: complex
    d12: complex
    d23: complex

    @classmethod
    def from_params(cls, drive: DriveParams, atom: AtomParams) -> "ComplexDenominators":
        D2, D3 = drive.Delta2, drive.Delta3
        return cls(d21=D2 + 1j * atom.gamma21,
                   d31=D3 + 1j * atom.gamma31,
                   d32=D3 - D2 + 1j * atom.gamma32,
                   d13=-D3 + 1j * atom.gamma31,
                   d12=-D2 + 1j * atom.gamma21,
                   d23=D2 - D3 + 1j * atom.gamma32)


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in m (over the last two axes)."""
    f = m.reshape(m.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(f, f).real)


def _solve_checked(A: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """Dense LU solve (partial pivoting) with a relative-residual guard.

    A is (..., n, n) and b is (n,) or (..., n, k); the residual is
    checked per system, so one bad system in a batch cannot hide behind
    the norm of the others.
    """
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise PropagationError(f"non-finite entries entering the {what} solve")
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"singular matrix in {what}: {exc}") from exc
    bm, xm = (b[:, None], x[:, None]) if b.ndim == 1 else (b, x)
    scale = np.maximum(_frobenius(bm), _frobenius(A) * _frobenius(xm))
    rel = _frobenius(A @ xm - bm) / np.maximum(scale, 1e-300)
    if not np.all(rel <= SOLVE_RESIDUAL_TOL):            # nan fails too
        i = np.flatnonzero(~(rel <= SOLVE_RESIDUAL_TOL))[0]
        where = f" at batch index {i}" if rel.ndim else ""
        raise SingularityError(f"{what} solve residual {rel.flat[i]:.2e} "
                               f"exceeds {SOLVE_RESIDUAL_TOL:.0e}{where}")
    return x


@contextmanager
def _at_detuning(drive: DriveParams):
    """Name the probe detuning in any SingularityError raised inside."""
    try:
        yield
    except SingularityError as exc:
        raise SingularityError(f"{exc} at Delta2 = {drive.Delta2:g} rad/us"
                               ) from exc


def _first_order(d: ComplexDenominators, Oc: float) -> tuple[complex, complex]:
    den = d.d21 * d.d31 - Oc**2
    if den == 0:
        raise SingularityError("EIT denominator vanishes")
    return -d.d31 / den, Oc / den


def _onebody(d: ComplexDenominators, Oc: float, atom: AtomParams,
             r21: complex, r31: complex) -> tuple:
    """The 5x5 of `second_order_onebody`; unknowns (rho11, rho22, rho33,
    rho32, rho23)^(2)."""
    r12, r13 = np.conj(r21), np.conj(r31)
    A = np.array([
        [1, 1, 1, 0, 0],
        [0, 0, -1j * atom.Gamma32, Oc, -Oc],
        [0, -1j * atom.Gamma21, 1j * atom.Gamma32, -Oc, Oc],
        [0, -Oc, Oc, -d.d32, 0],
        [0, Oc, -Oc, 0, -d.d23],
    ], dtype=complex)
    b = np.array([0, 0, r12 - r21, -r31, r13], dtype=complex)
    u = _solve_checked(A, b, "second-order one-body (5x5)")
    return u[0], u[1], u[2], u[3]


def first_order_coherences(drive: DriveParams, atom: AtomParams) -> tuple[complex, complex]:
    """(rho21^(1), rho31^(1)) from the linear-response closed form.

    rho21^(1) = -d31 / (d21 d31 - Omega_c^2),
    rho31^(1) = -Omega_c rho21^(1) / d31 = Omega_c / (d21 d31 - Omega_c^2).
    """
    with _at_detuning(drive):
        return _first_order(ComplexDenominators.from_params(drive, atom),
                            drive.Omega_c)


def second_order_onebody(drive: DriveParams, atom: AtomParams
                         ) -> tuple[complex, complex, complex, complex]:
    """(rho11^(2), rho22^(2), rho33^(2), rho32^(2)) populations/coherence.

    Collects the O(Omega_p^2) steady-state equations, with the trace
    condition rho11+rho22+rho33 = 0 replacing the redundant ground-state
    equation.  rho23^(2) is carried as an independent unknown and checked
    to equal conj(rho32^(2)) by the tests (real drives).
    """
    with _at_detuning(drive):
        d = ComplexDenominators.from_params(drive, atom)
        return _onebody(d, drive.Omega_c, atom, *_first_order(d, drive.Omega_c))


def _mixed_correlators(d: ComplexDenominators, Oc: float,
                       r21: complex, r31: complex) -> np.ndarray:
    """zA = (rr13_31, rr12_31, rr12_21, rr13_21)^(2), the two-body
    correlators the pair energy does not reach (the 'mixed' 4x4)."""
    r12, r13 = np.conj(r21), np.conj(r31)
    MA = np.array([
        [d.d13 + d.d31, -Oc, 0, Oc],
        [-Oc, d.d12 + d.d31, Oc, 0],
        [0, Oc, d.d12 + d.d21, -Oc],
        [Oc, 0, -Oc, d.d13 + d.d21],
    ], dtype=complex)
    qA = np.array([0, r31, r21 - r12, -r13], dtype=complex)
    return _solve_checked(MA, qA, "second-order two-body (mixed 4x4)")


def _pair_matrix(d: ComplexDenominators, Oc: float) -> np.ndarray:
    """MB0, the pair 4x4 of (rr31_31, rr21_31, rr21_21, rr31_21)^(2) at
    V = 0; the pair energy enters as MB(V) = MB0 - V e0 e0^T."""
    return np.array([
        [2 * d.d31, Oc, 0, Oc],
        [Oc, d.d21 + d.d31, Oc, 0],
        [0, Oc, 2 * d.d21, Oc],
        [Oc, 0, Oc, d.d21 + d.d31],
    ], dtype=complex)


def _pair_rhs(r21: complex, r31: complex) -> np.ndarray:
    return np.array([0, -r31, -2 * r21, -r31], dtype=complex)


# rows of the third-order right-hand side fed by the pair correlators
# (rr31_31, rr21_31, rr21_21, rr31_21)^(2), in that order
_PAIR_ROWS = [2, 4, 7, 6]


def _third_order_system(d: ComplexDenominators, Oc: float, atom: AtomParams,
                        zA: np.ndarray, onebody: tuple
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(Q0, q_c): the third-order 8x8 at V = 0 and the part of its
    right-hand side that the pair correlators zB do not feed.

    The unknowns are (rr33_31, rr23_31, rr32_31, rr33_21, rr22_31,
    rr23_21, rr32_21, rr22_21)^(3).  The pair energy shifts the
    double-Rydberg coherences (rows 0 and 2),
    Q(V) = Q0 - V (e0 e0^T + e2 e2^T), and q(V) = q_c + P zB(V) with P
    scattering zB onto `_PAIR_ROWS`.
    """
    rr13_31, rr12_31, rr12_21, rr13_21 = zA
    r11, r22, r33, r32 = onebody
    r23 = np.conj(r32)
    G12, G23 = atom.Gamma21, atom.Gamma32
    Q0 = np.array([
        [d.d31 + 1j * G23, Oc, -Oc, Oc, 0, 0, 0, 0],
        [Oc, d.d23 + d.d31, 0, 0, -Oc, Oc, 0, 0],
        [-Oc, 0, d.d31 + d.d32, 0, Oc, 0, Oc, 0],
        [Oc, 0, 0, d.d21 + 1j * G23, 0, Oc, -Oc, 0],
        [-1j * G23, -Oc, Oc, 0, d.d31 + 1j * G12, 0, 0, Oc],
        [0, Oc, 0, Oc, 0, d.d21 + d.d23, 0, -Oc],
        [0, 0, Oc, -Oc, 0, 0, d.d21 + d.d32, Oc],
        [0, 0, 0, -1j * G23, Oc, -Oc, Oc, d.d21 + 1j * G12],
    ], dtype=complex)
    qc = np.array([0, -rr13_31, 0, -r33, -rr12_31, -r23 - rr13_21, -r32,
                   -r22 - rr12_21], dtype=complex)
    return Q0, qc


def _correlator_poles(d: ComplexDenominators, Oc: float, atom: AtomParams,
                      r21: complex, r31: complex, onebody: tuple
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Poles V_k and residues c_k of rr33_31^(3)(V) = sum_k c_k / (V - V_k).

    Sherman-Morrison on the pair 4x4: MB0 [zB0, w] = [qB, e0] gives
    zB(V) = zB0 + w zB0_0 g(V), g(V) = V / (1 - V beta), beta = w_0.
    Woodbury on the 8x8 with U = [e0, e2]: Q0 X = [e0, e2, q0, p], with
    q0 = q_c + P zB0 and p = P w zB0_0, and rows 0 and 2 of X give
    S = U^T Q0^-1 U, a and b, so that

        rr33_31^(3)(V) = e0^T (I - V S)^-1 (a + g(V) b).

    The poles are 1/eig(S) and 1/beta; the numerator is of lower degree
    than the denominator, so there is no polynomial part.
    """
    zA = _mixed_correlators(d, Oc, r21, r31)
    zw = _solve_checked(_pair_matrix(d, Oc),
                        np.array([_pair_rhs(r21, r31), [1, 0, 0, 0]]).T,
                        "second-order two-body (pair 4x4)")
    zB0, w = zw[:, 0], zw[:, 1]
    beta = w[0]
    Q0, qc = _third_order_system(d, Oc, atom, zA, onebody)
    rhs = np.zeros((8, 4), dtype=complex)
    rhs[0, 0] = rhs[2, 1] = 1.0
    rhs[:, 2] = qc
    rhs[_PAIR_ROWS, 2] += zB0
    rhs[_PAIR_ROWS, 3] = w * zB0[0]
    X = _solve_checked(Q0, rhs, "third-order two-body (8x8)")[[0, 2]]
    S, a, b = X[:, :2], X[:, 2], X[:, 3]
    lam = np.linalg.eigvals(S)
    # coincident poles give non-finite residues; _shell_pole_sum refuses them
    with np.errstate(divide="ignore", invalid="ignore"):
        V = 1.0 / np.array([lam[0], lam[1], beta])
        # row 0 of adj(I - V_k S), so that (I - V S)^-1 = adj / det
        adj0 = np.stack([1 - V * S[1, 1], V * S[0, 1]], axis=1)
        c = np.empty(3, dtype=complex)
        c[:2] = ((adj0[:2] @ a + (adj0[:2] @ b) / (lam - beta))
                 / (lam[::-1] - lam))
        c[2] = -V[2] ** 2 * (adj0[2] @ b) / np.prod(1 - V[2] * lam)
    return V, c


def _shell_pole_sum(poles: np.ndarray, residues: np.ndarray, C6: float,
                    u_lo: float, u_hi: float) -> complex:
    """int_{u_lo}^{u_hi} sum_k c_k / (C6 u^2 - V_k) du, exactly.

    With a_k = sqrt(V_k / C6) each term is
    c_k / (2 a_k C6) [ln(u - a_k) - ln(u + a_k)] between the limits.  The
    differences are taken as log1p of (u_hi -/+ a_k)/(u_lo -/+ a_k) - 1,
    which stays on the principal branch along the segment and keeps full
    precision for poles far from it.  A pole within POLE_CLEARANCE
    segment lengths of [u_lo, u_hi], or two poles within POLE_CLEARANCE
    of each other (relative), raises SingularityError.
    """
    if not (np.all(np.isfinite(poles)) and np.all(np.isfinite(residues))):
        raise SingularityError(f"non-finite pole or residue of rr33_31^(3): "
                               f"poles {poles}")
    for i in range(len(poles)):
        for j in range(i):
            if abs(poles[i] - poles[j]) <= POLE_CLEARANCE * max(
                    abs(poles[i]), abs(poles[j])):
                raise SingularityError(
                    f"poles V = {poles[j]:.6g} and V = {poles[i]:.6g} rad/us "
                    f"of rr33_31^(3) coincide")
    span = u_hi - u_lo
    a = np.sqrt(poles / C6)                    # principal root, Re a >= 0
    dist = np.abs(a - np.clip(a.real, u_lo, u_hi)) / span
    k = int(np.argmin(dist))
    if dist[k] <= POLE_CLEARANCE:
        raise SingularityError(
            f"pole V = {poles[k]:.6g} rad/us of rr33_31^(3) lies "
            f"{dist[k]:.2g} shell lengths from the shell")
    logs = np.log1p(span / (u_lo - a)) - np.log1p(span / (u_lo + a))
    return complex(np.sum(residues / (2 * a * C6) * logs))


def _response(drive: DriveParams, atom: AtomParams, upper_factor: float = 3.0
              ) -> tuple[complex, complex, complex, complex]:
    """The one pass per detuning: (rho21^(1), rho21^(3,local), I,
    rho21^(3,nonlocal)), each system built and solved once."""
    Oc = drive.Omega_c
    with _at_detuning(drive):
        d = ComplexDenominators.from_params(drive, atom)
        r21, r31 = _first_order(d, Oc)
        onebody = _onebody(d, Oc, atom, r21, r31)
        r11, r22, _, r32 = onebody
        den = Oc**2 - d.d21 * d.d31
        local = complex(-(d.d31 * (r22 - r11) - Oc * r32) / den)
        # exact zeros: Oc * 0 / den could carry a signed zero into the CSV
        if atom.C6 == 0 or atom.Na == 0 or Oc == 0:
            return r21, local, 0.0 + 0.0j, 0.0 + 0.0j
        Rb = atom.blockade_radius(Oc)
        poles, residues = _correlator_poles(d, Oc, atom, r21, r31, onebody)
        total = _shell_pole_sum(poles, residues, atom.C6,
                                (upper_factor * Rb) ** -3, Rb ** -3)
    I = complex(atom.Na * 4.0 * np.pi * (atom.C6 / 3.0) * total)
    return r21, local, I, complex(Oc * I / den)


def nonlocal_integral(drive: DriveParams, atom: AtomParams,
                      upper_factor: float = 3.0) -> complex:
    """I = Na * 4 pi * int_{R_b}^{u.f.*R_b} s^2 V(s) rr33_31^(3)(s) ds.

    The substitution u = 1/s^3 flattens the s^-6 kernel exactly
    (s^2 V ds -> (C6/3) du).  The integrand is a rational function of
    V = C6 u^2 with three simple poles (`_correlator_poles`), so the
    integral is a sum of logarithms (`_shell_pole_sum`), with no
    quadrature.  I = 0 when C6, Na or Omega_c is 0.
    """
    return _response(drive, atom, upper_factor)[2]


def third_order_coherence(drive: DriveParams, atom: AtomParams
                          ) -> tuple[complex, complex]:
    """(rho21^(3,local), rho21^(3,nonlocal)).

    local    = -[d31 (rho22^(2) - rho11^(2)) - Omega_c rho32^(2)]
               / (Omega_c^2 - d21 d31)
    nonlocal = Omega_c * I / (Omega_c^2 - d21 d31)

    with I from `nonlocal_integral` (the density prefactor lives in I).
    """
    _, local, _, nl = _response(drive, atom)
    return local, nl


@dataclass(frozen=True)
class SusceptibilityBreakdown:
    """chi split into linear, local-Kerr and nonlocal-Kerr contributions."""

    chi1: complex
    chi3_local_contrib: complex
    chi3_nonlocal_contrib: complex

    @property
    def total(self) -> complex:
        return self.chi1 + self.chi3_local_contrib + self.chi3_nonlocal_contrib

    @property
    def total_local(self) -> complex:
        """Total with the interaction-induced part switched off."""
        return self.chi1 + self.chi3_local_contrib


def susceptibility(drive: DriveParams, atom: AtomParams) -> SusceptibilityBreakdown:
    """Probe susceptibility chi = K rho21 / Omega_p, split by order.

    chi1 scales as Na, chi3_nonlocal_contrib as Na^2 (one power through
    K, one through the shell integral).
    """
    K = atom.chi_prefactor
    r21_1, loc, _, nl = _response(drive, atom)
    Op2 = drive.Omega_p**2
    return SusceptibilityBreakdown(chi1=K * r21_1,
                                   chi3_local_contrib=K * Op2 * loc,
                                   chi3_nonlocal_contrib=K * Op2 * nl)
