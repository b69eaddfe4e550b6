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
closed at two atoms / third order; its two-body matrices are Kronecker
sums of two one-atom blocks, and the pair energy enters them as a
low-rank change, so the correlator is a rational function of V and the
shell integral has a closed form.  At V = 0 the atoms are independent,
so a call solves one 4x4 (`_onebody`) and one batch of block 4x4s
(`_hierarchy`).  `susceptibility` and `response_parts` take a scalar or
a 1-D array of probe detunings through one pass, and report each failure
against its own detuning;
the oracle's `twobody_correlators` solves at given separations instead.

Sign conventions are pinned by two independent checks exercised in the
test suite: (a) the full nonperturbative local steady state (oracle
module) must agree with the expansion order by order, and (b) at V = 0
every two-body solution must factorize exactly into products of
one-body solutions.  Both checks fix, in particular, the sign of
rho31^(1) = +Omega_c / (d21*d31 - Omega_c^2) and the right-hand sides
q2 = -rhorho13,31^(2) and q6 = -rho23^(2) - rhorho13,21^(2) of the
oracle's third-order system; the alternative sign choices break both
checks at O(1).
"""

from __future__ import annotations

import math
from itertools import combinations
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (DomainError, PropagationError, SingularityError,
                     failures, first_errors)

# relative residual allowed for any dense solve in this module
SOLVE_RESIDUAL_TOL = 1e-10

# |Delta2| or |Delta_c| (rad/us) past which the solves leave the float range
_MAX_DETUNING = 1e150

# default order of the oracle's Gauss-Legendre rule for the shell integral
DEFAULT_QUAD_NODES = 64

# a pole of rr33_31^(3)(V) closer to the shell than this fraction of its
# length (in u = 1/s^3) is a resonance the closed form refuses to
# integrate; two poles closer than _POLE_SEPARATION, relative to their
# size, coincide: the residues divide by their difference, whose rounding
# that bound magnifies at most 1e8-fold, so they keep about 8 digits
POLE_CLEARANCE, _POLE_SEPARATION = 1e-3, 1e-8


def _square(x: float) -> float:
    """x**2, or inf where Python's float ** raises OverflowError."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class AtomParams:
    """Atomic constants of the medium (rad/us, um units).

    Only inputs are stored, so `dataclasses.replace` gives a consistent
    atom.  The coherence decay rates gamma21/gamma32/gamma31 of the
    denominators d_ab are coh21/coh32/coh31 when given, else the
    half-sum-of-level-widths rule gamma_ab = (Gamma_a + Gamma_b)/2 with
    Gamma_1 = 0, Gamma_2 = Gamma21, Gamma_3 = Gamma32 (no extra
    dephasing).  `chi_prefactor` is K in chi = K rho21 / Omega_p:
    K = Na |d|^2 / (eps0 hbar), the dipole moment from the decay rate,
    |d|^2 = 3 pi eps0 hbar c^3 Gamma21 / omega^3 with omega = 2 pi c /
    lambda_p.  eps0, hbar and c cancel: K = 3 Na lambda_p^3 Gamma21 /
    (8 pi^2), and um^-3 * um^3 * rad/us is rad/us.
    """

    Gamma21: float          # population decay 2 -> 1
    Gamma32: float          # population decay 3 -> 2
    C6: float               # vdW coefficient, sign included (rad/us um^6)
    Na: float               # number density (um^-3)
    lambda_p: float         # probe wavelength (um)
    coh21: float | None = None
    coh32: float | None = None
    coh31: float | None = None

    def __post_init__(self):
        # written so that nan fails each check
        if not self.Gamma21 > 0:
            raise DomainError("Gamma21 must be positive")
        if not (self.Gamma32 >= 0 and self.Na >= 0):
            raise DomainError("Gamma32 and Na must be non-negative")
        if not self.lambda_p > 0:
            raise DomainError("lambda_p must be positive")
        if not math.isfinite(self.C6):
            raise DomainError("C6 must be finite")
        if not ((self.coh21 is None or self.coh21 > 0)
                and (self.coh31 is None or self.coh31 >= 0)
                and (self.coh32 is None or self.coh32 >= 0)):
            raise DomainError("need coh21 > 0 and coh31, coh32 >= 0")

    @property
    def gamma21(self) -> float:
        return self.Gamma21 / 2 if self.coh21 is None else self.coh21

    @property
    def gamma31(self) -> float:
        return self.Gamma32 / 2 if self.coh31 is None else self.coh31

    @property
    def gamma32(self) -> float:
        return ((self.Gamma21 + self.Gamma32) / 2 if self.coh32 is None
                else self.coh32)

    @property
    def chi_prefactor(self) -> float:
        # products, not ** 3: past the float range inf, not OverflowError
        lam = self.lambda_p
        return 3 / (8 * math.pi**2) * self.Na * lam * lam * lam * self.Gamma21

    def blockade_radius(self, Omega_c: float) -> float:
        """Blockade radius R_b (um) where |C6|/R_b^6 equals Omega_c^2/gamma12,
        with gamma12 = gamma21 (the only symmetric reading)."""
        if Omega_c == 0:
            raise DomainError("Omega_c = 0 gives a divergent blockade radius")
        # an Omega_c^2 that underflows to 0 gives R_b = inf, refused below
        Oc2 = _square(abs(Omega_c))
        Rb = (abs(self.C6) * self.gamma21 / Oc2) ** (1 / 6) if Oc2 else math.inf
        if not 0 < Rb < math.inf:
            raise DomainError(f"need C6 != 0 and R_b in float range: {Rb} um")
        return Rb


@dataclass(frozen=True)
class DriveParams:
    """Probe/coupling Rabi frequencies and detunings (rad/us).

    Omega_p and Omega_c are taken real and non-negative; conjugate
    coherences are then plain complex conjugates.  Delta3 is always
    Delta2 + Delta_c.  Delta2 may be a 1-D array for `susceptibility`.
    """

    Omega_p: float
    Omega_c: float
    Delta2: float
    Delta_c: float

    def __post_init__(self):
        if not (self.Omega_p >= 0 and self.Omega_c >= 0):
            raise DomainError("Rabi frequencies are taken real and >= 0")
        # Delta2 is checked per detuning, so that a bad one fails alone
        if not abs(self.Delta_c) <= _MAX_DETUNING:
            raise DomainError(f"Delta_c = {self.Delta_c:g} rad/us is outside "
                              f"the float range (|Delta_c| <= {_MAX_DETUNING:g})")

    @property
    def Delta3(self) -> float:
        return self.Delta2 + self.Delta_c


def _denominators(drive: DriveParams, atom: AtomParams) -> tuple:
    """(d21, d31, d32): d_ab = Delta_a - Delta_b + i gamma_ab with
    Delta_1 = 0 (arrays when Delta2 is an array); the reverse
    d_ba = -conj(d_ab) exactly."""
    D2, D3 = drive.Delta2, drive.Delta3
    return (D2 + 1j * atom.gamma21, D3 + 1j * atom.gamma31,
            D3 - D2 + 1j * atom.gamma32)


def _batch(drive: DriveParams) -> DriveParams:
    """drive with Delta2 as a 1-D array; a scalar is the length-1 batch."""
    Delta2 = np.atleast_1d(np.asarray(drive.Delta2, dtype=float))
    if Delta2.ndim != 1:
        raise DomainError("Delta2 must be a scalar or a 1-D array")
    return replace(drive, Delta2=Delta2)


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in m (over the last two axes).

    A sum of squares that overflows, or falls below 1e-290 where squares
    may have underflowed, is taken again over its matrix divided by its
    largest |entry| and multiplied back.  The squares lost below the
    normal range add up to less than 1e-300, so a larger sum is kept."""
    f = np.ascontiguousarray(m).view(float)
    f = f.reshape(-1, f.shape[-2] * f.shape[-1])
    ss = np.vecdot(f, f)
    norm = np.sqrt(ss)
    if not (ss.min() >= 1e-290 and ss.max() < np.inf):      # nan too
        redo = ~((ss >= 1e-290) & (ss < np.inf))
        big = np.abs(f[redo]).max(axis=-1)
        big[~(big > 0)] = 1
        g = f[redo] / big[:, None]
        norm[redo] = big * np.sqrt(np.vecdot(g, g))
    return norm.reshape(m.shape[:-2])


def _solve_checked(A: np.ndarray, b: np.ndarray, what: str
                   ) -> tuple[np.ndarray, dict]:
    """Dense LU solves (partial pivoting) of the batch A x = b, A (n, m, m)
    and b (n, m, k), each of the n systems guarded on its own.

    Returns (x, errors): errors maps each failed system i to the typed
    error it gives alone -- non-finite entries, an exactly singular
    matrix, or a relative residual above SOLVE_RESIDUAL_TOL -- so one bad
    system cannot hide behind the norm of the others.  The residual is
    the test; only the systems that fail it are classified.  A failed
    system's x is 0, so it cannot poison later arithmetic on the batch.
    """
    singular = np.zeros(len(b), dtype=bool)
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        # LU finds the same zero pivot as the solve; the rest still solve
        reason = exc
        eye, finite = np.eye(b.shape[1]), np.isfinite(A).all(axis=(-2, -1))
        A1 = np.where(finite[:, None, None], A, eye)
        singular = np.linalg.slogdet(A1).sign == 0
        x = np.linalg.solve(np.where(singular[:, None, None], eye, A1), b)
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.maximum(_frobenius(b), _frobenius(A) * _frobenius(x))
        rel = _frobenius(A @ x - b) / np.maximum(scale, 1e-300)
    bad = singular | ~(rel <= SOLVE_RESIDUAL_TOL)       # nan fails too
    x[bad] = 0

    def error(i):
        if not (np.isfinite(A[i]).all() and np.isfinite(b[i]).all()):
            return PropagationError(
                f"non-finite entries entering the {what} solve")
        if singular[i]:
            return SingularityError(f"singular matrix in {what}: {reason}")
        return SingularityError(f"{what} solve residual {rel[i]:.2e} "
                                f"exceeds {SOLVE_RESIDUAL_TOL:.0e}")
    return x, failures(bad, error)


def _named(errors: dict, drive: DriveParams) -> tuple:
    """Per detuning, None or its error; a SingularityError is named with
    the detuning."""
    named = [None] * len(drive.Delta2)
    for i, e in errors.items():
        if isinstance(e, SingularityError):
            cause = e
            e = SingularityError(f"{e} at Delta2 = {drive.Delta2[i]:g} rad/us")
            e.__cause__ = cause
        named[i] = e
    return tuple(named)


def _result(cls, parts: np.ndarray, errors: dict, drive: DriveParams,
            batch: DriveParams):
    """cls of the rows of parts, over the detunings of batch (drive's,
    from `_batch`); a part that is not finite (past the float range) is
    a PropagationError naming it.  A failed detuning's parts are nan; a
    scalar drive.Delta2 gives complex parts and raises its error."""
    bad = ~np.isfinite(parts)
    names = np.array([f.name for f in fields(cls) if f.name != "errors"])
    errors = first_errors(errors, failures(bad.any(axis=0), lambda i: (
        PropagationError(f"non-finite {' and '.join(names[bad[:, i]])}"))))
    named = _named(errors, batch)
    parts[:, list(errors)] = np.nan
    if np.ndim(drive.Delta2) == 0:
        if errors:
            raise named[0]
        parts = [complex(p.item()) for p in parts]
    return cls(*parts, errors=named)


def _systems(drive: DriveParams, atom: AtomParams) -> np.ndarray:
    """The one-atom 4x4 A4 over (rho33, rho23, rho32, rho22), which holds
    d32 = Delta_c + i gamma32 and does not depend on Delta2."""
    Oc, d32 = drive.Omega_c, drive.Delta_c + 1j * atom.gamma32
    return np.array([[1j * atom.Gamma32, Oc, -Oc, 0],
                     [Oc, -np.conj(d32), 0, -Oc],
                     [-Oc, 0, d32, Oc],
                     [-1j * atom.Gamma32, -Oc, Oc, 1j * atom.Gamma21]],
                    dtype=complex)


def _onebody(A4: np.ndarray, atom: AtomParams, r21: np.ndarray,
             r31: np.ndarray) -> tuple[tuple, dict]:
    """(rho11, rho22, rho33, rho32)^(2): y = (rho33, rho23, rho32, rho22)^(2)
    solves A4 y = (0, -rho13, rho31, rho21 - rho12) and rho11 = -(rho22 +
    rho33).  With P = (|rho31|^2, rho21 rho13, rho31 rho12, |rho21|^2)^(1),
    the pure state the weak probe dresses, the first-order equations
    d21 rho21 + Omega_c rho31 = -1 and Omega_c rho21 + d31 rho31 = 0 give
    A4 (y - P) = R P, where R holds the rates that break purity (at the
    half-sum rates only Gamma32).  So y = P + G P, G = A4^-1 R, one solve
    for every detuning (its failure fails them all); y keeps the digits of
    P far from resonance, where a solve for y loses them as Delta2^2.  P
    may overflow: the caller sets np.errstate."""
    kappa = atom.gamma32 - atom.gamma31 - atom.gamma21
    R = 1j * np.diag([2 * atom.gamma31 - atom.Gamma32, -kappa, -kappa,
                      2 * atom.gamma21 - atom.Gamma21])
    R[3, 0] = 1j * atom.Gamma32
    G, errors = _solve_checked(A4[None], R[None],
                               "second-order one-body (4x4)")
    r12, r13 = np.conj(r21), np.conj(r31)
    P = np.array([r31 * r13, r21 * r13, r31 * r12, r21 * r12])
    r33, _, r32, r22 = P + G[0] @ P
    return ((-(r22 + r33), r22, r33, r32),
            dict.fromkeys(range(len(r21)), errors[0]) if errors else {})


def _eig2(S: np.ndarray) -> np.ndarray:
    """Eigenvalues (n, 2) of S (n, 2, 2): lam1 = m +- sqrt(((a - d)/2)^2
    + bc), m = (a + d)/2, with the sign that adds to m, and det S / lam1."""
    a, b, c, d = S[:, 0, 0], S[:, 0, 1], S[:, 1, 0], S[:, 1, 1]
    m, r = (a + d) / 2, np.sqrt(((a - d) / 2) ** 2 + b * c)
    lam1 = m + np.where((m.conj() * r).real < 0, -r, r)
    return np.stack([lam1, (a * d - b * c) / lam1], axis=1)


def _hierarchy(A4: np.ndarray, d21: np.ndarray, d31: np.ndarray,
               D: np.ndarray, Oc: float, r31: np.ndarray, onebody: tuple
               ) -> tuple:
    """(w, a, S, b, errors) of the two-body hierarchy at the n detunings
    of d21 and d31: w (n, 4), a and b (n, 2), S (n, 2, 2), and the errors
    of the one solve, a batched block 4x4.

    The pair 4x4 is MB0 - V e0 e0^T, MB0 = B (+) B, and the 8x8 is
    Q0 - V U U^T, Q0 = A4 (+) B and U = [e0, e2]
    (`oracle.twobody_correlators` solves them as they stand).  Here
    MB0 [zB0, w] = [qB, e0], S = U^T Q0^-1 U, a = U^T Q0^-1 q0 and
    b = U^T Q0^-1 P w zB0_0, with P scattering w onto the rows of
    (rr32_31, rr22_31, rr22_21, rr32_21).  At V = 0 the atoms are
    independent, so zB0 = rho^(1) (x) rho^(1) and a = (rho33, rho32)^(2)
    rho31^(1).  Over the second atom's (rho31, rho21), MB0 and Q0 are
    [[X + d31, Oc], [Oc, X + d21]], X = B or A4, whose blocks commute.
    With t = d21 + d31 and D = det B = d21 d31 - Oc^2, Cayley-Hamilton
    makes (B + d21)(B + d31) - Oc^2 = 2 t B, so

        w = (d21^2 + D, -Oc d21, Oc^2, -Oc d21) / (2 t D),

    and the rho31 half of Q0^-1 [r31; r21] is M^-1 [(A4 + d21) r31 -
    Oc r21], M = A4^2 + t A4 + D.  Rows 0 and 2 of it are S for columns
    0 and 2 of A4 + d21, and b for r31 = (0, 0, w0, w1) rho31^2 and
    r21 = (0, 0, w3, w2) rho31^2.
    """
    (_, _, r33, r32), eye, t = onebody, np.eye(4), d21 + d31
    # past the float range these give inf or nan, for the solve's guards
    # and _shell_pole_sum to refuse
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = np.array([d21 * d21 + D, -Oc * d21, Oc * Oc + 0 * t, -Oc * d21]
                     ) / D / (2 * t)
        A21, w31 = A4 + d21[:, None, None] * eye, w * r31 * r31
        p = A21[..., 2] * w31[0, :, None] + A21[..., 3] * w31[1, :, None]
        p[:, 2:] -= Oc * w31[[3, 2]].T
        M = A4 @ A4 + t[:, None, None] * A4 + D[:, None, None] * eye
        X, errors = _solve_checked(
            M, np.concatenate([A21[..., [0, 2]], p[..., None]], axis=2),
            "third-order two-body (block 4x4)")
        a = np.stack([r33 * r31, r32 * r31], axis=1)
    return w.T, a, X[:, 0:3:2, :2], X[:, 0:3:2, 2], errors


def _correlator_poles(A4: np.ndarray, d21: np.ndarray, d31: np.ndarray,
                      D: np.ndarray, Oc: float, r31: np.ndarray,
                      onebody: tuple) -> tuple[np.ndarray, np.ndarray, dict]:
    """Poles V_k and residues c_k, each (n, 3), of
    rr33_31^(3)(V) = sum_k c_k / (V - V_k), and the errors of the solve,
    at the n detunings of d21 and d31.

    With w, a, S and b of `_hierarchy` and beta = w_0, Sherman-Morrison
    on the pair 4x4 gives zB(V) = zB0 + w zB0_0 g(V), g(V) = V / (1 -
    V beta), and Woodbury on the 8x8

        rr33_31^(3)(V) = e0^T (I - V S)^-1 (a + g(V) b).

    The poles are 1/eig(S) and 1/beta; the numerator is of lower degree
    than the denominator, so there is no polynomial part.
    """
    w, a, S, b, errors = _hierarchy(A4, d21, d31, D, Oc, r31, onebody)
    beta = w[:, :1]
    # coincident poles, or poles past the float range, give non-finite
    # residues; _shell_pole_sum refuses them
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam = _eig2(S)
        V = 1.0 / np.concatenate([lam, beta], axis=1)
        # row 0 of adj(I - V_k S), so that (I - V S)^-1 = adj / det
        adj00, adj01 = 1 - V * S[:, 1, 1, None], V * S[:, 0, 1, None]
        adj0_a = adj00 * a[:, 0, None] + adj01 * a[:, 1, None]
        adj0_b = adj00 * b[:, 0, None] + adj01 * b[:, 1, None]
        c = np.empty_like(V)
        c[:, :2] = ((adj0_a[:, :2] + adj0_b[:, :2] / (lam - beta))
                    / (lam[:, ::-1] - lam))
        c[:, 2] = (-V[:, 2] ** 2 * adj0_b[:, 2]
                   / np.prod(1 - V[:, 2:] * lam, axis=1))
        # the residues scale with a and, through b, with rr31_31 = rho31^2,
        # neither 0 for Oc != 0: below the float range they are lost, and
        # the row fails as a non-finite one, ahead of its solve
        lost = (np.minimum(abs(a[:, 0]), abs(r31 * r31))
                < np.finfo(float).tiny)
    V[lost] = c[lost] = np.nan
    return V, c, {i: e for i, e in errors.items() if not lost[i]}


def _shell_pole_sum(poles: np.ndarray, residues: np.ndarray, C6: float,
                    u_lo: float, u_hi: float) -> tuple[np.ndarray, dict]:
    """int_{u_lo}^{u_hi} sum_k c_k / (C6 u^2 - V_k) du, exactly, for each
    row of poles and residues (n, k); returns (integrals, errors).

    With a_k = sqrt(V_k / C6) each term is
    c_k / (2 a_k C6) [ln(u - a_k) - ln(u + a_k)] between the limits.  The
    differences are taken as log1p of (u_hi -/+ a_k)/(u_lo -/+ a_k) - 1,
    which stays on the principal branch along the segment and keeps full
    precision for poles far from it.  Non-finite poles or residues, two
    poles within _POLE_SEPARATION of each other (relative), or a pole
    within POLE_CLEARANCE segment lengths of [u_lo, u_hi] make that row's
    SingularityError, checked in that order.
    """
    span = u_hi - u_lo
    pairs = list(combinations(range(poles.shape[1]), 2))  # (0, 1), (0, 2), ..
    lo, hi = [p[0] for p in pairs], [p[1] for p in pairs]
    with np.errstate(divide="ignore", invalid="ignore"):
        finite = (np.isfinite(poles).all(axis=1)
                  & np.isfinite(residues).all(axis=1))
        p_hi, p_lo = poles[:, hi], poles[:, lo]
        coincide = (np.abs(p_hi - p_lo) <= _POLE_SEPARATION
                    * np.maximum(np.abs(p_hi), np.abs(p_lo)))
        a = np.sqrt(poles / C6)                # principal root, Re a >= 0
        dist = np.abs(a - np.clip(a.real, u_lo, u_hi)) / span
        logs = np.log1p(span / (u_lo - a)) - np.log1p(span / (u_lo + a))
        total = np.sum(residues / (2 * a * C6) * logs, axis=1)

    def error(i):
        p = poles[i]
        if not finite[i]:
            return SingularityError(
                f"non-finite pole or residue of rr33_31^(3): poles {p}")
        if coincide[i].any():
            m = np.argmax(coincide[i])
            return SingularityError(
                f"poles V = {p[lo[m]]:.6g} and V = {p[hi[m]]:.6g} rad/us "
                f"of rr33_31^(3) coincide")
        k = np.argmin(dist[i])
        return SingularityError(
            f"pole V = {p[k]:.6g} rad/us of rr33_31^(3) lies "
            f"{dist[i, k]:.2g} shell lengths from the shell")
    bad = ~finite | coincide.any(axis=1) | ~(dist.min(axis=1) > POLE_CLEARANCE)
    return total, failures(bad, error)


def _response(drive: DriveParams, atom: AtomParams, upper_factor: float = 3.0
              ) -> tuple[np.ndarray, dict]:
    """The one pass over a batch of detunings (drive from `_batch`).

    Returns (parts, errors): parts is (9, n), the `ResponseParts` fields
    as rows; errors maps each failed detuning to its first error.  The
    systems are built once, at Delta2 = 0, and shifted to the detunings.
    """
    far = np.abs(drive.Delta2) > _MAX_DETUNING    # nan fails in the solves
    past = failures(far, lambda i: DomainError(
        f"Delta2 = {drive.Delta2[i]:g} rad/us is outside the float range "
        f"(|Delta2| <= {_MAX_DETUNING:g})"))
    drive = replace(drive, Delta2=np.where(far, 0.0, drive.Delta2))
    Oc, (d21, d31, _) = drive.Omega_c, _denominators(drive, atom)
    D, A4 = d21 * d31 - _square(Oc), _systems(drive, atom)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r21, r31 = -d31 / D, Oc / D
        onebody, second = _onebody(A4, atom, r21, r31)
        r11, r22, _, r32 = onebody
        local = (d31 * (r22 - r11) - Oc * r32) / D
    first = failures(D == 0, lambda i: SingularityError(
        "EIT denominator vanishes"))
    third = shell = {}
    # exact zeros: Oc * 0 / D could carry a signed zero into the CSV
    I = nl = np.zeros_like(local)
    if atom.C6 != 0 and atom.Na != 0 and Oc != 0:
        Rb = atom.blockade_radius(Oc)
        poles, residues, third = _correlator_poles(A4, d21, d31, D, Oc, r31,
                                                   onebody)
        total, shell = _shell_pole_sum(poles, residues, atom.C6,
                                       (upper_factor * Rb) ** -3, Rb ** -3)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            I = atom.Na * 4.0 * np.pi * (atom.C6 / 3.0) * total
            nl = -Oc * I / D
    return (np.array([r21, r31, *onebody, local, I, nl]),
            first_errors(past, first, second, third, shell))


@dataclass(frozen=True)
class ResponseParts:
    """rho^(1), rho^(2) and the parts of rho21^(3), from one pass:
    local = [d31 (rho22 - rho11)^(2) - Omega_c rho32^(2)] / D and
    nonlocal = -Omega_c I / D, D = d21 d31 - Omega_c^2, with the shell
    integral I = Na 4 pi int s^2 V(s) rr33_31^(3)(s) ds from R_b to
    upper_factor R_b.  In u = 1/s^3, s^2 V ds = (C6/3) du and the
    integrand is rational in V = C6 u^2 with three simple poles, so I is
    a sum of logarithms; I = 0 when C6, Na or Omega_c is 0.  Parts and
    `errors` are as in `SusceptibilityBreakdown`."""

    rho21_1: complex
    rho31_1: complex
    rho11_2: complex
    rho22_2: complex
    rho33_2: complex
    rho32_2: complex
    rho21_3_local: complex
    shell_integral: complex
    rho21_3_nonlocal: complex
    errors: tuple = ()


def response_parts(drive: DriveParams, atom: AtomParams,
                   upper_factor: float = 3.0) -> ResponseParts:
    """The named parts of `susceptibility`'s pass, for a scalar or 1-D
    array Delta2 alike; the shell ends at upper_factor R_b."""
    batch = _batch(drive)
    return _result(ResponseParts, *_response(batch, atom, upper_factor),
                   drive, batch)


@dataclass(frozen=True)
class SusceptibilityBreakdown:
    """chi split into linear, local-Kerr and nonlocal-Kerr contributions.

    The parts are complex numbers, or arrays over the detunings of an
    array call; `errors` holds, per detuning, None or the typed error a
    scalar call at that detuning raises (the parts are nan there).
    """

    chi1: complex
    chi3_local_contrib: complex
    chi3_nonlocal_contrib: complex
    errors: tuple = ()

    @property
    def total(self) -> complex:
        return self.chi1 + self.chi3_local_contrib + self.chi3_nonlocal_contrib

    @property
    def total_local(self) -> complex:
        """Total with the interaction-induced part switched off."""
        return self.chi1 + self.chi3_local_contrib


def susceptibility(drive: DriveParams, atom: AtomParams) -> SusceptibilityBreakdown:
    """Probe susceptibility chi = K rho21 / Omega_p, split by order.

    drive.Delta2 is a scalar, or a 1-D array solved as one batch.  A
    scalar call returns complex parts and raises the detuning's error; an
    array call returns arrays and reports each failure in `errors`
    against its own detuning.  chi1 scales as Na, chi3_nonlocal_contrib
    as Na^2 (one power through K, one through the shell integral).
    """
    batch = _batch(drive)
    parts, errors = _response(batch, atom)
    r21, local, nl = parts[[0, 6, 8]]
    K, Op2 = atom.chi_prefactor, _square(drive.Omega_p)
    with np.errstate(over="ignore", invalid="ignore"):
        # + 0: a zero K or Omega_p times a negative part is 0, not -0
        chi = np.array([K * r21, K * Op2 * local, K * Op2 * nl]) + 0.0
    return _result(SusceptibilityBreakdown, chi, errors, drive, batch)
