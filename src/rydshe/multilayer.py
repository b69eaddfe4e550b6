"""Transfer-matrix optics of the planar stack (2x2 characteristic matrices).

The stack is semi-infinite entry medium | finite layers | semi-infinite
exit medium.  For each polarization the layer matrix is

    M_j = [[cos d_j, -i sin d_j / p_j], [-i p_j sin d_j, cos d_j]]

with phase thickness d_j = k0 n_j d_j cos(theta_j) and impedance
p_j = n_j / cos(theta_j) (p-pol) or n_j cos(theta_j) (s-pol).  The
amplitude coefficients of the whole stack follow from the ordered
product M = M_1 M_2 ... :

    r = [(M11 + M12 p_out) p_in - (M21 + M22 p_out)] / D
    t = 2 p_in / D,   D = (M11 + M12 p_out) p_in + (M21 + M22 p_out)

`stack_fresnel` accepts a scalar or a numpy array of incidence angles,
and a layer's index may be an array too: indices and angles broadcast
elementwise, so one call evaluates a whole sweep grid.
A call raises its first failure; `stack_fresnel(..., masked=True)`
instead reports each element's failure as a fault code (`fault_error`
names it), so one bad element cannot fail its batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RydsheError, SingularityError

# cap on Im(delta): beyond this the layer is opaque and cosh/sinh overflow
_MAX_IM_DELTA = 35.0
# Im(n) floor.  Physically the layer is passive (Im n >= 0), but the
# truncated third-order susceptibility produces weak gain pockets
# (Im chi ~ -1e-2) at some detunings; those are admitted, while a grossly
# active index -- the signature of a conjugated chi -- is rejected.
_PASSIVITY_TOL = 0.1

# fault codes, in the order the checks run (0: the element is fine)
_ACTIVE, _IMPEDANCE, _DENOMINATOR = 1, 2, 3
_FAULTS = {
    _ACTIVE: (DomainError, "layer index is strongly active (Im n << 0)"),
    _IMPEDANCE: (SingularityError,
                 "vanishing layer impedance (grazing pathology)"),
    _DENOMINATOR: (SingularityError,
                   "vanishing denominator in stack Fresnel formula"),
}


def fault_error(fault) -> RydsheError | None:
    """The error a raising call gives for the fault codes `fault`: that
    of the earliest check any element fails, or None when none fails."""
    fault = np.asarray(fault)
    if not fault.any():
        return None
    kind, message = _FAULTS[int(fault[fault > 0].min())]
    return kind(message)


@dataclass(frozen=True)
class Layer:
    """One finite layer: complex refractive index and thickness (um).

    n may be an array that broadcasts against the incidence angles;
    `stack_fresnel` checks it for passivity element by element.
    """

    n: complex | np.ndarray
    d: float

    def __post_init__(self):
        if self.d < 0:
            raise DomainError("layer thickness must be >= 0")


@dataclass(frozen=True)
class LayerStack:
    """Semi-infinite entry/exit media around an ordered list of layers."""

    n_in: float
    layers: tuple[Layer, ...] = field(default_factory=tuple)
    n_out: float = 1.0

    def __post_init__(self):
        if self.n_in <= 0 or self.n_out <= 0:
            raise DomainError("semi-infinite media need real positive indices")
        object.__setattr__(self, "layers", tuple(self.layers))


def refraction_cosine(n_in: float, theta_i, n_j) -> np.ndarray | complex:
    """cos(theta_j) continued by Snell's law into a (complex) medium.

    Branch chosen so Im(n_j cos theta_j) >= 0: the transmitted/evanescent
    wave decays in the propagation direction.
    """
    s = n_in * np.sin(theta_i) / n_j
    c = np.sqrt(1.0 - s * s + 0j)
    flip = np.imag(n_j * c) < 0
    return np.where(flip, -c, c)


def _impedance(n, cos_t, polarization: str):
    if polarization == "p":
        return n / cos_t
    if polarization == "s":
        return n * cos_t
    raise DomainError("polarization must be 'p' or 's'")


def _layer_matrix(layer: Layer, theta_i, k0: float, n_in: float,
                  polarization: str) -> tuple[np.ndarray, np.ndarray]:
    """(M, singular): the characteristic 2x2 matrices of one layer, shape
    (..., 2, 2) and unimodular by construction, and where the impedance
    vanishes (M is then computed with unit impedance and means nothing)."""
    cos_t = refraction_cosine(n_in, theta_i, layer.n)
    p = _impedance(layer.n, cos_t, polarization)
    singular = p == 0
    if singular.any():
        p = np.where(singular, 1.0, p)
    delta = np.asarray(k0 * layer.n * layer.d * cos_t, dtype=complex)
    # opaque-layer guard: clamp the decay exponent, the phase is then moot
    im = np.clip(delta.imag, None, _MAX_IM_DELTA)
    delta = delta.real + 1j * im
    cd, sd = np.cos(delta), np.sin(delta)
    M = np.empty(np.shape(delta) + (2, 2), dtype=complex)
    M[..., 0, 0] = cd
    M[..., 0, 1] = -1j * sd / p
    M[..., 1, 0] = -1j * p * sd
    M[..., 1, 1] = cd
    return M, singular


def stack_fresnel(stack: LayerStack, theta_i, k0: float, polarization: str,
                  masked: bool = False):
    """(r, t) of the stack for one polarization; broadcasts over theta_i
    and the layer indices.

    A failing element raises the error of `fault_error`.  With
    masked=True the call returns (r, t, fault) instead: fault holds each
    element's code (0 when it is fine), and r and t are nan where it is
    not.
    """
    theta_i = np.asarray(theta_i, dtype=float)
    shape = np.broadcast_shapes(np.shape(theta_i),
                                *(np.shape(layer.n) for layer in stack.layers))
    if not shape:
        # one element through the array loops: numpy's scalar arithmetic
        # rounds differently, and a scalar call must equal an array call
        theta_i = theta_i.reshape(1)
    grid = shape or (1,)
    # the ordered product of the layer matrices, and where any layer's
    # index is strongly active or its impedance vanishes
    M = np.broadcast_to(np.eye(2, dtype=complex), grid + (2, 2)).copy()
    active = np.zeros(grid, dtype=bool)
    singular = np.zeros(grid, dtype=bool)
    for layer in stack.layers:
        L, bad = _layer_matrix(layer, theta_i, k0, stack.n_in, polarization)
        M = M @ L
        active |= np.imag(layer.n) < -_PASSIVITY_TOL
        singular |= bad
    # entry cosine through the same branch formula so that identical
    # entry/exit media give p1 == p3 exactly (trivial-stack reciprocity)
    cos_in = refraction_cosine(stack.n_in, theta_i, stack.n_in + 0j)
    cos_out = refraction_cosine(stack.n_in, theta_i, stack.n_out + 0j)
    p1 = _impedance(stack.n_in, cos_in, polarization)
    p3 = _impedance(stack.n_out, cos_out, polarization)
    top = (M[..., 0, 0] + M[..., 0, 1] * p3) * p1
    bot = M[..., 1, 0] + M[..., 1, 1] * p3
    den = top + bot
    fault = np.select([active, singular, den == 0],
                      [_ACTIVE, _IMPEDANCE, _DENOMINATOR], 0)
    failed = fault > 0
    if failed.any():
        if not masked:
            raise fault_error(fault)
        den = np.where(failed, 1.0, den)
    r = (top - bot) / den
    t = 2 * p1 / den
    if masked:
        return (np.where(failed, np.nan, r).reshape(shape),
                np.where(failed, np.nan, t).reshape(shape), fault.reshape(shape))
    if not shape:
        return complex(r[0]), complex(t[0])
    return r, t

