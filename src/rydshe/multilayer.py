"""Closed-form optics of the planar slab (Born & Wolf, Principles of
Optics, sec. 1.6).

The stack is semi-infinite entry medium | one finite slab |
semi-infinite exit medium; a stack with no layers is the bare interface
between the two media, which is the slab formula at d = 0.  For each
polarization the media have impedances p_j = n_j / cos(theta_j) (p-pol)
or n_j cos(theta_j) (s-pol), entry 1, slab 2, exit 3, and the slab has
phase thickness delta = k0 n_2 d cos(theta_2).  Then

    D = cos(delta) (p1 + p3) - i sin(delta) (p1 p3 / p2 + p2)
    r = [cos(delta) (p1 - p3) - i sin(delta) (p1 p3 / p2 - p2)] / D
    t = 2 p1 / D

which is the slab's characteristic-matrix result multiplied out.

`stack_fresnel` accepts a scalar or a numpy array of incidence angles,
and the slab's index may be an array too: indices and angles broadcast
elementwise, so one call evaluates a whole sweep grid.
A call raises its first failure; `stack_fresnel(..., masked=True)`
instead reports each element's failure as a fault code (`fault_error`
names it), so one bad element cannot fail its batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RydsheError, SingularityError

# cap on Im(delta): beyond this the slab is opaque and cosh/sinh overflow
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
        if not (self.d >= 0):
            raise DomainError("layer thickness must be >= 0")


@dataclass(frozen=True)
class LayerStack:
    """Semi-infinite entry/exit media around at most one layer, the slab."""

    n_in: float
    layers: tuple[Layer, ...] = ()
    n_out: float = 1.0

    def __post_init__(self):
        if not (self.n_in > 0 and self.n_out > 0):
            raise DomainError("semi-infinite media need real positive indices")
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.layers) > 1:
            raise DomainError("a stack holds at most one layer")


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


def stack_fresnel(stack: LayerStack, theta_i, k0: float, polarization: str,
                  masked: bool = False):
    """(r, t) of the stack for one polarization; broadcasts over theta_i
    and the slab index.

    A failing element raises the error of `fault_error`.  With
    masked=True the call returns (r, t, fault) instead: fault holds each
    element's code (0 when it is fine), and r and t are nan where it is
    not.
    """
    theta_i = np.asarray(theta_i, dtype=float)
    # no layers: the bare interface, the slab formula at d = 0
    (slab,) = stack.layers or (Layer(n=stack.n_in + 0j, d=0.0),)
    shape = np.broadcast_shapes(np.shape(theta_i), np.shape(slab.n))
    if not shape:
        # one element through the array loops: numpy's scalar arithmetic
        # rounds differently, and a scalar call must equal an array call
        theta_i = theta_i.reshape(1)
    # entry cosine through the same branch formula so that identical
    # entry/exit media give p1 == p3 exactly (trivial-stack reciprocity)
    cos_in = refraction_cosine(stack.n_in, theta_i, stack.n_in + 0j)
    cos_out = refraction_cosine(stack.n_in, theta_i, stack.n_out + 0j)
    cos_t = refraction_cosine(stack.n_in, theta_i, slab.n)
    p1 = _impedance(stack.n_in, cos_in, polarization)
    p2 = _impedance(slab.n, cos_t, polarization)
    p3 = _impedance(stack.n_out, cos_out, polarization)
    # the bare interface has no layer impedance to vanish
    singular = (p2 == 0) & bool(stack.layers)
    p2 = np.where(p2 == 0, 1.0, p2)
    delta = k0 * slab.n * slab.d * cos_t
    # opaque-slab guard: clamp the decay exponent, the phase is then moot
    delta = delta.real + 1j * np.clip(delta.imag, None, _MAX_IM_DELTA)
    cd, sd = np.cos(delta), np.sin(delta)
    q = p1 * p3 / p2
    den = cd * (p1 + p3) - 1j * sd * (q + p2)
    fault = np.select([np.imag(slab.n) < -_PASSIVITY_TOL, singular, den == 0],
                      [_ACTIVE, _IMPEDANCE, _DENOMINATOR], 0)
    failed = fault > 0
    if failed.any():
        if not masked:
            raise fault_error(fault)
        den = np.where(failed, 1.0, den)
    r = (cd * (p1 - p3) - 1j * sd * (q - p2)) / den
    t = 2 * p1 / den
    if masked:
        return (np.where(failed, np.nan, r).reshape(shape),
                np.where(failed, np.nan, t).reshape(shape), fault.reshape(shape))
    if not shape:
        return complex(r[0]), complex(t[0])
    return r, t
