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

which is the slab's characteristic-matrix result multiplied out.  For p
both are evaluated times y1 y2 y3, in the admittances y_j = 1 / p_j,
which keeps them finite at the exit medium's critical angle (y3 = 0).

`stack_fresnel` accepts a scalar or a numpy array of incidence angles,
and the slab's index may be an array too: indices and angles broadcast
elementwise, so one call evaluates a whole sweep grid.  Each element is
checked for an active slab index, then a slab wave grazing at its
critical angle, then a vanishing denominator.  A masked call reports
each element's error in an `errors` tuple, as the quantum and beam
stages do, so one bad element cannot fail its batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError

# cap on Im(delta): beyond this the slab is opaque and cosh/sinh overflow
_MAX_IM_DELTA = 35.0
# Im(n) floor.  Physically the layer is passive (Im n >= 0), but the
# truncated third-order susceptibility produces weak gain pockets
# (Im chi ~ -1e-2) at some detunings; those are admitted, while a grossly
# active index -- the signature of a conjugated chi -- is rejected.
_PASSIVITY_TOL = 0.1

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


def stack_fresnel(stack: LayerStack, theta_i, k0: float, polarization: str,
                  masked: bool = False):
    """(r, t) of the stack for one polarization; broadcasts over theta_i
    and the slab index.

    A call raises the error of the earliest check that any element
    fails.  With masked=True it returns (r, t, errors) instead: errors
    holds per element (flattened) None or the error a call on that
    element alone raises, and r and t are nan where it is set.
    """
    if polarization not in ("p", "s"):
        raise DomainError("polarization must be 'p' or 's'")
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
    # a grazing slab wave (cos_t = 0) has a zero (s) or infinite (p)
    # impedance: a fault, computed with a stand-in cosine 1 so that
    # nothing divides by 0.  The bare interface has no layer to fault,
    # and there sin(delta) = 0 drops the stand-in.
    grazing = cos_t == 0
    cos_2 = np.where(grazing, 1.0, cos_t)
    delta = k0 * slab.n * slab.d * cos_t
    # opaque-slab guard: clamp the decay exponent, the phase is then moot
    delta = delta.real + 1j * np.clip(delta.imag, None, _MAX_IM_DELTA)
    cd, sd = np.cos(delta), np.sin(delta)
    if polarization == "s":
        p1, p2, p3 = stack.n_in * cos_in, slab.n * cos_2, stack.n_out * cos_out
        q = p1 * p3 / p2
        den = cd * (p1 + p3) - 1j * sd * (q + p2)
        r_num, t_num = cd * (p1 - p3) - 1j * sd * (q - p2), 2 * p1
    else:
        # admittance form: finite where the exit wave grazes (y3 = 0)
        y1, y2, y3 = cos_in / stack.n_in, cos_2 / slab.n, cos_out / stack.n_out
        den = cd * y2 * (y1 + y3) - 1j * sd * (y2 * y2 + y1 * y3)
        r_num = cd * y2 * (y3 - y1) - 1j * sd * (y2 * y2 - y1 * y3)
        t_num = 2 * y2 * y3
    checks = ((np.imag(slab.n) < -_PASSIVITY_TOL, DomainError,
               "layer index is strongly active (Im n << 0)"),
              (grazing & bool(stack.layers), SingularityError,
               "vanishing layer impedance (grazing pathology)"),
              (den == 0, SingularityError,
               "vanishing denominator in stack Fresnel formula"))
    errors = [None] * den.size
    failed = np.zeros(den.shape, dtype=bool)
    for bad, kind, message in checks:         # the earliest check wins
        bad = np.broadcast_to(bad, den.shape) & ~failed
        if bad.any():
            if not masked:
                raise kind(message)
            failed |= bad
            for i in np.flatnonzero(bad).tolist():
                errors[i] = kind(message)
    den = np.where(failed, 1.0, den)
    r, t = r_num / den, t_num / den
    if masked:
        return (np.where(failed, np.nan, r).reshape(shape),
                np.where(failed, np.nan, t).reshape(shape), tuple(errors))
    if not shape:
        return complex(r[0]), complex(t[0])
    return r, t
