"""Closed-form optics of the planar slab (Born & Wolf, Principles of
Optics, sec. 1.6).

The stack is semi-infinite entry medium | one finite slab |
semi-infinite exit medium; a stack with no layers is the bare interface
between the two media, which is the slab formula at d = 0.  The media,
entry 1, slab 2, exit 3, enter through z_j = n_j cos(theta_j) for s
(their impedances) or cos(theta_j) / n_j for p (their admittances), and
the slab has phase thickness delta = k0 n_2 d cos(theta_2).  Then

    D = cos(delta) z2 (z1 + z3) - i sin(delta) (z2^2 + z1 z3)
    r = +-[cos(delta) z2 (z1 - z3) - i sin(delta) (z1 z3 - z2^2)] / D
    t = 2 z1 z2 / D (s),  2 z2 z3 / D (p)

with + for s and - for p, the slab's characteristic-matrix result
multiplied out.  No z_j is infinite, so r and t stay finite where any
wave grazes (z_j = 0).

`stack_fresnel` accepts a scalar or a numpy array of incidence angles,
and the slab's index may be an array too: indices and angles broadcast
elementwise, so one call evaluates a whole sweep grid.  Each element is
checked for a zero slab index, then an active one, then a slab wave
grazing at its critical angle, then a vanishing denominator, then a
non-finite r or t.  As in the other stages, a scalar call raises its
earliest failing check, and an array call reports each element's in
`errors`, so one cannot fail its batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, PropagationError, SingularityError,
                     failures, first_errors)

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


# an input past the float range gives a non-finite r or t, which the
# last check reports in place of a numpy warning
@np.errstate(over="ignore", invalid="ignore")
def stack_fresnel(stack: LayerStack, theta_i, k0: float, polarization: str):
    """(r, t) of the stack for one polarization; broadcasts over theta_i
    and the slab index.

    A scalar angle and index give complex (r, t) and raise the error of
    the earliest check that fails.  An array call returns (r, t, errors):
    errors maps each failed element's flat index to the error a call on
    that element alone raises, and r and t are nan there.
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
    # entry/exit media give z1 == z3 exactly (trivial-stack reciprocity)
    cos_in = refraction_cosine(stack.n_in, theta_i, stack.n_in + 0j)
    cos_out = refraction_cosine(stack.n_in, theta_i, stack.n_out + 0j)
    # a zero slab index has no refraction cosine: a fault, computed with
    # a stand-in index 1
    n2 = np.where(slab.n == 0, 1.0, slab.n)
    cos_t = refraction_cosine(stack.n_in, theta_i, n2)
    delta = k0 * n2 * slab.d * cos_t
    # opaque-slab guard: clamp the decay exponent, the phase is then moot
    delta = delta.real + 1j * np.clip(delta.imag, None, _MAX_IM_DELTA)
    cd, sd = np.cos(delta), np.sin(delta)
    if polarization == "s":
        z1, z2, z3 = stack.n_in * cos_in, n2 * cos_t, stack.n_out * cos_out
    else:
        z1, z2, z3 = cos_in / stack.n_in, cos_t / n2, cos_out / stack.n_out
    # r changes sign from s to p: p takes each difference the other way
    sub = np.subtract if polarization == "s" else lambda x, y: y - x
    den = cd * z2 * (z1 + z3) - 1j * sd * (z2 * z2 + z1 * z3)
    r_num = cd * z2 * sub(z1, z3) - 1j * sd * sub(z1 * z3, z2 * z2)
    t_num = 2 * z2 * (z1 if polarization == "s" else z3)
    zero = den == 0
    den[zero] = 1.0                     # a fault below: no division by 0
    r, t = r_num / den, t_num / den
    # the earliest check an element fails gives its error
    errors = first_errors(*(
        failures(np.broadcast_to(bad, den.shape), lambda i: kind(message))
        for bad, kind, message in (
            (slab.n == 0, DomainError, "layer index is zero"),
            (np.imag(slab.n) < -_PASSIVITY_TOL, DomainError,
             "layer index is strongly active (Im n << 0)"),
            ((cos_t == 0) & bool(stack.layers), SingularityError,
             "vanishing layer impedance (grazing pathology)"),
            (zero, SingularityError,
             "vanishing denominator in stack Fresnel formula"),
            (~(np.isfinite(r) & np.isfinite(t)), PropagationError,
             "non-finite r or t"))))
    r.flat[list(errors)] = t.flat[list(errors)] = np.nan
    if shape:
        return r, t, errors
    if errors:
        raise errors[0]
    return complex(r[0]), complex(t[0])
