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

All angle-dependent entry points accept scalars or numpy arrays of
incidence angles and broadcast elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SearchError, SingularityError

# cap on Im(delta): beyond this the layer is opaque and cosh/sinh overflow
_MAX_IM_DELTA = 35.0
# Im(n) floor.  Physically the layer is passive (Im n >= 0), but the
# truncated third-order susceptibility produces weak gain pockets
# (Im chi ~ -1e-2) at some detunings; those are admitted, while a grossly
# active index -- the signature of a conjugated chi -- is rejected.
_PASSIVITY_TOL = 0.1


@dataclass(frozen=True)
class Layer:
    """One finite layer: complex refractive index and thickness (um)."""

    n: complex
    d: float

    def __post_init__(self):
        if self.d < 0:
            raise DomainError("layer thickness must be >= 0")
        if complex(self.n).imag < -_PASSIVITY_TOL:
            raise DomainError("layer index is strongly active (Im n << 0)")


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

    def with_interior(self, n: complex, index: int = 0) -> "LayerStack":
        """Copy of the stack with layer `index` given refractive index n."""
        layers = list(self.layers)
        layers[index] = Layer(n=n, d=layers[index].d)
        return LayerStack(n_in=self.n_in, layers=tuple(layers), n_out=self.n_out)


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


def layer_matrix(layer: Layer, theta_i, k0: float, n_in: float,
                 polarization: str) -> np.ndarray:
    """Characteristic 2x2 matrix of one layer; unimodular by construction.

    Shape (..., 2, 2) for array-valued theta_i.
    """
    cos_t = refraction_cosine(n_in, theta_i, layer.n)
    p = _impedance(layer.n, cos_t, polarization)
    if np.any(p == 0):
        raise SingularityError("vanishing layer impedance (grazing pathology)")
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
    return M


def stack_matrix(stack: LayerStack, theta_i, k0: float, polarization: str) -> np.ndarray:
    shape = np.shape(np.asarray(theta_i, dtype=float))
    M = np.broadcast_to(np.eye(2, dtype=complex), shape + (2, 2)).copy()
    for layer in stack.layers:
        M = M @ layer_matrix(layer, theta_i, k0, stack.n_in, polarization)
    return M


def stack_fresnel(stack: LayerStack, theta_i, k0: float, polarization: str):
    """(r, t) of the stack for one polarization; broadcasts over theta_i."""
    theta_i = np.asarray(theta_i, dtype=float)
    M = stack_matrix(stack, theta_i, k0, polarization)
    # entry cosine through the same branch formula so that identical
    # entry/exit media give p1 == p3 exactly (trivial-stack reciprocity)
    cos_in = refraction_cosine(stack.n_in, theta_i, stack.n_in + 0j)
    cos_out = refraction_cosine(stack.n_in, theta_i, stack.n_out + 0j)
    p1 = _impedance(stack.n_in, cos_in, polarization)
    p3 = _impedance(stack.n_out, cos_out, polarization)
    top = (M[..., 0, 0] + M[..., 0, 1] * p3) * p1
    bot = M[..., 1, 0] + M[..., 1, 1] * p3
    den = top + bot
    if np.any(den == 0):
        raise SingularityError("vanishing denominator in stack Fresnel formula")
    r = (top - bot) / den
    t = 2 * p1 / den
    if theta_i.ndim == 0:
        return complex(r), complex(t)
    return r, t


def brewster_angle(stack: LayerStack, k0: float,
                   theta_min: float = math.radians(5.0),
                   theta_max: float = math.radians(85.0),
                   coarse: int = 20001) -> float:
    """Incidence angle minimizing |r_p|, to ~1e-9 rad.

    Coarse scan (fine enough to resolve slab interference fringes), then
    three 101-point scans, each over the two steps of the previous scan
    around its minimum.  Raises SearchError when the coarse minimum sits
    on the scan edge.
    """
    thetas = np.linspace(theta_min, theta_max, coarse)
    i = int(np.argmin(np.abs(stack_fresnel(stack, thetas, k0, "p")[0])))
    if i == 0 or i == coarse - 1:
        raise SearchError("no interior |r_p| minimum in the scan range")
    for _ in range(3):
        i = min(max(i, 1), len(thetas) - 2)
        thetas = np.linspace(thetas[i - 1], thetas[i + 1], 101)
        i = int(np.argmin(np.abs(stack_fresnel(stack, thetas, k0, "p")[0])))
    return float(thetas[i])
