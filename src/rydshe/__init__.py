"""rydshe: spin-resolved beam shifts off a glass-Rydberg-glass stack.

Computes the nonlocal nonlinear susceptibility of an interacting
Rydberg gas under ladder EIT, dresses the middle layer of a planar
glass-atoms-glass stack with it, and propagates a Gaussian probe
through the zeroth-order reflection operator to obtain the closed-form
spin-resolved transverse centroid shifts of the reflected beam.
"""

__version__ = "0.1.0"

from .errors import (RydsheError, DomainError, SingularityError,
                     PropagationError, SearchError, WindowError, ConfigError)
from .quantum import (AtomParams, DriveParams, ResponseParts,
                      SusceptibilityBreakdown, derive_dipole_moment,
                      response_parts, susceptibility)
from .multilayer import Layer, LayerStack, stack_fresnel
from .beam_shift import (BeamSpec, ShiftResult, analytic_gaussian_shift,
                         shifts_from_coefficients, medium_index,
                         intensity_profiles, intensity_maps_2d)
from .config import (RunConfig, parse_config, serialize_config,
                     canonical_atom, canonical_drive, canonical_stack)
from .sweeps import SweepResult, run_sweep, emit

__all__ = [
    "RydsheError", "DomainError", "SingularityError", "PropagationError",
    "SearchError", "WindowError", "ConfigError",
    "AtomParams", "DriveParams", "ResponseParts", "SusceptibilityBreakdown",
    "derive_dipole_moment", "response_parts", "susceptibility",
    "Layer", "LayerStack", "stack_fresnel",
    "BeamSpec", "ShiftResult", "analytic_gaussian_shift",
    "shifts_from_coefficients", "medium_index", "intensity_profiles",
    "intensity_maps_2d",
    "RunConfig", "parse_config", "serialize_config", "canonical_atom",
    "canonical_drive", "canonical_stack",
    "SweepResult", "run_sweep", "emit",
]
