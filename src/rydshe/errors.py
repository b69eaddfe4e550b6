"""Exception types shared across the package."""


class RydsheError(Exception):
    """Base class for all package errors."""


class DomainError(RydsheError):
    """An input value is outside the physically meaningful domain."""


class SingularityError(RydsheError):
    """A linear system or closed-form denominator is (numerically) singular."""


class PropagationError(RydsheError):
    """An upstream quantity contained NaN/Inf and poisoned a downstream solve."""


class SearchError(RydsheError):
    """A bracketing/minimization search found no interior solution."""


class WindowError(RydsheError):
    """Field power leaked into the edge of the transform window (aliasing)."""


class ConfigError(RydsheError):
    """A run configuration file is malformed or inconsistent."""
