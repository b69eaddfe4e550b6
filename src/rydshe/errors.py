"""Exception types shared across the package, and the earliest-error rule."""


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


def failures(bad, error) -> dict:
    """{i: error(i)} for the flat indices i where the boolean array `bad`
    is set."""
    return {i: error(i) for i in bad.ravel().nonzero()[0].tolist()}


def first_errors(*stages: dict) -> dict:
    """{i: error} of each failed element, from the earliest stage that
    failed it; each stage is an {i: error} map, as `failures` builds."""
    return {i: e for errors in reversed(stages) for i, e in errors.items()}
