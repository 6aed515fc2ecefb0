"""Exception types shared across the package."""

import math
import numbers

import numpy as np


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class SolverError(RuntimeError):
    """An iterative solver failed to converge.

    Carries the failing time-step index when applicable.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class InnerSolveError(SolverError):
    """The conjugate-gradient inner solve hit its iteration cap.

    ``achieved`` is the relative residual reached when the cap was hit.
    """

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


class SelfTestError(RuntimeError):
    """The oracle self-test gate failed, so no experiment was run."""


def require_real(value, name):
    """Reject a value that is not a finite real number in float range (numpy floats
    and integers count, bools do not)."""
    try:
        ok = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        ok = False
    if not ok:
        raise ValidationError(f"{name} must be a finite real number, got {value!r}")


def require_noise_levels(*levels):
    """Reject a noise level that is not a finite real number or is negative."""
    for level in levels:
        require_real(level, "a noise level")
        if level < 0:
            raise ValidationError(f"noise levels must be nonnegative, got {level}")


def require_count(value, name, least=1):
    """Reject a count that is not an integer (numpy integers count, bools do not) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValidationError(f"{name} must be an integer of at least {least}, got {value!r}")


def require_str(value, name):
    """Reject a value that is not a string (numpy strings count)."""
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a string, got {value!r}")


def require_bool(value, name):
    """Reject a value that is not a bool (numpy bools count, integers do not)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{name} must be a bool, got {value!r}")
