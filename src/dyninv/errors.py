"""Exception types shared across the package."""

import math
import numbers


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
    """Reject a value that is not a finite real number (numpy floats and integers count, bools do not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
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
