"""Exception types shared across the package."""

import math


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


def require_finite(config, names):
    """Reject a config whose named number fields include NaN or an infinity."""
    bad = [name for name in names if not math.isfinite(getattr(config, name))]
    if bad:
        raise ValidationError(f"{bad[0]} must be finite, got {getattr(config, bad[0])}")
