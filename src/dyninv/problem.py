"""The benchmark problem, semilinear diffusion with an unknown source, and its hooks.

The problem contract: the model is autonomous, so no hook takes a time; theta
is the source on every interior node, so f_theta is the identity; the state
is observed in full (the observation is the state) and the evolution starts
from zero whatever theta is.  The operators state these as arithmetic, not
hooks.  They call the model ``f(u, theta)``, ``inner_theta``, the
``reaction(u, theta)`` (f plus K u, integrated explicitly under 'imex') and
its diagonal slope ``reaction_slope(u)``, which theta, a source, does not
enter; hooks broadcast over a leading axis of time nodes.  ``f`` checks its
theta per call (:meth:`SemilinearDiffusion.check_theta`); the other hooks rely
on ``methods.run`` for shape checks.  The reaction is pointwise, so
f_u = -K + diag(reaction_slope) is read from the slope of u alone:
``apply_jac(u, v)`` applies it (f_u is self-adjoint under the H pairing),
'imex' is linearized through the slope, and every 'newton' matrix
I - tau f_u is tridiagonal, solved without forming it (``f_u_matrix(u)``
assembles f_u densely for tests only).
"""

import math

import numpy as np

from .errors import ValidationError, require_real
from .spaces import DiscreteGelfandTriple, apply_stiffness


def signed_square(x, gain: float = 10.0):
    """The benchmark nonlinearity gain * sign(x) * x^2 (odd, C^1).

    Computed as (gain * x) * |x|, which rounds exactly like
    ((gain * sign(x)) * x) * x because rounding is symmetric in the sign.
    """
    out = gain * x
    out *= np.abs(x)
    return out


def signed_square_slope(x, gain: float = 10.0):
    """Derivative of :func:`signed_square`: 2 * gain * |x| (Lipschitz)."""
    out = np.abs(x)
    out *= 2.0 * gain
    return out


class SemilinearDiffusion:
    """Source identification for u' = -Ku - Phi(u) + theta, u(0) = 0, full observation.

    The unknown source lives on every interior node, so the parameter space is
    the state's nodal space.  Observation and start are the operators'
    contract (module docstring), not hooks.

    Parameters
    ----------
    triple : DiscreteGelfandTriple
        Spatial discretisation carrying the stiffness operator K.
    gain : float
        Strength of the signed-square nonlinearity (benchmark value 10).
    """

    def __init__(self, triple: DiscreteGelfandTriple, gain: float = 10.0):
        require_real(gain, "gain")
        self.triple = triple
        self.gain = float(gain)
        self.n_theta = triple.interior_points

    def check_theta(self, theta, name="parameter"):
        """theta as a float array of shape (n_theta,), or ValidationError."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_theta,):
            raise ValidationError(f"{name} must have shape ({self.n_theta},), got {theta.shape}")
        return theta

    def inner_theta(self, a, b) -> float:
        return self.triple.dx * float(a @ b)

    def norm_theta(self, a) -> float:
        return math.sqrt(max(self.inner_theta(a, a), 0.0))

    # -- model ------------------------------------------------------------------

    def f(self, u, theta):
        # theta - (K u + Phi(u)) rounds as -K u - Phi(u) + theta: negation is exact
        out = apply_stiffness(self.triple, u)
        out += signed_square(u, self.gain)
        return np.subtract(self.check_theta(theta), out, out=out)

    def reaction(self, u, theta):
        return -signed_square(u, self.gain) + theta

    def reaction_slope(self, u):
        # the slope of -Phi = signed_square(., -gain); it rounds as -signed_square_slope(u)
        return signed_square_slope(u, -self.gain)

    # -- linearization --------------------------------------------------------

    def apply_jac(self, u, arg):
        """f_u arg = -K arg + r_u arg; self-adjoint under the H pairing."""
        return -apply_stiffness(self.triple, arg) + self.reaction_slope(u) * arg

    def f_u_matrix(self, u):
        return -self.triple.stiffness + np.diag(self.reaction_slope(u))
