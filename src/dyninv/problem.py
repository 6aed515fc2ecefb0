"""The benchmark problem, semilinear diffusion with an unknown source, and its hooks.

The problem contract: the state is observed in full (the observation is a
copy of the state), the evolution starts from zero whatever theta is, and
theta enters the model through f_theta alone.  The operators call the model
``f``, forward/adjoint applications of its two derivatives f_u and f_theta
(``apply_jac``), ``inner_theta``, the ``reaction`` (f plus K u, integrated
explicitly under 'imex') and its diagonal slope ``reaction_slope``; hooks
broadcast over a leading axis of time nodes and rely on
``methods.run`` for shape checks.  The reaction is pointwise, so
f_u = -K + diag(reaction_slope): 'imex' is linearized through the slope alone
and every 'newton' matrix I - tau f_u is tridiagonal, solved without forming
it (``f_u_matrix`` assembles f_u densely for tests only).  Every
forward/adjoint pair is an exact transpose under the measure-weighted pairings.
"""

import math

import numpy as np

from .errors import ValidationError
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
    the state's nodal space and ``embed_theta``/``restrict_theta`` only check
    and pass values through.  Observation and start are the operators'
    contract (module docstring), not hooks.

    Parameters
    ----------
    triple : DiscreteGelfandTriple
        Spatial discretisation carrying the stiffness operator K.
    gain : float
        Strength of the signed-square nonlinearity (benchmark value 10).
    """

    def __init__(self, triple: DiscreteGelfandTriple, gain: float = 10.0):
        self.triple = triple
        self.gain = float(gain)
        self.n_theta = triple.interior_points

    # -- parameter embedding / restriction (both the identity) ----------------

    def embed_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape[-1] != self.n_theta:
            raise ValidationError(
                f"parameter has length {theta.shape[-1]}, expected {self.n_theta}"
            )
        return theta

    def restrict_theta(self, v):
        return np.asarray(v, dtype=float)

    def inner_theta(self, a, b) -> float:
        return self.triple.dx * float(a @ b)

    def norm_theta(self, a) -> float:
        return math.sqrt(max(self.inner_theta(a, a), 0.0))

    # -- model ------------------------------------------------------------------

    def f(self, t, u, theta):
        # theta - (K u + Phi(u)) rounds as -K u - Phi(u) + theta: negation is exact
        out = apply_stiffness(self.triple, u)
        out += signed_square(u, self.gain)
        return np.subtract(self.embed_theta(theta), out, out=out)

    def reaction(self, t, u, theta):
        return -signed_square(u, self.gain) + self.embed_theta(theta)

    def reaction_slope(self, t, u, theta):
        # the slope of -Phi = signed_square(., -gain); it rounds as -signed_square_slope(u)
        return signed_square_slope(u, -self.gain)

    # -- linearizations -------------------------------------------------------

    def apply_jac(self, which, mode, t, u, theta, arg):
        if mode not in ("forward", "adjoint"):
            raise ValidationError(f"unknown jacobian mode {mode!r}")
        if which == "f_u":
            # self-adjoint under the H pairing: K symmetric, multiplication diagonal
            return -apply_stiffness(self.triple, arg) - signed_square_slope(u, self.gain) * arg
        if which == "f_theta":
            return self.embed_theta(arg) if mode == "forward" else self.restrict_theta(arg)
        raise ValidationError(f"unknown jacobian tag {which!r}")

    def f_u_matrix(self, t, u, theta):
        u = np.asarray(u, dtype=float)
        return -(self.triple.stiffness + np.diag(signed_square_slope(u, self.gain)))
