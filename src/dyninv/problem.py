"""The benchmark problem, semilinear diffusion with an unknown source, and its hooks.

The problem contract: the state is observed in full (the observation is a
copy of the state), the evolution starts from zero whatever theta is, and
theta enters the model through f_theta alone.  The operators call the model
``f``, forward/adjoint applications of its two derivatives f_u and f_theta
(``apply_jac``), ``inner_theta``, the ``reaction`` (f plus K u, integrated
explicitly under 'imex') and its diagonal slope ``reaction_slope``; hooks
broadcast over a leading axis of time nodes.  The reaction is pointwise, so
f_u = -K + diag(reaction_slope): 'imex' is linearized through the slope alone
and every 'newton' matrix I - tau f_u is tridiagonal, solved without forming
it (``f_u_matrix`` assembles f_u densely for tests only).  Every
forward/adjoint pair is an exact transpose under the measure-weighted pairings.
"""

import numpy as np

from .errors import ValidationError
from .spaces import DiscreteGelfandTriple, apply_stiffness

JAC_TAGS = ("f_u", "f_theta")
JAC_MODES = ("forward", "adjoint")


def signed_square(x, gain: float = 10.0):
    """The benchmark nonlinearity gain * sign(x) * x^2 (odd, C^1).

    Computed as (gain * x) * |x|, which rounds exactly like
    ((gain * sign(x)) * x) * x because rounding is symmetric in the sign.
    """
    return gain * x * np.abs(x)


def signed_square_slope(x, gain: float = 10.0):
    """Derivative of :func:`signed_square`: 2 * gain * |x| (Lipschitz)."""
    return 2.0 * gain * np.abs(x)


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
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape[-1] != self.n_theta or b.shape[-1] != self.n_theta:
            raise ValidationError("parameter length mismatch")
        return self.triple.dx * float(a @ b)

    def norm_theta(self, a) -> float:
        return float(np.sqrt(max(self.inner_theta(a, a), 0.0)))

    # -- model ------------------------------------------------------------------

    def f(self, t, u, theta):
        u = np.asarray(u, dtype=float)
        self._check_state(u)
        return -apply_stiffness(self.triple, u) - signed_square(u, self.gain) + self.embed_theta(theta)

    def reaction(self, t, u, theta):
        u = np.asarray(u, dtype=float)
        self._check_state(u)
        return -signed_square(u, self.gain) + self.embed_theta(theta)

    def reaction_slope(self, t, u, theta):
        u = np.asarray(u, dtype=float)
        self._check_state(u)
        return -signed_square_slope(u, self.gain)

    # -- linearizations -------------------------------------------------------

    def apply_jac(self, which, mode, t, u, theta, arg):
        if which not in JAC_TAGS:
            raise ValidationError(f"unknown jacobian tag {which!r}")
        if mode not in JAC_MODES:
            raise ValidationError(f"unknown jacobian mode {mode!r}")
        arg = np.asarray(arg, dtype=float)
        if which == "f_u":
            # self-adjoint under the H pairing: K symmetric, multiplication diagonal
            u = np.asarray(u, dtype=float)
            return -apply_stiffness(self.triple, arg) - signed_square_slope(u, self.gain) * arg
        return self.embed_theta(arg) if mode == "forward" else self.restrict_theta(arg)

    def f_u_matrix(self, t, u, theta):
        u = np.asarray(u, dtype=float)
        return -(self.triple.stiffness + np.diag(signed_square_slope(u, self.gain)))

    def _check_state(self, u):
        if u.shape[-1] != self.triple.interior_points:
            raise ValidationError(
                f"state has width {u.shape[-1]}, expected {self.triple.interior_points}"
            )
