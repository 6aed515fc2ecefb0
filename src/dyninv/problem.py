"""The benchmark problem, semilinear diffusion with an unknown source, and its hooks.

The operators call ``f``, the observation ``g``, the initial map ``u0``,
forward/adjoint applications of their derivatives (``apply_jac``),
``inner_theta``, the ``reaction`` (f plus K u, integrated explicitly under
'imex') and its diagonal slope ``reaction_slope``; hooks broadcast over a
leading axis of time nodes.  The reaction is pointwise, so f_u = -K +
diag(reaction_slope): 'imex' is linearized through the slope alone and every
'newton' matrix I - tau f_u is tridiagonal, solved without forming it
(``f_u_matrix`` assembles f_u densely for tests only).  Every forward/adjoint
pair is an exact transpose under the measure-weighted pairings.
"""

import numpy as np

from .errors import ValidationError
from .spaces import DiscreteGelfandTriple, apply_stiffness

JAC_TAGS = ("f_u", "f_theta", "g_u", "g_theta", "u0")
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
    """Source identification for u' = -Ku - Phi(u) + theta, full observation.

    Parameters
    ----------
    triple : DiscreteGelfandTriple
        Spatial discretisation carrying the stiffness operator K.
    gain : float
        Strength of the signed-square nonlinearity (benchmark value 10).
    source_nodes : array of int, optional
        Interior nodes supporting the unknown source; default is the whole
        domain.  The parameter is extended by zero outside its support.
    """

    def __init__(self, triple: DiscreteGelfandTriple, gain: float = 10.0, source_nodes=None):
        self.triple = triple
        self.gain = float(gain)
        if source_nodes is None:
            self.source_nodes = np.arange(triple.interior_points)
        else:
            self.source_nodes = np.asarray(source_nodes, dtype=int)
            if self.source_nodes.size == 0:
                raise ValidationError("source support must be nonempty")
            if (self.source_nodes < 0).any() or (
                self.source_nodes >= triple.interior_points
            ).any():
                raise ValidationError("source support node out of range")
        self.n_theta = self.source_nodes.size

    # -- parameter embedding / restriction (extension by zero) --------------

    def embed_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape[-1] != self.n_theta:
            raise ValidationError(
                f"parameter has length {theta.shape[-1]}, expected {self.n_theta}"
            )
        if self.n_theta == self.triple.interior_points:
            return theta
        out = np.zeros(theta.shape[:-1] + (self.triple.interior_points,))
        out[..., self.source_nodes] = theta
        return out

    def restrict_theta(self, v):
        v = np.asarray(v, dtype=float)
        if self.n_theta == self.triple.interior_points:
            return v
        return v[..., self.source_nodes]

    def inner_theta(self, a, b) -> float:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape[-1] != self.n_theta or b.shape[-1] != self.n_theta:
            raise ValidationError("parameter length mismatch")
        return self.triple.dx * float(a @ b)

    def norm_theta(self, a) -> float:
        return float(np.sqrt(max(self.inner_theta(a, a), 0.0)))

    # -- model and observation ----------------------------------------------

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

    def g(self, t, u, theta):
        u = np.asarray(u, dtype=float)
        self._check_state(u)
        return u.copy()

    def u0(self, theta):
        return np.zeros(self.triple.interior_points)

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
        if which == "f_theta":
            return self.embed_theta(arg) if mode == "forward" else self.restrict_theta(arg)
        if which == "g_u":
            return arg.copy()
        if which == "g_theta":
            if mode == "forward":
                return np.zeros(arg.shape[:-1] + (self.triple.interior_points,))
            return np.zeros(arg.shape[:-1] + (self.n_theta,))
        # u0 independent of theta in the benchmark
        if mode == "forward":
            return np.zeros(arg.shape[:-1] + (self.triple.interior_points,))
        return np.zeros(arg.shape[:-1] + (self.n_theta,))

    def f_u_matrix(self, t, u, theta):
        u = np.asarray(u, dtype=float)
        return -(self.triple.stiffness + np.diag(signed_square_slope(u, self.gain)))

    def _check_state(self, u):
        if u.shape[-1] != self.triple.interior_points:
            raise ValidationError(
                f"state has width {u.shape[-1]}, expected {self.triple.interior_points}"
            )
