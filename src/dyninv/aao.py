"""All-at-once formulation: residual map, derivative, adjoint and slab operators.

The unknown is the pair (state trajectory, parameter); the residual stacks the
model row, the initial-condition row and the observation row.  The adjoint is
the exact transpose of the discrete derivative under the graph inner product
on states, which fixes every endpoint and quadrature choice below: the
backward sweep reads its source one node above, the forward sweep pairs the
adjoint state at the left node of each step.

A slab map is the full map followed by the slab restriction P_j of
:meth:`AllAtOnceOperator.slab_restrict`: F_j = P_j F.  P_j is self-adjoint
and idempotent, so the slab adjoint is the full adjoint of P_j r.

The residual carries its model rows 1..N in modal coefficients as well (one
basis product, taken where the model row is built), next to the modal rows
of K^{-1} w (one division by the eigenvalues); the V* norm and the adjoint
both read them, so an iteration divides by the eigenvalues once.  P_j acts by
rows, so it commutes with the change of basis and with K^{-1}, and restricts
both modal blocks directly.
"""

from dataclasses import dataclass

import numpy as np

from .grids import KaczmarzPartition, TimeGrid, require_partition
from .problem import SemilinearDiffusion
from .spaces import (
    DiscreteGelfandTriple,
    Trajectory,
    inner_dual_load,
    inner_observation,
    march_modes,
    march_tables,
    norm_observation,
    zero_trajectory,
)


@dataclass
class AaoPoint:
    """Joint iterate (state trajectory, parameter)."""

    state: Trajectory
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)


@dataclass
class ResidualTriple:
    """Element of the residual/data space: model row, initial row, observation row.

    ``model_modes``, when given, is ``model.values[1:]`` times the eigenbasis
    and ``riesz_modes`` the same rows of K^{-1} w, ``model_modes / lam``; only
    :class:`AllAtOnceOperator` fills them, both at once, from the rows it has
    just built.
    """

    model: Trajectory
    initial: np.ndarray
    observation: Trajectory
    model_modes: np.ndarray | None = None
    riesz_modes: np.ndarray | None = None

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)


def zero_point(triple: DiscreteGelfandTriple, grid: TimeGrid, problem: SemilinearDiffusion) -> AaoPoint:
    return AaoPoint(
        zero_trajectory(grid, triple.interior_points, "state"), np.zeros(problem.n_theta)
    )


def data_triple(grid: TimeGrid, width: int, y: Trajectory) -> ResidualTriple:
    """Wrap observed data as (0, 0, y) in the residual layout."""
    return ResidualTriple(
        zero_trajectory(grid, width, "dual_load"), np.zeros(width), y
    )


class AllAtOnceOperator:
    """Matrix-free residual map of the joint formulation and its linearizations."""

    def __init__(
        self,
        problem: SemilinearDiffusion,
        triple: DiscreteGelfandTriple,
        grid: TimeGrid,
        partition: KaczmarzPartition | None = None,
    ):
        self.problem = problem
        self.triple = triple
        self.grid = grid
        self.partition = partition
        self._t = grid.nodes()
        self._march = march_tables(triple, grid)

    # -- forward --------------------------------------------------------------

    def residual(self, point: AaoPoint, data: ResidualTriple) -> ResidualTriple:
        """Stacked residual against the given data triple.

        Model row at the right endpoint of each step:
        w^n = (u^n - u^{n-1})/tau - f(t_n, u^n, theta) for n = 1..N.
        """
        u = point.state.values
        theta = point.theta
        tau = self.grid.tau
        fvals = self.problem.f(self._t[1:], u[1:], theta)
        w = np.zeros_like(u)
        w[1:] = (u[1:] - u[:-1]) / tau - fvals - data.model.values[1:]
        h = u[0] - self.problem.u0(theta) - data.initial
        z = self.problem.g(self._t, u, theta) - data.observation.values
        w_hat = w[1:] @ self.triple.eigenvectors
        return ResidualTriple(
            Trajectory(self.grid, w, "dual_load"),
            h,
            Trajectory(self.grid, z, "observation"),
            w_hat,
            w_hat / self.triple.eigenvalues,
        )

    def _modes(self, resid: ResidualTriple) -> tuple[np.ndarray, np.ndarray]:
        """Model rows 1..N and those of K^{-1} w in modal coefficients: carried,
        or one basis product and one division."""
        if resid.model_modes is not None:
            return resid.model_modes, resid.riesz_modes
        w_hat = resid.model.values[1:] @ self.triple.eigenvectors
        return w_hat, w_hat / self.triple.eigenvalues

    def derivative(self, point: AaoPoint, dstate: Trajectory, dtheta: np.ndarray) -> ResidualTriple:
        """Directional derivative applied to (dstate, dtheta); exactly linear."""
        u = point.state.values
        theta = point.theta
        du = dstate.values
        dtheta = np.asarray(dtheta, dtype=float)
        tau = self.grid.tau
        t = self._t
        jac = self.problem.apply_jac
        w = np.zeros_like(du)
        w[1:] = (
            (du[1:] - du[:-1]) / tau
            - jac("f_u", "forward", t[1:], u[1:], theta, du[1:])
            - jac("f_theta", "forward", t[1:], u[1:], theta, dtheta)
        )
        h = du[0] - jac("u0", "forward", None, None, theta, dtheta)
        z = jac("g_u", "forward", t, u, theta, du) + jac(
            "g_theta", "forward", t, u, theta, dtheta
        )
        return ResidualTriple(
            Trajectory(self.grid, w, "dual_load"),
            h,
            Trajectory(self.grid, z, "observation"),
        )

    # -- adjoint ----------------------------------------------------------------

    def adjoint(self, point: AaoPoint, resid: ResidualTriple) -> tuple[Trajectory, np.ndarray]:
        """Exact discrete adjoint of :meth:`derivative`.

        Returns the state direction via one backward and one forward
        stiffness evolution and the parameter direction via right-endpoint
        quadrature of the adjoint integrands.
        """
        # every channel but the initial one is read at nodes 1..N only
        u = point.state.values[1:]
        t = self._t[1:]
        theta = point.theta
        jac = self.problem.apply_jac
        z = resid.observation.values[1:]
        h = resid.initial

        # w and K^{-1} w are in the basis already; the modal w is also the
        # load of the forward sweep below
        q, lam = self.triple.eigenvectors, self.triple.eigenvalues
        w_hat, iw_hat = self._modes(resid)
        iw = iw_hat @ q.T
        # the graph-norm source is -w - f_u^T K^{-1} w + g_u^T z.  The problem
        # contract f_u = -K + diag(r_u) turns f_u^T K^{-1} w into
        # -w + r_u K^{-1} w, whose -w cancels the first term exactly, so
        # rows = g_u^T z - r_u K^{-1} w with no stiffness applied; the terms
        # dropped are K (K^{-1} w) - w, which is rounding
        rows = jac("g_u", "adjoint", t, u, theta, z) - self.problem.reaction_slope(t, u, theta) * iw
        # both sweeps run in the eigenbasis of K, which diagonalizes their
        # steps.  Backward: p^N = 0, (I + tau K) p^m = p^{m+1} + tau rows^m,
        # marched on the time-reversed nodes and flipped back (ph[m] is p^m).
        ph = march_modes(self._march, 0.0, rows[::-1] @ q)[::-1]
        # forward: start p^0 + h, step onto node n driven by w^n + K p^{n-1}
        dh = march_modes(self._march, ph[0] + h @ q, w_hat + lam * ph[:-1])
        dstate = Trajectory(self.grid, dh @ q.T, "state")

        dtheta = self.grid.tau * np.sum(
            -jac("f_theta", "adjoint", t, u, theta, iw) + jac("g_theta", "adjoint", t, u, theta, z),
            axis=0,
        )
        dtheta = dtheta - jac("u0", "adjoint", None, None, theta, h)
        return dstate, dtheta

    # -- slab operators --------------------------------------------------------

    def slab_restrict(self, resid: ResidualTriple, j: int) -> ResidualTriple:
        """P_j: the model and observation rows on the weighted nodes of slab j,
        the initial row on slab 0 only; carried modal rows are restricted too."""
        part = require_partition(self.partition)
        modes = (resid.model_modes, resid.riesz_modes)
        return ResidualTriple(
            Trajectory(self.grid, part.restrict(resid.model.values, j), "dual_load"),
            resid.initial if j == 0 else np.zeros_like(resid.initial),
            Trajectory(self.grid, part.restrict(resid.observation.values, j), "observation"),
            *(None if m is None else part.restrict(m, j) for m in modes),
        )

    def slab_residual(self, point: AaoPoint, j: int, data: ResidualTriple) -> ResidualTriple:
        """P_j of the residual."""
        return self.slab_restrict(self.residual(point, data), j)

    def slab_derivative(self, point, j, dstate, dtheta) -> ResidualTriple:
        return self.slab_restrict(self.derivative(point, dstate, dtheta), j)

    def slab_adjoint(self, point, j, resid) -> tuple[Trajectory, np.ndarray]:
        """Adjoint of the slab derivative: the full adjoint of P_j resid.

        The sources are supported on the slab, but both sweeps run over the
        whole horizon: below the slab the backward state keeps evolving with
        zero source; it is not frozen.  The exact-transpose requirement
        forces this choice.
        """
        return self.adjoint(point, self.slab_restrict(resid, j))

    # -- norms -------------------------------------------------------------------

    def residual_norms(self, resid: ResidualTriple) -> tuple[float, float, float, float]:
        """Channel norms (model, initial, observation) and the total norm."""
        w_hat, iw_hat = self._modes(resid)
        # tau * (dx * <K^{-1} w, w>): the rounding order of dual_pairing
        pairing = self.triple.dx * float(np.vdot(iw_hat, w_hat))
        nw = float(np.sqrt(max(self.grid.tau * pairing, 0.0)))
        nh = float(np.sqrt(self.triple.dx * float(resid.initial @ resid.initial)))
        ny = norm_observation(self.triple, resid.observation)
        return nw, nh, ny, float(np.sqrt(nw**2 + nh**2 + ny**2))

    def inner_residual(self, a: ResidualTriple, b: ResidualTriple) -> float:
        """Inner product of the residual space (all three channels)."""
        return (
            inner_dual_load(self.triple, a.model, b.model)
            + self.triple.dx * float(a.initial @ b.initial)
            + inner_observation(self.triple, a.observation, b.observation)
        )
