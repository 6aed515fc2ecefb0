"""All-at-once formulation: residual map, derivative, adjoint and slab operators.

The unknown is the pair (state trajectory, parameter); the residual stacks the
model row, the initial-condition row and the observation row.  The adjoint is
the exact transpose of the discrete derivative under the graph inner product
on states, which fixes every endpoint and quadrature choice below: the
backward sweep reads its source one node above, the forward sweep pairs the
adjoint state at the left node of each step.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grids import KaczmarzPartition, TimeGrid
from .problem import ProblemDefinition
from .spaces import (
    DiscreteGelfandTriple,
    Trajectory,
    inner_dual_load,
    inner_observation,
    march_modes,
    solve_stiffness,
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
    """Element of the residual/data space: model row, initial row, observation row."""

    model: Trajectory
    initial: np.ndarray
    observation: Trajectory

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)


def zero_point(triple: DiscreteGelfandTriple, grid: TimeGrid, problem: ProblemDefinition) -> AaoPoint:
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
        problem: ProblemDefinition,
        triple: DiscreteGelfandTriple,
        grid: TimeGrid,
        partition: KaczmarzPartition | None = None,
    ):
        self.problem = problem
        self.triple = triple
        self.grid = grid
        self.partition = partition
        self._t = grid.nodes()

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
        return ResidualTriple(
            Trajectory(self.grid, w, "dual_load"),
            h,
            Trajectory(self.grid, z, "observation"),
        )

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
        return self._adjoint_masked(point, resid, weighted=None, include_initial=True)

    def _adjoint_masked(self, point, resid, weighted, include_initial):
        # every channel but the initial one is read at nodes 1..N only
        u = point.state.values[1:]
        t = self._t[1:]
        theta = point.theta
        jac = self.problem.apply_jac
        w = resid.model.values[1:]
        z = resid.observation.values[1:]
        if weighted is not None:
            mask = np.zeros(self.grid.node_count, dtype=bool)
            mask[weighted] = True
            w = np.where(mask[1:, None], w, 0.0)
            z = np.where(mask[1:, None], z, 0.0)
        h = resid.initial if include_initial else np.zeros_like(resid.initial)

        iw = solve_stiffness(self.triple, w)
        rows = -w - jac("f_u", "adjoint", t, u, theta, iw) + jac("g_u", "adjoint", t, u, theta, z)
        # both sweeps run in the eigenbasis of K, which diagonalizes their
        # steps.  Backward: p^N = 0, (I + tau K) p^m = p^{m+1} + tau rows^m,
        # marched on the time-reversed nodes and flipped back (ph[m] is p^m).
        q = self.triple.eigenvectors
        ph = march_modes(self.triple, self.grid, 0.0, rows[::-1] @ q)[::-1]
        # forward: start p^0 + h, step onto node n driven by w^n + K p^{n-1}
        dh = march_modes(
            self.triple, self.grid, ph[0] + h @ q, w @ q + self.triple.eigenvalues * ph[:-1]
        )
        dstate = Trajectory(self.grid, dh @ q.T, "state")

        dtheta = self.grid.tau * np.sum(
            -jac("f_theta", "adjoint", t, u, theta, iw) + jac("g_theta", "adjoint", t, u, theta, z),
            axis=0,
        )
        dtheta = dtheta - jac("u0", "adjoint", None, None, theta, h)
        return dstate, dtheta

    # -- slab operators --------------------------------------------------------

    def slab_residual(self, point: AaoPoint, j: int, data: ResidualTriple) -> ResidualTriple:
        """Restriction of the residual to slab j (initial row only on slab 0)."""
        part = self._require_partition()
        full = self.residual(point, data)
        return self._mask_triple(full, part.weighted_nodes(j), include_initial=(j == 0))

    def slab_derivative(self, point, j, dstate, dtheta) -> ResidualTriple:
        part = self._require_partition()
        full = self.derivative(point, dstate, dtheta)
        return self._mask_triple(full, part.weighted_nodes(j), include_initial=(j == 0))

    def slab_adjoint(self, point, j, resid) -> tuple[Trajectory, np.ndarray]:
        """Adjoint of the slab operator: slab-supported sources, full-horizon sweeps.

        Below the slab the backward state keeps evolving with zero source; it
        is not frozen.  The exact-transpose requirement forces this choice.
        """
        part = self._require_partition()
        return self._adjoint_masked(
            point, resid, weighted=part.weighted_nodes(j), include_initial=(j == 0)
        )

    def _mask_triple(self, full, weighted, include_initial):
        mask = np.zeros(self.grid.node_count, dtype=bool)
        mask[weighted] = True
        w = np.where(mask[:, None], full.model.values, 0.0)
        z = np.where(mask[:, None], full.observation.values, 0.0)
        h = full.initial if include_initial else np.zeros_like(full.initial)
        return ResidualTriple(
            Trajectory(self.grid, w, "dual_load"),
            h,
            Trajectory(self.grid, z, "observation"),
        )

    def _require_partition(self) -> KaczmarzPartition:
        if self.partition is None:
            raise ValidationError("operator was built without a partition")
        return self.partition

    # -- norms -------------------------------------------------------------------

    def residual_norms(self, resid: ResidualTriple) -> tuple[float, float, float, float]:
        """Channel norms (model, initial, observation) and the total norm."""
        nw = np.sqrt(max(inner_dual_load(self.triple, resid.model, resid.model), 0.0))
        nh = np.sqrt(self.triple.dx * float(resid.initial @ resid.initial))
        ny = np.sqrt(
            max(inner_observation(self.triple, resid.observation, resid.observation), 0.0)
        )
        return float(nw), float(nh), float(ny), float(np.sqrt(nw**2 + nh**2 + ny**2))

    def inner_residual(self, a: ResidualTriple, b: ResidualTriple) -> float:
        """Inner product of the residual space (all three channels)."""
        return (
            inner_dual_load(self.triple, a.model, b.model)
            + self.triple.dx * float(a.initial @ b.initial)
            + inner_observation(self.triple, a.observation, b.observation)
        )
