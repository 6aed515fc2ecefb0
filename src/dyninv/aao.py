"""All-at-once formulation: residual map, derivative, adjoint and slab operators.

The unknown is the pair (state trajectory, parameter); the residual stacks the
model row, the initial-condition row and the observation row.  The problem
observes the state in full from a zero start, so the data are (0, 0, y): the
initial row is u^0, the observation row u - y, and only the model row reads
theta.  Shapes are taken as given; :func:`~dyninv.methods.run` checks them once.
The adjoint is the exact transpose of the discrete derivative under the graph
inner product on states, which fixes every endpoint and quadrature choice
below: the backward sweep reads its source one node above, the forward sweep
pairs the adjoint state at the left node of each step.

A slab map is the full map followed by the slab restriction P_j of
:meth:`AllAtOnceOperator.slab_restrict`: F_j = P_j F.  P_j is self-adjoint
and idempotent, so the slab adjoint is the full adjoint of P_j r.  It reads r
on the slab alone: its backward sweep, zero above the slab's last node, starts
there, and its forward sweep runs all N steps, as the graph product couples the
whole horizon; past that node its loads stop and it is a decay.  The full
adjoint is the span (0, N).

The residual carries the nodal rows 1..N of K^{-1} w as well, taken where the
model row is built by the triple's Green's matrix of K, its one Riesz map, as
K^{-1} (w - K u) + u, so the solve never cancels K^{-1} K u; the V* norm and
product and the adjoint read them, so an iteration applies K^{-1} once and
never through the eigenbasis.  P_j leaves the carried rows out, and
what reads a restricted residual solves for its own: P_j acts by rows, so they
are the restricted rows, to rounding.

The adjoint's two sweeps run in the operator's state coordinates, fixed by the
number of points n alone (:data:`_NODAL_FROM`), and
:meth:`AllAtOnceOperator.adjoint_coords` has one body for both: the operator
picks the march and the stiffness of its coordinates once.  Below the cut they
are modal: the loads enter the eigenbasis in one :func:`~dyninv.spaces.to_modes`,
both sweeps are block marches there (:func:`~dyninv.spaces.march_modes`), K is
lam, and the state direction returns in one :func:`~dyninv.spaces.from_modes`,
two O(N n^2) products.  From the cut on they are nodal
(:func:`~dyninv.spaces.march_nodes`): 2N sequential one-vector solves with the
(I + tau K)^{-1} tables the reduced sweeps read, O(N n * 32) in blocks of at
most 32 points, K p by the stencil, and no basis at all.
So an aLW iteration below the cut is a stencil and a Green's product (residual),
three dot products (norms), the stacked basis product, two marches and the
product back (update): no PDE solve, and no object but residual and iterate.
The joint CG of the IRGNM runs in the same coordinates, through
:meth:`AllAtOnceOperator.to_nodes`, :meth:`~AllAtOnceOperator.from_nodes` and
:meth:`~AllAtOnceOperator.inner_coords`.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grids import KaczmarzPartition, TimeGrid, require_partition
from .problem import SemilinearDiffusion
from .spaces import (
    DiscreteGelfandTriple,
    Trajectory,
    apply_stiffness,
    from_modes,
    inner_observation,
    inner_state_modes,
    inner_state_nodes,
    march_modes,
    march_nodes,
    march_tables,
    resolvent_tables,
    solve_resolvent,
    to_modes,
    zero_trajectory,
)

# the smallest n from which the nodal sweeps were no slower than the modal ones, for
# whole aLW and aIRGNM iterations at every N in {8, 50, 100, 200, 400}, in each of
# three sweeps (one BLAS thread; the crossover table is in CHANGES.md).  The joint
# IRGNM at N = 400 sets it (0.93-1.01 at 768 points, 1.00-1.08 at 832): its CG pairs
# nodal states by a Green's solve of N rows, the modal ones with none
_NODAL_FROM = 832


@dataclass
class AaoPoint:
    """Joint iterate (state trajectory, parameter array)."""

    state: Trajectory
    theta: np.ndarray


@dataclass
class ResidualTriple:
    """Element of the residual space: model row, initial row, observation row.

    ``riesz``, when given, holds the nodal rows of K^{-1} w for
    ``model.values[1:]``; only :class:`AllAtOnceOperator` fills it, from the
    rows it has just built.
    """

    model: Trajectory
    initial: np.ndarray
    observation: Trajectory
    riesz: np.ndarray | None = None


def zero_point(triple: DiscreteGelfandTriple, grid: TimeGrid, problem: SemilinearDiffusion) -> AaoPoint:
    return AaoPoint(
        zero_trajectory(grid, triple.interior_points, "state"), np.zeros(problem.n_theta)
    )


class AllAtOnceOperator:
    """Matrix-free residual map of the joint formulation and its linearizations.

    State directions of :meth:`adjoint_coords` and the joint CG are in modal
    coefficients below :data:`_NODAL_FROM` points and in nodal values from it on.
    """

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
        self._nodal = triple.interior_points >= _NODAL_FROM
        # the adjoint's march and K in the operator's coordinates
        if self._nodal:
            self._march = partial(march_nodes, resolvent_tables(triple, grid.tau), grid.tau)
            self._stiffness = partial(apply_stiffness, triple)
        else:
            self._march = partial(march_modes, march_tables(triple, grid))
            self._stiffness = partial(np.multiply, triple.eigenvalues)

    # -- state coordinates -----------------------------------------------------

    def to_nodes(self, c: np.ndarray) -> np.ndarray:
        """Nodal rows of state rows in the operator's coordinates."""
        return c if self._nodal else from_modes(self.triple, c)

    def from_nodes(self, u: np.ndarray) -> np.ndarray:
        """The operator's coordinates of nodal state rows."""
        return u if self._nodal else to_modes(self.triple, u)

    def inner_coords(self, a: np.ndarray, b: np.ndarray) -> float:
        """The graph product :func:`~dyninv.spaces.inner_state` of two states in
        the operator's coordinates."""
        pair = inner_state_nodes if self._nodal else inner_state_modes
        return pair(self.triple, self.grid.tau, a, b)

    # -- forward --------------------------------------------------------------

    def residual(self, point: AaoPoint, y: Trajectory) -> ResidualTriple:
        """Stacked residual against the data (0, 0, y): the problem contract puts
        all data in the observation row, so no arithmetic touches the other two.

        Model row at the right endpoint of each step:
        w^n = (u^n - u^{n-1})/tau - f(t_n, u^n, theta) for n = 1..N (w^0 = 0),
        formed as (du/tau - reaction) + K u since f = reaction - K u;
        initial row u^0 and observation row u - y.  The carried rows are
        K^{-1} (du/tau - reaction) + u, one Green's solve that never meets K u:
        K^{-1} of the whole row would cancel K^{-1} K u in rounding, up to
        3.1e-12 relative at n = 1600 (against a refined dense solve of the row
        formed in extended precision; the carried rows agree to 1e-15)."""
        u = point.state.values
        w = np.zeros(u.shape)
        rows = np.subtract(u[1:], u[:-1], out=w[1:])
        rows /= self.grid.tau
        rows -= self.problem.reaction(self._t[1:], u[1:], point.theta)
        riesz = solve_resolvent(self.triple.green, rows)
        riesz += u[1:]
        rows += apply_stiffness(self.triple, u[1:])
        return ResidualTriple(
            Trajectory(self.grid, w, "dual_load"),
            u[0].copy(),
            Trajectory(self.grid, u - y.values, "observation"),
            riesz,
        )

    def _riesz(self, resid: ResidualTriple) -> np.ndarray:
        """Nodal rows 1..N of K^{-1} w: carried, or one Green's solve."""
        if resid.riesz is not None:
            return resid.riesz
        return solve_resolvent(self.triple.green, resid.model.values[1:])

    def derivative(self, point: AaoPoint, dstate: Trajectory, dtheta: np.ndarray) -> ResidualTriple:
        """Directional derivative applied to (dstate, dtheta); exactly linear.

        Model row w^n = (du^n - du^{n-1})/tau - f_u(u^n) du^n - dtheta, theta
        being the nodal source.  The initial and observation rows copy du^0 and
        du, which may view a CG vector."""
        u = point.state.values
        theta = point.theta
        du = dstate.values
        dtheta = self.problem.check_theta(dtheta, "parameter direction")
        w = np.zeros_like(du)
        f_u = self.problem.apply_jac(self._t[1:], u[1:], theta, du[1:])
        w[1:] = (du[1:] - du[:-1]) / self.grid.tau - f_u - dtheta
        return ResidualTriple(
            Trajectory(self.grid, w, "dual_load"),
            du[0].copy(),
            Trajectory(self.grid, du.copy(), "observation"),
        )

    # -- adjoint ----------------------------------------------------------------

    def adjoint(self, point: AaoPoint, resid: ResidualTriple) -> tuple[Trajectory, np.ndarray]:
        """Exact discrete adjoint of :meth:`derivative`: :meth:`adjoint_coords`
        with the state direction taken to nodes."""
        dh, dtheta = self.adjoint_coords(point, resid)
        return Trajectory(self.grid, self.to_nodes(dh), "state"), dtheta

    def adjoint_coords(self, point: AaoPoint, resid: ResidualTriple, nodes=None) -> tuple[np.ndarray, np.ndarray]:
        """The adjoint with its state direction left in the operator's coordinates.

        Returns the state direction (shape (node_count, width)) via one
        backward and one forward stiffness evolution and the parameter
        direction -tau * sum of the rows of K^{-1} w that the nodes read.
        A slab's ``nodes`` = (lo, hi) (its ``node_range``) read the model and
        observation rows on nodes lo+1..hi and the initial row if lo = 0: the
        adjoint of P_j resid.  The default (0, N) reads every row.  Below the
        cut the loads of both sweeps and the start of the forward one enter the
        eigenbasis in one basis product of the rows read.
        """
        steps = self.grid.step_count
        lo, hi = nodes or (0, steps)
        # every channel but the initial one is read at the slab's nodes lo+1..hi only
        u = point.state.values[lo + 1 : hi + 1]
        t = self._t[lo + 1 : hi + 1]
        theta = point.theta
        z = resid.observation.values[lo + 1 : hi + 1]
        iw = self._riesz(resid)[lo:hi]
        # the graph-norm source is -w - f_u^T K^{-1} w + z.  The problem
        # contract f_u = -K + diag(r_u) turns f_u^T K^{-1} w into
        # -w + r_u K^{-1} w, whose -w cancels the first term exactly, so
        # rows = z - r_u K^{-1} w with no stiffness applied; the terms dropped
        # are K (K^{-1} w) - w, which is rounding.  The rows, the forward loads
        # w and, on slab 0, the forward start h are stacked for one basis product.
        slab, width = u.shape
        stack = np.empty((2 * slab + (lo == 0), width))
        rows = np.multiply(self.problem.reaction_slope(t, u, theta), iw, out=stack[:slab])
        np.subtract(z, rows, out=rows)
        stack[slab : 2 * slab] = resid.model.values[lo + 1 : hi + 1]
        if lo == 0:
            stack[-1] = resid.initial
        # Backward: p^m = 0 from m = hi on, (I + tau K) p^m = p^{m+1} + tau rows^m,
        # marched on the time-reversed nodes hi..0 (the loads read backward) and
        # flipped back (ph[m] is p^m).  Forward: start p^0 + h, step onto node n
        # driven by w^n + K p^{n-1}, loads that end at the slab's last node.  Past
        # its loads each march is a decay
        coords = self.from_nodes(stack)
        ph = self._march(0.0, coords[slab - 1 :: -1], hi)[::-1]
        loads = self._stiffness(ph[:-1])
        loads[lo:] += coords[slab : 2 * slab]
        dh = self._march(ph[0] + coords[-1] if lo == 0 else ph[0], loads, steps)

        dtheta = iw.sum(axis=0)
        dtheta *= -self.grid.tau
        return dh, dtheta

    # -- slab operators --------------------------------------------------------

    def slab_restrict(self, resid: ResidualTriple, j: int) -> ResidualTriple:
        """P_j: the model and observation rows on the weighted nodes of slab j,
        the initial row on slab 0 only; no rows of K^{-1} w are carried."""
        part = require_partition(self.partition)
        return ResidualTriple(
            Trajectory(self.grid, part.restrict(resid.model.values, j), "dual_load"),
            resid.initial if j == 0 else np.zeros_like(resid.initial),
            Trajectory(self.grid, part.restrict(resid.observation.values, j), "observation"),
        )

    def slab_derivative(self, point, j, dstate, dtheta) -> ResidualTriple:
        return self.slab_restrict(self.derivative(point, dstate, dtheta), j)

    def slab_adjoint(self, point, j, resid) -> tuple[Trajectory, np.ndarray]:
        """Adjoint of the slab derivative: the full adjoint of P_j resid.

        :meth:`adjoint_coords` over the slab's node range reads resid on the
        slab alone, with no copy of P_j resid.  The backward sweep starts at the
        slab's last node, above which it is zero; the forward sweep runs over the
        whole horizon, where the graph product couples every step, and is a
        decay past the slab's last node.
        """
        nodes = require_partition(self.partition).node_range(j)
        dh, dtheta = self.adjoint_coords(point, resid, nodes)
        return Trajectory(self.grid, self.to_nodes(dh), "state"), dtheta

    # -- norms -------------------------------------------------------------------

    def residual_norms(self, resid: ResidualTriple) -> tuple[float, float, float, float]:
        """Channel norms (model, initial, observation) and the total norm."""
        tau, dx = self.grid.tau, self.triple.dx
        h, z = resid.initial, resid.observation.values[1:]
        nw = math.sqrt(max(tau * (dx * float(np.vdot(self._riesz(resid), resid.model.values[1:]))), 0.0))
        nh = math.sqrt(dx * float(h @ h))
        ny = math.sqrt(max(tau * dx * float(np.vdot(z, z)), 0.0))
        return nw, nh, ny, math.sqrt(nw**2 + nh**2 + ny**2)

    def inner_residual(self, a: ResidualTriple, b: ResidualTriple) -> float:
        """Inner product of the residual space (all three channels)."""
        return (
            self._inner_model(a, b)
            + self.triple.dx * float(a.initial @ b.initial)
            + inner_observation(self.triple, a.observation, b.observation)
        )

    def _inner_model(self, a: ResidualTriple, b: ResidualTriple) -> float:
        """tau * (dx * <K^{-1} w_a, w_b>): :func:`~dyninv.spaces.inner_dual_load` of the model rows."""
        pairing = self.triple.dx * float(np.vdot(self._riesz(a), b.model.values[1:]))
        return self.grid.tau * pairing
