"""All-at-once formulation: residual map, derivative, adjoint and slab operators.

The unknown is the pair (state trajectory, parameter); the residual stacks the
model row, the initial-condition row and the observation row.  The problem
observes the state in full from a zero start, so the data are (0, 0, y): the
initial row is u^0, the observation row u - y, and only the model row reads
theta.  :meth:`AllAtOnceOperator.derivative` checks its theta direction per
call; other shapes are taken as given, and :func:`~dyninv.methods.run` checks them.
The adjoint is the exact transpose of the discrete derivative under the graph
inner product on states, which fixes every endpoint and quadrature choice
below: the backward sweep reads its source one node above, the forward sweep
pairs the adjoint state at the left node of each step.

A slab map is the full map followed by the slab restriction P_j of
:meth:`AllAtOnceOperator.slab_restrict`: F_j = P_j F.  P_j is self-adjoint
and idempotent, so the slab adjoint is the full adjoint of P_j r, and
:meth:`~AllAtOnceOperator.slab_adjoint` is :meth:`~AllAtOnceOperator.adjoint`
over the slab's node range.  It reads r on the slab alone: its backward sweep,
zero above the slab's last node, starts there, and its forward sweep runs all N
steps, as the graph product couples the whole horizon; past that node its loads
stop and it is a decay.  The full adjoint is the span (0, N).

The residual, the derivative and the joint CG vector build their model rows
in one place, :meth:`~AllAtOnceOperator._stack`, which also carries the nodal
rows 1..N of K^{-1} w by the triple's Green's matrix of K, its one Riesz map;
the V* norm and product and the adjoint read them, so an iteration applies
K^{-1} once and never through the eigenbasis.  P_j leaves the carried rows
out, and what reads a restricted residual solves for its own: P_j acts by
rows, so they are the restricted rows, to rounding.

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
most 32 points, each march in one set of solve buffers, K p by the stencil,
and no basis at all.
So an aLW iteration below the cut is a stencil and a Green's product (residual),
three dot products (norms), the stacked basis product, two marches and the
product back (update): no PDE solve, and no object but residual and iterate.
The joint CG of the IRGNM runs in the same coordinates on flat vectors the
operator lays out (:meth:`AllAtOnceOperator.joint_vector`).  From the cut on a
vector also carries the graph rows g^n = (v^n - v^{n-1})/tau + K v^n of its
state and their K^{-1} image: the adjoint's forward loads K p^{n-1} + w^n are
the graph rows of its output and p^{n-1} + K^{-1} w^n their image, CG forms
only linear combinations, so the graph product pairs two vectors with no solve
(:meth:`~AllAtOnceOperator.inner_joint`).
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
# IRGNM at N = 400 set it (0.93-1.01 at 768 points, 1.00-1.08 at 832), when its CG
# paired nodal states by a Green's solve of N rows; it now pairs them by carried rows
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
    coefficients below :data:`_NODAL_FROM` points and in nodal values from it on,
    where a joint CG vector carries its graph rows and their K^{-1} image too.
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

    # -- joint vectors of the IRGNM's conjugate gradients ------------------------

    def joint_vector(self, u: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """The flat joint CG vector of nodal state rows u and theta: the state in
        the operator's coordinates, from the cut on followed by its graph rows
        g^n = (u^n - u^{n-1})/tau + K u^n, n = 1..N, and their K^{-1} image,
        the model rows :meth:`_stack` builds with no terms; theta last."""
        if not self._nodal:
            return np.concatenate((to_modes(self.triple, u).ravel(), theta))
        graph = self._stack(u, (), u)
        return np.concatenate((u.ravel(), graph.model.values[1:].ravel(), graph.riesz.ravel(), theta))

    def joint_split(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nodal state rows and theta of a joint CG vector; theta is a view."""
        shape = (self.grid.node_count, self.triple.interior_points)
        state = flat[: shape[0] * shape[1]].reshape(shape)
        return self.to_nodes(state), flat[-self.problem.n_theta :]

    def joint_adjoint(self, point: AaoPoint, resid: ResidualTriple) -> np.ndarray:
        """The full adjoint as a joint CG vector.  From the cut on, the forward
        sweep's loads K p^{n-1} + w^n are the graph rows of its output, and
        p^{n-1} + K^{-1} w^n is their K^{-1} image: one add, no solve."""
        dh, dtheta, ph, loads, iw = self._sweeps(point, resid, None)
        if not self._nodal:
            return np.concatenate((dh.ravel(), dtheta))
        return np.concatenate((dh.ravel(), loads.ravel(), np.add(ph[:-1], iw).ravel(), dtheta))

    def inner_joint(self, a: np.ndarray, b: np.ndarray) -> float:
        """The joint CG's inner product: the graph product
        :func:`~dyninv.spaces.inner_state` of the states plus the parameter
        product.  Below the cut :func:`~dyninv.spaces.inner_state_modes` pairs
        the modal coefficients; from it on the carried rows pair as
        tau dx <K^{-1} g_a, g_b> + dx a^0 . b^0, with no solve and no stencil."""
        size, n = self.problem.n_theta, self.triple.interior_points
        theta = self.problem.inner_theta(a[-size:], b[-size:])
        if not self._nodal:
            shape = (self.grid.node_count, n)
            ca = a[:-size].reshape(shape)
            cb = ca if b is a else b[:-size].reshape(shape)
            return inner_state_modes(self.triple, self.grid.tau, ca, cb) + theta
        cut, rows = self.grid.node_count * n, self.grid.step_count * n
        pairing = self.triple.dx * float(np.vdot(a[cut + rows : -size], b[cut : cut + rows]))
        return self.grid.tau * pairing + self.triple.dx * float(a[:n] @ b[:n]) + theta

    # -- forward --------------------------------------------------------------

    def _stack(self, u: np.ndarray, terms, observation: np.ndarray) -> ResidualTriple:
        """The residual triple of state rows u: model rows w^n = ((u^n - u^{n-1})/tau
        - terms) + K u^n for n = 1..N, the terms taken off in turn (w^0 = 0),
        initial row u^0 and observation row ``observation``.  The carried rows
        K^{-1} w are K^{-1} ((u^n - u^{n-1})/tau - terms) + u^n, one Green's solve
        that never meets K u: K^{-1} of the whole row would cancel K^{-1} K u in
        rounding, up to 3.1e-12 relative at n = 1600 (against a refined dense
        solve of the row formed in extended precision; the carried rows agree to
        1e-15)."""
        w = np.zeros(u.shape)
        rows = np.subtract(u[1:], u[:-1], out=w[1:])
        rows /= self.grid.tau
        for term in terms:
            rows -= term
        riesz = solve_resolvent(self.triple.green, rows)
        riesz += u[1:]
        rows += apply_stiffness(self.triple, u[1:])
        return ResidualTriple(
            Trajectory(self.grid, w, "dual_load"),
            u[0].copy(),
            Trajectory(self.grid, observation, "observation"),
            riesz,
        )

    def residual(self, point: AaoPoint, y: Trajectory) -> ResidualTriple:
        """Stacked residual against the data (0, 0, y): the problem contract puts
        all data in the observation row, so no arithmetic touches the other two.

        Model row w^n = (u^n - u^{n-1})/tau - f(u^n, theta) at the right endpoint
        of each step, n = 1..N, which :meth:`_stack` forms as (du/tau - reaction)
        + K u since f = reaction - K u; initial row u^0 and observation row u - y."""
        u = point.state.values
        return self._stack(u, (self.problem.reaction(u[1:], point.theta),), u - y.values)

    def _riesz(self, resid: ResidualTriple) -> np.ndarray:
        """Nodal rows 1..N of K^{-1} w: carried, or one Green's solve."""
        if resid.riesz is not None:
            return resid.riesz
        return solve_resolvent(self.triple.green, resid.model.values[1:])

    def derivative(self, point: AaoPoint, dstate: Trajectory, dtheta: np.ndarray) -> ResidualTriple:
        """Directional derivative applied to (dstate, dtheta); exactly linear.

        Model row w^n = (du^n - du^{n-1})/tau - f_u(u^n) du^n - dtheta, theta
        being the nodal source; f_u = -K + diag(r_u), so :meth:`_stack` forms it
        as ((ddu/tau - r_u du) - dtheta) + K du.  The initial and observation
        rows copy du^0 and du, which may view a CG vector."""
        du = dstate.values
        dtheta = self.problem.check_theta(dtheta, "parameter direction")
        slope = self.problem.reaction_slope(point.state.values[1:]) * du[1:]
        return self._stack(du, (slope, dtheta), du.copy())

    # -- adjoint ----------------------------------------------------------------

    def adjoint(self, point: AaoPoint, resid: ResidualTriple, nodes=None) -> tuple[Trajectory, np.ndarray]:
        """Exact discrete adjoint of :meth:`derivative`: :meth:`adjoint_coords`
        over ``nodes`` with the state direction taken to nodes."""
        dh, dtheta = self.adjoint_coords(point, resid, nodes)
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
        dh, dtheta, *_ = self._sweeps(point, resid, nodes)
        return dh, dtheta

    def _sweeps(self, point, resid, nodes):
        """:meth:`adjoint_coords` and what its sweeps leave: (dh, dtheta, ph,
        the forward loads, the rows of K^{-1} w read)."""
        steps = self.grid.step_count
        lo, hi = nodes or (0, steps)
        # every channel but the initial one is read at the slab's nodes lo+1..hi only
        u = point.state.values[lo + 1 : hi + 1]
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
        rows = np.multiply(self.problem.reaction_slope(u), iw, out=stack[:slab])
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
        return dh, dtheta, ph, loads, iw

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
        """Adjoint of the slab derivative, the full adjoint of P_j resid: :meth:`adjoint`
        over the slab's node range, which reads resid on the slab alone, with no
        copy of P_j resid (the module docstring describes both sweeps)."""
        return self.adjoint(point, resid, require_partition(self.partition).node_range(j))

    # -- norms -------------------------------------------------------------------

    def residual_norms(self, resid: ResidualTriple) -> tuple[float, float, float, float]:
        """Channel norms (model, initial, observation) and the total norm."""
        tau, dx = self.grid.tau, self.triple.dx
        h, z = resid.initial, resid.observation.values[1:]
        nw = math.sqrt(max(self._inner_model(resid, resid), 0.0))
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
