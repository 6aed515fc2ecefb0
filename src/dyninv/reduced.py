"""Reduced formulation: parameter-to-state map, sensitivities and adjoints.

The state solve eliminates the model equation.  The problem observes the state
in full from a zero start and theta is the nodal source, so the observation is
the state, the derivative is the sensitivity, and each step's source direction
is xi itself.  The sensitivity is the exact derivative of the step the state
solve runs under the operator's policy:

- 'imex': v^k = R (v^{k-1} + tau r_u(u^{k-1}) v^{k-1} + tau xi) with the
  constant resolvent R = (I + tau K)^{-1}, and the diagonal reaction slope
  r_u taken at the old time level, as the step takes the reaction;
- 'newton': (I - tau f_u(u^k)) v^k = v^{k-1} + tau xi, the fully implicit
  step with coefficients frozen at the new time level.

Neither policy assembles or factors a system matrix.  The reaction is
pointwise, so f_u = -K + diag(r_u): every newton matrix
I + tau K - tau diag(r_u) is tridiagonal and symmetric, and the Newton steps,
the sensitivity and the adjoint all solve it with
:func:`~dyninv.spaces.solve_shifted_stiffness`.
The resolvent R, of the imex steps and of the Newton initial guesses, is the
closed-form Green's matrix of I + tau K, which the operator tabulates once
(:func:`~dyninv.spaces.resolvent_tables`) and applies with the products of
:func:`~dyninv.spaces.solve_resolvent`, one :func:`~dyninv.spaces.row_solver`
per sweep: one product per step up to 128 points, and beyond, in blocks of at
most 32 points, a fixed number of batched products per step, whatever the
block count, in one set of buffers.

The adjoint is its exact discrete transpose: a backward sweep with the
transposed step maps, then tau times the sum of the multipliers of steps
1..N.  A slab map is the full map followed by the slab restriction P_j of
:meth:`ReducedOperator.slab_restrict`, so the slab adjoint is the full adjoint
of P_j z.  Its sweep is loaded with z on the slab alone and starts at the slab's
last node, above which every multiplier is zero; the full adjoint is the span (0, N).
"""

import math

import numpy as np

from .errors import SolverError, ValidationError
from .grids import KaczmarzPartition, TimeGrid, require_partition
from .problem import SemilinearDiffusion
from .spaces import (
    DiscreteGelfandTriple,
    Trajectory,
    check_trajectory,
    resolvent_tables,
    row_solver,
    solve_shifted_stiffness,
)

_NEWTON_MAX = 25
_NEWTON_TOL = 1e-12
POLICIES = ("imex", "newton")


def check_policy(policy):
    if policy not in POLICIES:
        raise ValidationError(f"unknown solve policy {policy!r}")


class ReducedOperator:
    """Parameter-to-observation map theta -> S(theta), matrix-free.

    Parameters
    ----------
    problem, triple, grid : problem definition and discretisation.
    partition : optional slab partition for the cyclic variants.
    policy : 'imex' (implicit stiffness, explicit reaction; the default) or
        'newton' (fully implicit steps solved by warm-started Newton).
    """

    def __init__(
        self,
        problem: SemilinearDiffusion,
        triple: DiscreteGelfandTriple,
        grid: TimeGrid,
        partition: KaczmarzPartition | None = None,
        policy: str = "imex",
    ):
        check_policy(policy)
        self.problem = problem
        self.triple = triple
        self.grid = grid
        self.partition = partition
        self.policy = policy
        self._resolvent = resolvent_tables(triple, grid.tau)

    # -- nonlinear state solve ---------------------------------------------------

    def solve_state(self, theta, perturbation=None) -> Trajectory:
        """March the nonlinear evolution from zero over the whole horizon; an
        optional model ``perturbation`` (noisy-data synthesis only) joins f.
        The state is also the observation."""
        theta = self.problem.check_theta(theta)
        n = self.triple.interior_points
        pvals = None if perturbation is None else check_trajectory(perturbation, self.grid, n, "perturbation").values
        steps, tau = self.grid.step_count, self.grid.tau
        out = np.zeros((steps + 1, n))
        u = out[0]
        newton = self.policy == "newton"
        solve = row_solver(self._resolvent)
        for k in range(1, steps + 1):
            rhs = self.problem.reaction(u, theta)  # the hook's array is ours: u + tau * r in it
            rhs *= tau
            rhs += u
            if pvals is not None:
                rhs = rhs + tau * pvals[k]
            u_next = solve(rhs)  # the solver's buffer beyond 128 points: out[k] keeps it
            if newton:
                base = u + (tau * pvals[k] if pvals is not None else 0.0)
                u_next = self._newton_step(k, base, u_next, theta, tau)
            out[k] = u_next
            u = out[k]
        return Trajectory(self.grid, out, "state")

    def _newton_step(self, k, base, guess, theta, tau):
        """Newton on v - tau f(v, theta) = base from ``guess``.  The residual is
        formed in f's buffer (-tau f + v - base rounds as v - tau f - base); its
        max norm is also the finiteness check, made before the tridiagonal solve."""
        v = guess
        for _ in range(_NEWTON_MAX):
            res = self.problem.f(v, theta)
            res *= -tau
            res += v
            res -= base
            worst = np.abs(res).max()
            if worst <= _NEWTON_TOL:
                return v
            if not math.isfinite(worst):
                raise SolverError(f"Newton diverged at time step {k}", step=k)
            shift = tau * self.problem.reaction_slope(v)
            v = v - solve_shifted_stiffness(self.triple, tau, shift, res, step=k)
        raise SolverError(f"Newton stalled at time step {k}", step=k)

    # -- linearizations ------------------------------------------------------------

    def solve_sensitivity(self, state: Trajectory, xi) -> Trajectory:
        """Linearized evolution along xi from zero; exactly linear in xi."""
        check_trajectory(state, self.grid, self.triple.interior_points, "state")
        xi = self.problem.check_theta(xi, "parameter direction")
        u = state.values
        tau = self.grid.tau
        out = np.zeros_like(u)
        v = out[0]
        imex = self.policy == "imex"
        slope = tau * self.problem.reaction_slope(self._f_rows(u))
        src = tau * xi
        solve = row_solver(self._resolvent)
        for k in range(1, self.grid.step_count + 1):
            if imex:  # v is the solver's buffer beyond 128 points: out[k] keeps it
                v = solve(v + slope[k - 1] * v + src)
            else:
                v = solve_shifted_stiffness(self.triple, tau, slope[k - 1], v + src, k)
            out[k] = v
        return Trajectory(self.grid, out, "state")

    def solve_adjoint(self, state: Trajectory, z_src: Trajectory, nodes=None) -> Trajectory:
        """Backward sweep transposed against :meth:`solve_sensitivity`.

        Node n holds the multiplier of the step onto node n (n = 1..N).  The
        start does not depend on theta, so no term reads an initial multiplier
        and node 0 stays zero.  A slab's ``nodes`` = (lo, hi) (its ``node_range``)
        load z on nodes lo+1..hi and start the sweep at node hi; the default is (0, N).
        """
        check_trajectory(state, self.grid, self.triple.interior_points, "state")
        check_trajectory(z_src, self.grid, self.triple.interior_points, "residual")
        lo, hi = nodes or (0, self.grid.step_count)
        u = state.values
        tau = self.grid.tau
        out = np.zeros_like(u)
        imex = self.policy == "imex"
        slope = tau * self.problem.reaction_slope(self._f_rows(u)[:hi])
        load = tau * z_src.values[1 : hi + 1]
        load[:lo] = 0.0
        carry = np.zeros(u.shape[1])
        solve = row_solver(self._resolvent)
        for k in range(hi, 0, -1):
            rhs = load[k - 1] + carry
            if imex:  # p is the solver's buffer beyond 128 points: out[k] keeps it
                p = solve(rhs)
                carry = p + slope[k - 1] * p
            else:
                # the newton step matrix is symmetric: its transpose is itself
                p = carry = solve_shifted_stiffness(self.triple, tau, slope[k - 1], rhs, k)
            out[k] = p
        return Trajectory(self.grid, out, "state")

    def derivative(self, theta, state: Trajectory, xi) -> Trajectory:
        """Observation-space directional derivative at theta along xi: the sensitivity."""
        return Trajectory(self.grid, self.solve_sensitivity(state, xi).values, "observation")

    def adjoint(self, theta, state: Trajectory, z: Trajectory, nodes=None) -> np.ndarray:
        """Parameter-space adjoint: tau times the sum of the multipliers p^1..p^N
        (p over ``nodes``)."""
        p = self.solve_adjoint(state, z, nodes)
        return self.grid.tau * np.sum(p.values[1:], axis=0)

    def _f_rows(self, u):
        """Rows of u where steps 1..N take f: old states under imex, new under newton."""
        return u[:-1] if self.policy == "imex" else u[1:]

    # -- slab operators -------------------------------------------------------------

    def slab_restrict(self, traj: Trajectory, j: int) -> Trajectory:
        """P_j: extension by zero of the slab-j restriction (weighted nodes only)."""
        part = require_partition(self.partition)
        return Trajectory(self.grid, part.restrict(traj.values, j), traj.space_tag)

    def slab_derivative(self, theta, state, xi, j) -> Trajectory:
        return self.slab_restrict(self.derivative(theta, state, xi), j)

    def slab_adjoint(self, theta, state, z: Trajectory, j) -> np.ndarray:
        """Adjoint of the slab derivative: the full adjoint of P_j z.

        It loads z on the slab's weighted nodes alone, with no copy of P_j z.
        The backward sweep starts at the slab's last node, above which the
        multiplier is zero, and below the slab keeps evolving with zero source.
        """
        return self.adjoint(theta, state, z, require_partition(self.partition).node_range(j))
