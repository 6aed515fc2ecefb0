"""Reduced formulation: parameter-to-state map, sensitivities and adjoints.

The state solve eliminates the model equation.  The derivative is the exact
derivative of the step the state solve runs under the operator's policy:

- 'imex': v^k = R (v^{k-1} + tau r_u(u^{k-1}) v^{k-1} + tau f_theta xi) with
  the constant resolvent R = (I + tau K)^{-1}, and the diagonal reaction slope
  r_u taken at the old time level, as the step takes the reaction;
- 'newton': (I - tau f_u(u^k)) v^k = v^{k-1} + tau f_theta xi, the fully
  implicit step with coefficients frozen at the new time level.

Neither policy assembles or factors a system matrix.  The reaction is
pointwise, so f_u = -K + diag(r_u): every newton matrix
I + tau K - tau diag(r_u) is tridiagonal and symmetric, and the Newton steps,
the sensitivity and the adjoint all solve it with
:func:`~dyninv.spaces.solve_shifted_stiffness`.
The resolvent R, of the imex steps and of the Newton initial guesses, is the
closed-form Green's matrix of I + tau K, which the operator tabulates once
(:func:`~dyninv.spaces.resolvent_tables`) and applies with
:func:`~dyninv.spaces.solve_resolvent`: one product per step up to 128 points.

The adjoint is its exact discrete transpose (a backward sweep with the
transposed step maps, followed by right-endpoint quadrature of the parameter
terms).  A slab map is the full map followed by the slab restriction P_j of
:meth:`ReducedOperator.slab_restrict`, so the slab adjoint is the full adjoint
of P_j z.
"""

import numpy as np

from .errors import SolverError, ValidationError
from .grids import KaczmarzPartition, TimeGrid, require_partition
from .problem import SemilinearDiffusion
from .spaces import (
    DiscreteGelfandTriple,
    Trajectory,
    resolvent_tables,
    solve_resolvent,
    solve_shifted_stiffness,
)

_NEWTON_MAX = 25
_NEWTON_TOL = 1e-12
POLICIES = ("imex", "newton")


def check_policy(policy):
    if policy not in POLICIES:
        raise ValidationError(f"unknown solve policy {policy!r}")


class ReducedOperator:
    """Parameter-to-observation map theta -> g(., S(theta), theta), matrix-free.

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
        self._t = grid.nodes()
        self._resolvent = resolvent_tables(triple, grid.tau)

    # -- nonlinear state solve ---------------------------------------------------

    def solve_state(self, theta, perturbation=None) -> Trajectory:
        """March the nonlinear evolution from u0(theta) over the whole horizon; an
        optional model ``perturbation`` (noisy-data synthesis only) joins f."""
        theta = np.asarray(theta, dtype=float)
        pvals = perturbation.values if perturbation is not None else None
        n = self.triple.interior_points
        steps, tau = self.grid.step_count, self.grid.tau
        out = np.empty((steps + 1, n))
        out[0] = self.problem.u0(theta)
        u = out[0]
        newton = self.policy == "newton"
        for k in range(1, steps + 1):
            rhs = u + tau * self.problem.reaction(self._t[k], u, theta)
            if pvals is not None:
                rhs = rhs + tau * pvals[k]
            u_next = solve_resolvent(self._resolvent, rhs)
            if newton:
                base = u + (tau * pvals[k] if pvals is not None else 0.0)
                u_next = self._newton_step(k, base, u_next, theta, tau)
            out[k] = u_next
            u = u_next
        return Trajectory(self.grid, out, "state")

    def _newton_step(self, k, base, guess, theta, tau):
        t = self._t[k]
        v = guess
        for _ in range(_NEWTON_MAX):
            if not np.all(np.isfinite(v)):
                raise SolverError(f"Newton diverged at time step {k}", step=k)
            res = v - tau * self.problem.f(t, v, theta) - base
            if np.max(np.abs(res)) <= _NEWTON_TOL:
                return v
            shift = tau * self.problem.reaction_slope(t, v, theta)
            v = v - solve_shifted_stiffness(self.triple, tau, shift, res, step=k)
        raise SolverError(f"Newton stalled at time step {k}", step=k)

    def observe(self, state: Trajectory, theta) -> Trajectory:
        return Trajectory(self.grid, self.problem.g(self._t, state.values, theta), "observation")

    def forward(self, theta) -> tuple[Trajectory, Trajectory]:
        """Observation of the state solve; the state is returned for reuse."""
        state = self.solve_state(theta)
        return self.observe(state, theta), state

    # -- linearizations ------------------------------------------------------------

    def solve_sensitivity(self, theta, state: Trajectory, xi) -> Trajectory:
        """Linearized evolution along xi; exactly linear in xi."""
        self._check_state(state)
        theta = np.asarray(theta, dtype=float)
        xi = np.asarray(xi, dtype=float)
        u = state.values
        tau = self.grid.tau
        jac = self.problem.apply_jac
        out = np.empty_like(u)
        out[0] = jac("u0", "forward", None, None, theta, xi)
        v = out[0]
        imex = self.policy == "imex"
        u_f = self._f_rows(u)
        slope = tau * self.problem.reaction_slope(self._t[1:], u_f, theta)
        src = np.broadcast_to(
            tau * jac("f_theta", "forward", self._t[1:], u_f, theta, xi), slope.shape
        )
        for k in range(1, self.grid.step_count + 1):
            if imex:
                v = solve_resolvent(self._resolvent, v + slope[k - 1] * v + src[k - 1])
            else:
                v = solve_shifted_stiffness(self.triple, tau, slope[k - 1], v + src[k - 1], k)
            out[k] = v
        return Trajectory(self.grid, out, "state")

    def solve_adjoint(self, theta, state: Trajectory, z_src: Trajectory) -> Trajectory:
        """Backward sweep transposed against :meth:`solve_sensitivity`.

        Node n holds the multiplier of the step onto node n (n = 1..N).  The
        initial slot holds the weight of the initial-condition term in the
        parameter assembly: under 'imex' the multiplier of node 1 carried back
        through the explicit reaction step, (I + tau r_u(u^0)) p^1; under
        'newton' a copy of node 1.
        """
        self._check_state(state)
        theta = np.asarray(theta, dtype=float)
        u = state.values
        z = z_src.values
        tau = self.grid.tau
        jac = self.problem.apply_jac
        out = np.zeros_like(u)
        imex = self.policy == "imex"
        u_f = self._f_rows(u)
        slope = tau * self.problem.reaction_slope(self._t[1:], u_f, theta)
        load = tau * jac("g_u", "adjoint", self._t[1:], u[1:], theta, z[1:])
        carry = np.zeros(u.shape[1])
        for k in range(self.grid.step_count, 0, -1):
            rhs = load[k - 1] + carry
            if imex:
                p = solve_resolvent(self._resolvent, rhs)
                carry = p + slope[k - 1] * p
            else:
                # the newton step matrix is symmetric: its transpose is itself
                p = carry = solve_shifted_stiffness(self.triple, tau, slope[k - 1], rhs, k)
            out[k] = p
        out[0] = carry
        return Trajectory(self.grid, out, "state")

    def derivative(self, theta, state: Trajectory, xi) -> Trajectory:
        """Observation-space directional derivative at theta along xi."""
        v = self.solve_sensitivity(theta, state, xi)
        jac = self.problem.apply_jac
        z = jac("g_u", "forward", self._t, state.values, theta, v.values) + jac(
            "g_theta", "forward", self._t, state.values, theta, np.asarray(xi, dtype=float)
        )
        return Trajectory(self.grid, z, "observation")

    def adjoint(self, theta, state: Trajectory, z: Trajectory) -> np.ndarray:
        """Parameter-space adjoint: quadrature of the adjoint-state integrands."""
        p = self.solve_adjoint(theta, state, z)
        u = state.values
        tau = self.grid.tau
        jac = self.problem.apply_jac
        terms = jac("g_theta", "adjoint", self._t[1:], u[1:], theta, z.values[1:]) + jac(
            "f_theta", "adjoint", self._t[1:], self._f_rows(u), theta, p.values[1:]
        )
        out = tau * np.sum(terms, axis=0)
        return out + jac("u0", "adjoint", None, None, theta, p.values[0])

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

        The observation source is supported on the slab while the backward
        sweep and the model-term quadrature run over the whole horizon.
        """
        return self.adjoint(theta, state, self.slab_restrict(z, j))

    def _check_state(self, state: Trajectory):
        if state.grid != self.grid:
            raise ValidationError("state lives on a different grid")
        if state.width != self.triple.interior_points:
            raise ValidationError("state width does not match the discretisation")
