import numpy as np
import pytest

from dyninv import spaces
from dyninv.aao import _NODAL_FROM, AaoPoint, ResidualTriple
from dyninv.harness import make_instance, synthesize_truth, truth_nodes
from dyninv.methods import conjugate_gradient
from dyninv.problem import SemilinearDiffusion
from dyninv.spaces import Trajectory, from_modes, inner_state, to_modes


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def tiny_instance():
    """Dense-oracle sized benchmark instance (n_x=8, N=6, m=2)."""
    return make_instance(8, 6, 0.05, gain=10.0, m=2)


@pytest.fixture(scope="session")
def tiny_truth(tiny_instance):
    return synthesize_truth(tiny_instance, "sine", 0.1)


@pytest.fixture(scope="session")
def small_instance():
    """Mid-size instance for matrix-free property tests."""
    return make_instance(24, 24, 0.1, gain=10.0, m=4)


@pytest.fixture(scope="session")
def above_cut():
    """The smallest size on the nodal side of the all-at-once operator's size
    cut, at N = 8 and m = 2, with its synthesized truth (theta, state, y)."""
    inst = make_instance(_NODAL_FROM, 8, 0.1, gain=10.0, m=2)
    return inst, synthesize_truth(inst, "sine", 0.1)


class CubicReaction(SemilinearDiffusion):
    """The benchmark problem with an extra reaction -u^3, stated in ``f``,
    ``reaction`` and ``reaction_slope`` alone: the operators must read f_u
    from the slope."""

    def f(self, u, theta):
        return super().f(u, theta) - np.asarray(u) ** 3

    def reaction(self, u, theta):
        return super().reaction(u, theta) - np.asarray(u) ** 3

    def reaction_slope(self, u):
        return super().reaction_slope(u) - 3.0 * np.asarray(u) ** 2


def positive_theta(triple, amplitude=0.3, offset=0.5):
    """Parameter giving strictly positive states (smooth nonlinearity regime)."""
    x = truth_nodes(triple)
    return offset + amplitude * np.sin(2.0 * np.pi * x) ** 2


def dense_graph_rows(triple, u):
    """Rows (u^{n+1} - u^n)/tau + K u^{n+1} for n = 0..N-1 of a state
    trajectory, with K the dense stiffness matrix."""
    v = u.values
    return (v[1:] - v[:-1]) / u.grid.tau + v[1:] @ triple.stiffness


def flat_point(point):
    """A joint point as one vector, (state nodes 0..N, theta): the dense
    oracle's domain layout."""
    return np.concatenate([point.state.values.ravel(), point.theta])


def step_by_step_march(triple, grid, start, loads):
    """The implicit-Euler march in the eigenbasis taken one step at a time,
    c^k = (c^{k-1} + tau * loads[k-1]) / (1 + tau * lam), the recursion that
    :func:`dyninv.spaces.march_modes` takes a block at a time and
    :func:`dyninv.spaces.march_nodes` on nodal rows."""
    denom = 1.0 + grid.tau * triple.eigenvalues
    loads = np.broadcast_to(loads, (grid.node_count - 1, triple.interior_points))
    c = np.empty((grid.node_count, triple.interior_points))
    c[0] = start
    for k in range(1, grid.node_count):
        c[k] = (c[k - 1] + grid.tau * loads[k - 1]) / denom
    return c


def spectral_adjoint(op, point, resid):
    """The all-at-once adjoint (nodal state direction, parameter direction) with
    K^-1 w taken spectrally, from_modes(to_modes(w) / lam), every load changed to
    modes by its own basis product and both sweeps marched one step at a time
    (:func:`step_by_step_march`): the reference for
    :meth:`dyninv.aao.AllAtOnceOperator.adjoint`, which reads K^-1 w from the
    Green's matrix of K and stacks its loads into one basis product."""
    triple, grid, lam = op.triple, op.grid, op.triple.eigenvalues
    u = point.state.values[1:]
    z, h = resid.observation.values[1:], resid.initial
    w_hat = to_modes(triple, resid.model.values[1:])
    iw = from_modes(triple, w_hat / lam)
    rows = z - op.problem.reaction_slope(u) * iw
    ph = step_by_step_march(triple, grid, 0.0, to_modes(triple, rows[::-1]))[::-1]
    dh = step_by_step_march(triple, grid, ph[0] + to_modes(triple, h), w_hat + lam * ph[:-1])
    dtheta = -grid.tau * np.sum(iw, axis=0)
    return from_modes(triple, dh), dtheta


def nodal_joint_maps(op, point):
    """The derivative, adjoint and inner product of the all-at-once IRGNM on
    joint vectors whose state part holds nodal values, as
    :func:`dyninv.methods._joint_maps` ran them before they moved to modal
    coefficients: (flattened state, theta) with the graph product
    :func:`dyninv.spaces.inner_state`."""
    grid, triple, problem = op.grid, op.triple, op.problem
    cut = grid.node_count * point.state.width

    def split(flat):
        return Trajectory(grid, flat[:cut].reshape(grid.node_count, -1), "state"), flat[cut:]

    def forward(flat):
        return op.derivative(point, *split(flat))

    def adjoint(resid):
        dstate, dtheta = op.adjoint(point, resid)
        return np.concatenate([dstate.values.ravel(), dtheta])

    def pair_inner(a, b):
        (sa, ta), (sb, tb) = split(a), split(b)
        return inner_state(triple, sa, sb) + problem.inner_theta(ta, tb)

    return forward, adjoint, pair_inner


def nodal_irgnm_step(op, point, y, alpha, prior, cg_tol=1e-8, cg_max=500):
    """:func:`dyninv.methods.step_aao_irgnm` with CG on nodal joint vectors
    (:func:`nodal_joint_maps`); returns the new iterate and the CG count."""
    grid = op.grid
    forward, adjoint, pair_inner = nodal_joint_maps(op, point)
    resid = op.residual(point, y)
    shift_state = Trajectory(grid, point.state.values - prior.state.values, "state")
    lin = op.derivative(point, shift_state, point.theta - prior.theta)
    rhs = adjoint(ResidualTriple(
        Trajectory(grid, lin.model.values - resid.model.values, "dual_load"),
        lin.initial - resid.initial,
        Trajectory(grid, lin.observation.values - resid.observation.values, "observation"),
    ))
    sol, its = conjugate_gradient(
        lambda flat: adjoint(forward(flat)) + alpha * flat, rhs, pair_inner, cg_tol, cg_max
    )
    cut = grid.node_count * point.state.width
    du = sol[:cut].reshape(grid.node_count, -1)
    new = AaoPoint(Trajectory(grid, prior.state.values + du, "state"), prior.theta + sol[cut:])
    return new, its


def recorded_resolvent_solves(monkeypatch, module=spaces):
    """(tables, row count) of every resolvent solve ``module`` makes: one per
    step of a :func:`dyninv.spaces.row_solver` it builds, as a nodal march or a
    reduced imex sweep does, one block or many, and one per call of its
    :func:`dyninv.spaces.solve_resolvent` where it binds one."""
    calls, make = [], module.row_solver

    def row_solver(tables):
        step = make(tables)

        def recorded(row):
            calls.append((tables, 1))
            return step(row)

        return recorded

    monkeypatch.setattr(module, "row_solver", row_solver)
    if hasattr(module, "solve_resolvent"):
        solve = module.solve_resolvent

        def solve_resolvent(tables, rows):
            calls.append((tables, rows.size // tables.points))
            return solve(tables, rows)

        monkeypatch.setattr(module, "solve_resolvent", solve_resolvent)
    return calls


def refined_dense_solve(a, x):
    """np.linalg.solve with the symmetric matrix a (I + tau K or K), refined once
    with the residual taken in extended precision.  The LU solve alone is off by
    up to 1.2e-12 relative at n = 1600 and r >= 1e6, where the condition number
    of I + tau K is ~1e6, and a residual in double precision does not reliably
    improve it; the refined solve agrees with the spectral one to ~1e-15, so the
    comparison measures the Green's matrix.  x may be in extended precision,
    which the residual keeps."""
    y = np.linalg.solve(a, x.astype(float).T).T
    residual = x - y.astype(np.longdouble) @ a.astype(np.longdouble)
    return y + np.linalg.solve(a, residual.astype(float).T).T
