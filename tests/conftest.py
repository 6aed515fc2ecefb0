import numpy as np
import pytest

from dyninv.aao import AaoPoint, ResidualTriple
from dyninv.harness import make_instance, synthesize_truth, truth_nodes
from dyninv.methods import conjugate_gradient
from dyninv.spaces import Trajectory, inner_state


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


def positive_theta(triple, amplitude=0.3, offset=0.5):
    """Parameter giving strictly positive states (smooth nonlinearity regime)."""
    x = truth_nodes(triple)
    return offset + amplitude * np.sin(2.0 * np.pi * x) ** 2


def step_by_step_march(triple, grid, start, loads):
    """The implicit-Euler march in the eigenbasis taken one step at a time,
    c^k = (c^{k-1} + tau * loads[k-1]) / (1 + tau * lam), the recursion that
    :func:`dyninv.spaces.march_modes` takes a block at a time."""
    denom = 1.0 + grid.tau * triple.eigenvalues
    loads = np.broadcast_to(loads, (grid.node_count - 1, triple.interior_points))
    c = np.empty((grid.node_count, triple.interior_points))
    c[0] = start
    for k in range(1, grid.node_count):
        c[k] = (c[k - 1] + grid.tau * loads[k - 1]) / denom
    return c


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


def nodal_irgnm_step(op, point, data, alpha, prior, cg_tol=1e-8, cg_max=500):
    """:func:`dyninv.methods.step_aao_irgnm` with CG on nodal joint vectors
    (:func:`nodal_joint_maps`); returns the new iterate and the CG count."""
    grid = op.grid
    forward, adjoint, pair_inner = nodal_joint_maps(op, point)
    resid = op.residual(point, data)
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
