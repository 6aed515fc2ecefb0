import numpy as np
import pytest

from dyninv.errors import SolverError, ValidationError
from dyninv.grids import make_time_grid
from dyninv.harness import DenseOracle, add_noise, make_instance, synthesize_truth, truth_nodes
from dyninv.problem import SemilinearDiffusion
from dyninv.reduced import ReducedOperator
from dyninv.spaces import (
    Trajectory,
    build_triple,
    from_modes,
    inner_observation,
    inner_state,
    norm_observation,
    to_modes,
)

from conftest import positive_theta


@pytest.fixture(params=["imex", "newton"])
def bench_op(request):
    inst = make_instance(8, 10, 0.05, gain=10.0, m=2)
    return ReducedOperator(
        inst.problem, inst.triple, inst.grid, inst.partition, policy=request.param
    )


def test_zero_parameter_zero_state(bench_op):
    state = bench_op.solve_state(np.zeros(8))
    np.testing.assert_array_equal(state.values, 0.0)


def test_linear_steady_state():
    triple = build_triple(6)
    k = 1
    lam = triple.eigenvalues[k]
    grid = make_time_grid(12.0 / lam, 64)
    prob = SemilinearDiffusion(triple, gain=0.0)
    op = ReducedOperator(prob, triple, grid)
    q = triple.eigenvectors[:, k]
    state = op.solve_state(q)
    target = q / lam
    assert np.max(np.abs(state.values[-1] - target)) <= 0.01 * np.max(np.abs(target))


def test_imex_self_convergence_to_newton():
    """IMEX drift from the fully implicit solve is O(tau): halving tau halves it."""
    triple = build_triple(12)
    prob = SemilinearDiffusion(triple, gain=10.0)
    theta = 0.5 * np.sin(2 * np.pi * truth_nodes(triple))
    diffs = []
    for steps in (50, 100):
        grid = make_time_grid(0.1, steps)
        imex = ReducedOperator(prob, triple, grid, policy="imex").solve_state(theta)
        newt = ReducedOperator(prob, triple, grid, policy="newton").solve_state(theta)
        diffs.append(np.max(np.abs(imex.values - newt.values)))
    assert diffs[1] <= 0.7 * diffs[0]


def test_newton_failure_carries_step_index():
    # anti-dissipative reaction over a coarse step: the implicit equation
    # loses solvability and Newton must report the failing step
    triple = build_triple(4)
    grid = make_time_grid(5.0, 2)
    prob = SemilinearDiffusion(triple, gain=-200.0)
    op = ReducedOperator(prob, triple, grid, policy="newton")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError) as exc:
            op.solve_state(20.0 * np.ones(4))
    assert exc.value.step == 1


def test_sensitivity_zero_direction(bench_op):
    theta = positive_theta(bench_op.triple)
    state = bench_op.solve_state(theta)
    v = bench_op.solve_sensitivity(theta, state, np.zeros(8))
    np.testing.assert_array_equal(v.values, 0.0)


def test_sensitivity_exact_for_linear_problem(rng):
    triple = build_triple(7)
    grid = make_time_grid(0.1, 12)
    prob = SemilinearDiffusion(triple, gain=0.0)
    op = ReducedOperator(prob, triple, grid)
    theta = rng.standard_normal(7)
    xi = rng.standard_normal(7)
    state = op.solve_state(theta)
    v = op.solve_sensitivity(theta, state, xi)
    diff = op.solve_state(theta + xi).values - state.values
    assert np.max(np.abs(v.values - diff)) <= 1e-12 * max(np.max(np.abs(diff)), 1.0)


def test_sensitivity_finite_difference_order(rng):
    """FD quotient converges to the sensitivity at first order in the state norm."""
    inst = make_instance(20, 40, 0.1, gain=10.0)
    op = ReducedOperator(inst.problem, inst.triple, inst.grid, policy="newton")
    theta = positive_theta(inst.triple)
    xi = 0.2 + 0.1 * rng.random(20)
    state = op.solve_state(theta)
    v = op.solve_sensitivity(theta, state, xi)
    errs = []
    for eps in (1e-1, 1e-2, 1e-3):
        fd = (op.solve_state(theta + eps * xi).values - state.values) / eps
        diff = Trajectory(inst.grid, fd - v.values, "state")
        errs.append(np.sqrt(inner_state(inst.triple, diff, diff)))
    orders = [np.log10(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 0.9


def test_adjoint_zero_source(bench_op):
    theta = positive_theta(bench_op.triple)
    state = bench_op.solve_state(theta)
    z = Trajectory(bench_op.grid, np.zeros((bench_op.grid.node_count, 8)), "observation")
    p = bench_op.solve_adjoint(theta, state, z)
    np.testing.assert_array_equal(p.values, 0.0)
    np.testing.assert_array_equal(bench_op.adjoint(theta, state, z), np.zeros(8))


def test_adjoint_linear_eigenbasis_recursion():
    """gain 0 and a constant eigenvector source: scalar backward recursion."""
    triple = build_triple(6)
    grid = make_time_grid(0.2, 9)
    prob = SemilinearDiffusion(triple, gain=0.0)
    op = ReducedOperator(prob, triple, grid)
    k = 2
    q = triple.eigenvectors[:, k]
    state = op.solve_state(np.zeros(6))
    z = Trajectory(grid, np.tile(q, (grid.node_count, 1)), "observation")
    p = op.solve_adjoint(np.zeros(6), state, z)
    lam, tau = triple.eigenvalues[k], grid.tau
    coef = 0.0
    expected = np.zeros(grid.node_count)
    for n in range(grid.step_count, 0, -1):
        coef = (coef + tau) / (1.0 + tau * lam)
        expected[n] = coef
    np.testing.assert_allclose(p.values, np.outer(expected, q), atol=1e-12)


def test_adjoint_vs_dense_oracle(tiny_instance, rng):
    oracle = DenseOracle(tiny_instance)
    op = tiny_instance.reduced
    theta = positive_theta(tiny_instance.triple)
    state = op.solve_state(theta)
    adj = oracle.reduced_adjoint_matrix(theta, state)
    for _ in range(5):
        zf = rng.standard_normal(oracle.grid.step_count * oracle.width)
        got = op.adjoint(theta, state, oracle.unflatten_obs(zf))
        want = adj @ zf
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-12)


def test_derivative_adjoint_dot_product(small_instance, rng):
    op = small_instance.reduced
    theta = positive_theta(small_instance.triple)
    state = op.solve_state(theta)
    for _ in range(10):
        xi = rng.standard_normal(op.problem.n_theta)
        zv = np.zeros((op.grid.node_count, small_instance.triple.interior_points))
        zv[1:] = rng.standard_normal(zv[1:].shape)
        z = Trajectory(op.grid, zv, "observation")
        lhs = inner_observation(small_instance.triple, op.derivative(theta, state, xi), z)
        rhs = op.problem.inner_theta(xi, op.adjoint(theta, state, z))
        gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        assert gap <= 1e-10


@pytest.mark.parametrize("policy", ["imex", "newton"])
@pytest.mark.parametrize("n_x, n_t, horizon", [(300, 20, 0.1), (1600, 8, 0.1)])
def test_derivative_adjoint_dot_product_across_blocks(n_x, n_t, horizon, policy, rng):
    """Beyond 128 points the resolvent of the imex steps and of the Newton
    guesses runs over several blocks with carries between them; under both
    policies the derivative and the adjoint stay exact transposes."""
    triple = build_triple(n_x)
    op = ReducedOperator(SemilinearDiffusion(triple, gain=10.0), triple, make_time_grid(horizon, n_t),
                         policy=policy)
    theta = positive_theta(triple)
    state = op.solve_state(theta)
    for _ in range(3):
        xi = rng.standard_normal(op.problem.n_theta)
        zv = np.zeros((n_t + 1, n_x))
        zv[1:] = rng.standard_normal((n_t, n_x))
        z = Trajectory(op.grid, zv, "observation")
        lhs = inner_observation(triple, op.derivative(theta, state, xi), z)
        rhs = op.problem.inner_theta(xi, op.adjoint(theta, state, z))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_imex_state_across_blocks_matches_spectral_march():
    """At 300 points (three blocks) the imex state solve is the march whose
    resolvent is applied in the eigenbasis, to rounding."""
    triple = build_triple(300)
    grid = make_time_grid(0.1, 20)
    op = ReducedOperator(SemilinearDiffusion(triple, gain=10.0), triple, grid)
    theta = positive_theta(triple)
    t, tau, decay = grid.nodes(), grid.tau, 1.0 + grid.tau * triple.eigenvalues
    want = [np.zeros(triple.interior_points)]
    for k in range(1, grid.node_count):
        rhs = want[-1] + tau * op.problem.reaction(t[k], want[-1], theta)
        want.append(from_modes(triple, to_modes(triple, rhs) / decay))
    want = np.array(want)
    got = op.solve_state(theta).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_forward_reuses_state(bench_op):
    theta = positive_theta(bench_op.triple)
    y, state = bench_op.forward(theta)
    np.testing.assert_array_equal(y.values, bench_op.observe(state).values)
    y2, state2 = bench_op.forward(theta)
    np.testing.assert_array_equal(y.values, y2.values)
    np.testing.assert_array_equal(state.values, state2.values)


def test_linear_forward_is_affine(rng):
    triple = build_triple(7)
    grid = make_time_grid(0.1, 10)
    prob = SemilinearDiffusion(triple, gain=0.0)
    op = ReducedOperator(prob, triple, grid)
    theta = rng.standard_normal(7)
    xi = rng.standard_normal(7)
    y1, s1 = op.forward(theta)
    y2, _ = op.forward(theta + xi)
    lin = op.derivative(theta, s1, xi)
    assert np.max(np.abs(y2.values - y1.values - lin.values)) <= 1e-12
    # derivative independent of the linearization point
    theta_b = rng.standard_normal(7)
    _, sb = op.forward(theta_b)
    lin_b = op.derivative(theta_b, sb, xi)
    assert np.max(np.abs(lin.values - lin_b.values)) <= 1e-14 * max(np.max(np.abs(lin.values)), 1.0)


def test_slab_trivial_partition_matches_full(rng):
    inst = make_instance(8, 10, 0.05, gain=10.0, m=1)
    op = inst.reduced
    theta = positive_theta(inst.triple)
    state = op.solve_state(theta)
    zv = np.zeros((inst.grid.node_count, 8))
    zv[1:] = rng.standard_normal(zv[1:].shape)
    z = Trajectory(inst.grid, zv, "observation")
    full = op.adjoint(theta, state, z)
    slab = op.slab_adjoint(theta, state, z, 0)
    assert np.max(np.abs(full - slab)) <= 1e-14 * max(np.max(np.abs(full)), 1e-12)
    d_full = op.derivative(theta, state, rng.standard_normal(8))
    d_slab = op.slab_derivative(theta, state, rng.standard_normal(8), 0)
    assert d_full.values.shape == d_slab.values.shape


def test_slab_additivity(small_instance, rng):
    """Slab restrictions of the derivative sum to the full pairing."""
    op = small_instance.reduced
    part = small_instance.partition
    theta = positive_theta(small_instance.triple)
    state = op.solve_state(theta)
    xi = rng.standard_normal(op.problem.n_theta)
    zv = np.zeros((op.grid.node_count, small_instance.triple.interior_points))
    zv[1:] = rng.standard_normal(zv[1:].shape)
    z = Trajectory(op.grid, zv, "observation")
    full = inner_observation(small_instance.triple, op.derivative(theta, state, xi), z)
    parts = sum(
        inner_observation(
            small_instance.triple,
            op.slab_derivative(theta, state, xi, j),
            op.slab_restrict(z, j),
        )
        for j in range(part.slab_count)
    )
    assert parts == pytest.approx(full, rel=1e-12)


def test_slab_concatenation_reproduces_forward(small_instance):
    op = small_instance.reduced
    part = small_instance.partition
    theta = positive_theta(small_instance.triple)
    y, state = op.forward(theta)
    stitched = np.zeros_like(y.values)
    for j in range(part.slab_count):
        stitched += op.slab_restrict(y, j).values
    np.testing.assert_array_equal(stitched[1:], y.values[1:])


def test_slab_zero_source(small_instance):
    op = small_instance.reduced
    theta = positive_theta(small_instance.triple)
    state = op.solve_state(theta)
    z = Trajectory(op.grid, np.zeros((op.grid.node_count, 24)), "observation")
    np.testing.assert_array_equal(op.slab_adjoint(theta, state, z, 1), np.zeros(24))


def test_missing_partition_rejected():
    triple = build_triple(5)
    grid = make_time_grid(0.1, 5)
    op = ReducedOperator(SemilinearDiffusion(triple), triple, grid)
    theta = np.zeros(5)
    state = op.solve_state(theta)
    z = Trajectory(grid, np.zeros((6, 5)), "observation")
    with pytest.raises(ValidationError):
        op.slab_adjoint(theta, state, z, 0)


def test_state_grid_mismatch():
    triple = build_triple(5)
    op = ReducedOperator(SemilinearDiffusion(triple), triple, make_time_grid(0.1, 5))
    other = make_time_grid(0.1, 6)
    state = Trajectory(other, np.zeros((7, 5)), "state")
    with pytest.raises(ValidationError):
        op.solve_sensitivity(np.zeros(5), state, np.zeros(5))


def test_perturbation_field_used_as_default(rng):
    inst = make_instance(6, 8, 0.05, gain=10.0)
    wvals = np.zeros((inst.grid.node_count, 6))
    wvals[1:] = 0.1 * rng.standard_normal((8, 6))
    pert = Trajectory(inst.grid, wvals, "dual_load")
    theta = positive_theta(inst.triple)
    by_arg = inst.reduced.solve_state(theta, perturbation=pert)
    clean = inst.reduced.solve_state(theta)
    assert np.max(np.abs(by_arg.values - clean.values)) > 0.0


def test_imex_linearization_runs_no_dense_solve(monkeypatch):
    """The imex sweeps apply the tabulated Green's-matrix resolvent only: no LU, no dense Jacobian."""
    inst = make_instance(8, 10, 0.05, gain=10.0, m=2)
    op = inst.reduced
    assert op.policy == "imex"
    theta = positive_theta(inst.triple)
    state = op.solve_state(theta)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense solve or dense Jacobian under the imex policy")

    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(SemilinearDiffusion, "f_u_matrix", forbidden)
    op.solve_sensitivity(theta, state, np.ones(8))
    z = Trajectory(inst.grid, np.ones((inst.grid.node_count, 8)), "observation")
    op.solve_adjoint(theta, state, z)
    op.slab_adjoint(theta, state, z, 1)


def test_newton_linearization_runs_no_dense_solve(monkeypatch):
    """Newton set-up, sensitivity and adjoint solve tridiagonal systems only."""

    def forbidden(*args, **kwargs):
        raise AssertionError("dense solve, eigendecomposition or dense Jacobian on a run path")

    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(SemilinearDiffusion, "f_u_matrix", forbidden)
    inst = make_instance(8, 10, 0.05, gain=10.0, m=2, policy="newton")
    theta, state, y = synthesize_truth(inst)
    add_noise(inst, y, theta, 1e-3, 1e-3, seed=0)
    op = inst.reduced
    op.solve_sensitivity(theta, state, np.ones(8))
    z = Trajectory(inst.grid, np.ones((inst.grid.node_count, 8)), "observation")
    op.solve_adjoint(theta, state, z)
    op.slab_adjoint(theta, state, z, 1)


def _assert_exact_linearization(op, theta, rng):
    """Adjoint dot-product gap <= 1e-12 and reduced Taylor order >= 1.9."""
    grid, triple = op.grid, op.triple
    y0, state = op.forward(theta)
    xi = rng.standard_normal(op.problem.n_theta)
    zv = np.zeros((grid.node_count, triple.interior_points))
    zv[1:] = rng.standard_normal((grid.step_count, triple.interior_points))
    z = Trajectory(grid, zv, "observation")
    lin = op.derivative(theta, state, xi)
    lhs = inner_observation(triple, lin, z)
    rhs = op.problem.inner_theta(xi, op.adjoint(theta, state, z))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
    errs = []
    for eps in (1e-2, 1e-3):
        y1, _ = op.forward(theta + eps * xi)
        diff = Trajectory(grid, y1.values - y0.values - eps * lin.values, "observation")
        errs.append(norm_observation(triple, diff))
    assert np.log10(errs[0] / errs[1]) >= 1.9


class _StateWeightedSource(SemilinearDiffusion):
    """Benchmark problem whose source enters as (1 + u^2 / 2) * theta."""

    def f(self, t, u, theta):
        return super().f(t, u, theta) + 0.5 * np.asarray(u) ** 2 * theta

    def reaction(self, t, u, theta):
        return super().reaction(t, u, theta) + 0.5 * np.asarray(u) ** 2 * theta

    def reaction_slope(self, t, u, theta):
        return super().reaction_slope(t, u, theta) + np.asarray(u) * theta

    def f_u_matrix(self, t, u, theta):
        return super().f_u_matrix(t, u, theta) + np.diag(np.asarray(u) * theta)

    def apply_jac(self, which, mode, t, u, theta, arg):
        if which == "f_u":
            extra = np.asarray(u) * theta * np.asarray(arg)
            return super().apply_jac(which, mode, t, u, theta, arg) + extra
        if which == "f_theta":
            return (1.0 + 0.5 * np.asarray(u) ** 2) * np.asarray(arg)
        return super().apply_jac(which, mode, t, u, theta, arg)


@pytest.mark.parametrize("policy", ["imex", "newton"])
def test_exact_linearization_with_state_dependent_source(policy, rng):
    """f_theta depends on the state: each policy pairs it with the state its step reads."""
    triple = build_triple(10)
    grid = make_time_grid(0.05, 12)
    op = ReducedOperator(_StateWeightedSource(triple, gain=10.0), triple, grid, policy=policy)
    _assert_exact_linearization(op, positive_theta(triple), rng)


@pytest.mark.parametrize("cls", [SemilinearDiffusion, _StateWeightedSource])
def test_reaction_slope_and_stiffness_give_dense_jacobian(cls, rng):
    """The newton solves rely on f_u = -K + diag(reaction_slope)."""
    triple = build_triple(9)
    prob = cls(triple, gain=10.0)
    u = rng.standard_normal(9)
    theta = rng.standard_normal(9)
    structured = -triple.stiffness + np.diag(prob.reaction_slope(0.3, u, theta))
    np.testing.assert_allclose(
        structured, prob.f_u_matrix(0.3, u, theta), rtol=0, atol=1e-13 * np.max(triple.stiffness)
    )
