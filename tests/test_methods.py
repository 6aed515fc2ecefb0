from dataclasses import replace

import numpy as np
import pytest

from dyninv import methods
from dyninv.aao import AaoPoint, AllAtOnceOperator, data_triple, zero_point
from dyninv.errors import InnerSolveError, SolverError, ValidationError
from dyninv.harness import DenseOracle, make_instance, synthesize_truth
from dyninv.methods import (
    MethodConfig,
    _norm_stepsize,
    conjugate_gradient,
    estimate_operator_norm,
    run,
    step_aao_irgnm,
    step_aao_landweber,
    step_aao_landweber_kaczmarz,
    step_reduced_irgnm,
    step_reduced_landweber,
    step_reduced_landweber_kaczmarz,
)
from dyninv.reduced import ReducedOperator
from dyninv.spaces import Trajectory, inner_observation, inner_state

from conftest import nodal_irgnm_step, nodal_joint_maps


@pytest.fixture(scope="module")
def newton_setup():
    """Tiny instance solved fully implicitly so the truth is an exact zero."""
    inst = make_instance(8, 6, 0.05, gain=10.0, m=2, policy="newton")
    truth = synthesize_truth(inst, "sine", 0.1)
    return inst, truth


def theta_drift(problem, a, b):
    return problem.norm_theta(a - b)


# -- stationarity at an exact solution -------------------------------------------


def test_landweber_methods_stationary_at_truth(newton_setup):
    inst, (theta, state, y) = newton_setup
    data = data_triple(inst.grid, 8, y)
    point = AaoPoint(state.copy(), theta.copy())

    moved = step_aao_landweber(inst.aao, point, data, mu=1.0)
    assert theta_drift(inst.problem, moved.theta, theta) <= 1e-12
    assert np.max(np.abs(moved.state.values - state.values)) <= 1e-12

    for k in range(2):
        moved = step_aao_landweber_kaczmarz(inst.aao, point, data, 1.0, k)
        assert theta_drift(inst.problem, moved.theta, theta) <= 1e-12

    z = Trajectory(inst.grid, np.zeros_like(y.values), "observation")
    new_theta = step_reduced_landweber(inst.reduced, theta, z, state, mu=1.0)
    assert theta_drift(inst.problem, new_theta, theta) == 0.0
    for k in range(2):
        new_theta = step_reduced_landweber_kaczmarz(inst.reduced, theta, z, state, 1.0, k)
        assert theta_drift(inst.problem, new_theta, theta) == 0.0


def test_irgnm_stationary_with_prior_at_truth(newton_setup):
    inst, (theta, state, y) = newton_setup
    data = data_triple(inst.grid, 8, y)
    point = AaoPoint(state.copy(), theta.copy())
    prior = AaoPoint(state.copy(), theta.copy())
    moved = step_aao_irgnm(inst.aao, point, data, alpha=0.5, prior=prior)
    assert theta_drift(inst.problem, moved.theta, theta) <= 1e-10
    z = Trajectory(inst.grid, np.zeros_like(y.values), "observation")
    new_theta = step_reduced_irgnm(inst.reduced, theta, z, state, 0.5, theta.copy())
    assert theta_drift(inst.problem, new_theta, theta) <= 1e-12


def test_zero_stepsize_is_identity(newton_setup, rng):
    inst, (theta, state, y) = newton_setup
    data = data_triple(inst.grid, 8, y)
    point = AaoPoint(
        Trajectory(inst.grid, rng.standard_normal(state.values.shape), "state"),
        rng.standard_normal(8),
    )
    moved = step_aao_landweber(inst.aao, point, data, mu=0.0)
    np.testing.assert_array_equal(moved.state.values, point.state.values)
    np.testing.assert_array_equal(moved.theta, point.theta)


# -- dense-oracle agreement for single steps ---------------------------------------


def test_aao_landweber_step_matches_dense(newton_setup):
    inst, (theta, state, y) = newton_setup
    oracle = DenseOracle(inst)
    data = data_triple(inst.grid, 8, y)
    point = zero_point(inst.triple, inst.grid, inst.problem)
    mu = 1.0
    moved = step_aao_landweber(inst.aao, point, data, mu)
    resid_flat = oracle.aao_residual_flat(point, data)
    adj = oracle.aao_adjoint_matrix(point)
    dense_new = oracle.flatten_point(point) - mu * adj @ resid_flat
    got = oracle.flatten_point(moved)
    assert np.max(np.abs(got - dense_new)) <= 1e-12 * max(np.max(np.abs(dense_new)), 1e-12)


def test_reduced_landweber_step_matches_dense(newton_setup):
    inst, (theta_true, state_true, y) = newton_setup
    oracle = DenseOracle(inst)
    op = inst.reduced
    theta = np.zeros(8)
    y_pred, state = op.forward(theta)
    z = Trajectory(inst.grid, y_pred.values - y.values, "observation")
    got = step_reduced_landweber(op, theta, z, state, mu=1.0)
    adj = oracle.reduced_adjoint_matrix(theta, state)
    want = theta - adj @ oracle.flatten_obs(z)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-12)


def test_aao_irgnm_step_matches_dense_solve(newton_setup):
    inst, (theta, state, y) = newton_setup
    oracle = DenseOracle(inst)
    data = data_triple(inst.grid, 8, y)
    point = zero_point(inst.triple, inst.grid, inst.problem)
    prior = zero_point(inst.triple, inst.grid, inst.problem)
    alpha = 0.3
    moved = step_aao_irgnm(inst.aao, point, data, alpha, prior, cg_tol=1e-12, cg_max=3000)
    jac = oracle.aao_derivative_matrix(point)
    adj = oracle.aao_adjoint_matrix(point)
    resid_flat = oracle.aao_residual_flat(point, data)
    shift = oracle.flatten_point(point) - oracle.flatten_point(prior)
    rhs = adj @ (jac @ shift - resid_flat)
    normal = adj @ jac + alpha * np.eye(oracle.dom_dim)
    delta = np.linalg.solve(normal, rhs)
    want = oracle.flatten_point(prior) + delta
    got = oracle.flatten_point(moved)
    assert np.max(np.abs(got - want)) <= 1e-8 * max(np.max(np.abs(want)), 1.0)


def test_reduced_irgnm_step_matches_dense_solve(newton_setup):
    inst, (theta_true, state_true, y) = newton_setup
    oracle = DenseOracle(inst)
    op = inst.reduced
    theta = 0.02 * np.ones(8)
    theta_bar = np.zeros(8)
    y_pred, state = op.forward(theta)
    z = Trajectory(inst.grid, y_pred.values - y.values, "observation")
    alpha = 0.1
    got = step_reduced_irgnm(op, theta, z, state, alpha, theta_bar, cg_tol=1e-12, cg_max=2000)
    jac = oracle.reduced_derivative_matrix(theta, state)
    adj = oracle.reduced_adjoint_matrix(theta, state)
    rhs = adj @ (jac @ (theta - theta_bar) - oracle.flatten_obs(z))
    normal = adj @ jac + alpha * np.eye(8)
    want = theta_bar + np.linalg.solve(normal, rhs)
    assert np.max(np.abs(got - want)) <= 1e-8 * max(np.max(np.abs(want)), 1.0)


# -- IRGNM behavior ----------------------------------------------------------------


def test_irgnm_huge_alpha_pins_to_prior(newton_setup, rng):
    inst, (theta, state, y) = newton_setup
    data = data_triple(inst.grid, 8, y)
    point = AaoPoint(
        Trajectory(inst.grid, 0.1 * rng.standard_normal(state.values.shape), "state"),
        0.1 * rng.standard_normal(8),
    )
    prior = zero_point(inst.triple, inst.grid, inst.problem)
    alpha = 1e12
    moved = step_aao_irgnm(inst.aao, point, data, alpha, prior)
    shift_norm = np.sqrt(
        inner_state(inst.triple, moved.state, moved.state)
        + inst.problem.inner_theta(moved.theta, moved.theta)
    )
    resid = inst.aao.residual(point, data)
    lin = inst.aao.derivative(
        point,
        Trajectory(inst.grid, point.state.values - prior.state.values, "state"),
        point.theta - prior.theta,
    )
    rhs_state, rhs_theta = inst.aao.adjoint(
        point,
        type(resid)(
            Trajectory(inst.grid, lin.model.values - resid.model.values, "dual_load"),
            lin.initial - resid.initial,
            Trajectory(
                inst.grid, lin.observation.values - resid.observation.values, "observation"
            ),
        ),
    )
    rhs_norm = np.sqrt(
        inner_state(inst.triple, rhs_state, rhs_state)
        + inst.problem.inner_theta(rhs_theta, rhs_theta)
    )
    assert shift_norm <= 1e-9 * rhs_norm


def test_irgnm_linear_consistent_recovers_truth(rng):
    inst = make_instance(6, 5, 0.05, gain=0.0, m=1, policy="newton")
    theta, state, y = synthesize_truth(inst, "sine", 0.1)
    data = data_triple(inst.grid, 6, y)
    start = zero_point(inst.triple, inst.grid, inst.problem)
    prior = AaoPoint(state.copy(), theta.copy())  # consistent linear system
    moved = step_aao_irgnm(inst.aao, start, data, alpha=1e-8, prior=prior, cg_tol=1e-12, cg_max=2000)
    assert inst.problem.norm_theta(moved.theta - theta) <= 1e-6


def test_irgnm_normal_equation_residual_within_cg_tol(newton_setup):
    inst, (theta, state, y) = newton_setup
    op = inst.reduced
    theta0 = np.zeros(8)
    y_pred, st = op.forward(theta0)
    z = Trajectory(inst.grid, y_pred.values - y.values, "observation")
    alpha, tol = 0.05, 1e-8
    theta1 = step_reduced_irgnm(op, theta0, z, st, alpha, np.zeros(8), cg_tol=tol, cg_max=1000)
    # recompute the normal-equation residual at the returned point
    lin = op.derivative(theta0, st, theta0 - np.zeros(8))
    rhs_traj = Trajectory(op.grid, lin.values - z.values, "observation")
    rhs = op.adjoint(theta0, st, rhs_traj)
    out = op.derivative(theta0, st, theta1)
    lhs = op.adjoint(theta0, st, out) + alpha * theta1
    res = lhs - rhs
    assert op.problem.norm_theta(res) <= 2.0 * tol * op.problem.norm_theta(rhs)


# -- generic solvers ----------------------------------------------------------------


def test_cg_solves_spd_system(rng):
    a = rng.standard_normal((12, 12))
    spd = a @ a.T + 12 * np.eye(12)
    b = rng.standard_normal(12)
    x, iters = conjugate_gradient(lambda v: spd @ v, b, np.dot, tol=1e-12, max_iter=100)
    np.testing.assert_allclose(spd @ x, b, atol=1e-9)
    assert iters <= 100


def test_cg_cap_raises_with_achieved(rng):
    a = rng.standard_normal((30, 30))
    spd = a @ a.T + 1e-6 * np.eye(30)
    b = rng.standard_normal(30)
    with pytest.raises(InnerSolveError) as exc:
        conjugate_gradient(lambda v: spd @ v, b, np.dot, tol=1e-14, max_iter=3)
    assert 0.0 < exc.value.achieved


def test_operator_norm_identity():
    est = estimate_operator_norm(lambda x: x, lambda x: x, np.dot, np.ones(5))
    assert est == pytest.approx(1.0, abs=1e-6)


def test_operator_norm_diagonal():
    d = np.array([1.0, 2.0, 5.0])
    est = estimate_operator_norm(lambda x: d * x, lambda x: d * x, np.dot, np.ones(3), trials=200)
    assert est == pytest.approx(5.0, abs=1e-4)


def test_operator_norm_matches_dense_svd(newton_setup):
    inst, (theta, state, y) = newton_setup
    oracle = DenseOracle(inst)
    point = zero_point(inst.triple, inst.grid, inst.problem)
    jac = oracle.aao_derivative_matrix(point)
    adj = oracle.aao_adjoint_matrix(point)
    gram_norm = np.sqrt(np.max(np.real(np.linalg.eigvals(adj @ jac))))

    grid, width, n_theta = inst.grid, 8, 8

    def split(flat):
        cut = grid.node_count * width
        return flat[:cut].reshape(-1, width), flat[cut:]

    def fwd(flat):
        du, dtheta = split(flat)
        return inst.aao.derivative(point, Trajectory(grid, du, "state"), dtheta)

    def adj_apply(out):
        ds, dt = inst.aao.adjoint(point, out)
        return np.concatenate([ds.values.ravel(), dt])

    def pair_inner(a, b):
        ua, ta = split(a)
        ub, tb = split(b)
        return inner_state(
            inst.triple, Trajectory(grid, ua, "state"), Trajectory(grid, ub, "state")
        ) + inst.problem.inner_theta(ta, tb)

    rng = np.random.default_rng(3)
    est = estimate_operator_norm(
        fwd, adj_apply, pair_inner, rng.standard_normal(oracle.dom_dim), trials=500, stall_tol=1e-10
    )
    assert est == pytest.approx(gram_norm, rel=1e-3)


# -- run loop -----------------------------------------------------------------------


def test_run_starting_at_truth_stops_immediately(newton_setup):
    inst, (theta, state, y) = newton_setup
    config = MethodConfig(tag="rLW", k_max=10)
    record = run(config, inst, y, delta=0.0, truth=(theta, state), start=theta)
    assert record.k_star == 0
    assert record.stop_reason == "discrepancy"
    assert len(record.rows) == 1
    assert record.rows[0].res_total == 0.0


def test_run_respects_k_max(newton_setup):
    inst, (theta, state, y) = newton_setup
    config = MethodConfig(tag="rLW", k_max=5)
    record = run(config, inst, y, delta=0.0, truth=(theta, state))
    assert record.stop_reason == "k_max"
    assert record.k_star == 5
    assert len(record.rows) == 6
    assert [r.k for r in record.rows] == list(range(6))


def test_run_discrepancy_property(newton_setup):
    """First residual at or below tau*delta defines the stopping index."""
    inst, (theta, state, y) = newton_setup
    noisy = Trajectory(
        inst.grid,
        y.values + 2e-4 * np.random.default_rng(0).standard_normal(y.values.shape),
        "observation",
    )
    diff = Trajectory(inst.grid, noisy.values - y.values, "observation")
    delta = np.sqrt(inner_observation(inst.triple, diff, diff))
    config = MethodConfig(tag="rLW", stepsize="norm", k_max=4000, tau_disc=2.5)
    record = run(config, inst, noisy, delta=delta, truth=(theta, state))
    assert record.stop_reason == "discrepancy"
    res = record.column("res_total")
    assert res[-1] <= config.tau_disc * delta
    assert np.all(res[:-1] > config.tau_disc * delta)


def test_run_kaczmarz_checks_once_per_sweep(newton_setup):
    inst, (theta, state, y) = newton_setup
    config = MethodConfig(tag="rLWK", m=2, k_max=7)
    record = run(config, inst, y, delta=1e9)  # absurd delta: stop at first sweep check
    assert record.k_star == 0
    config = MethodConfig(tag="rLWK", m=2, k_max=7)
    record = run(config, inst, y, delta=0.0)
    assert record.stop_reason == "k_max"


def test_run_kaczmarz_m1_equals_plain(newton_setup):
    inst1 = make_instance(8, 6, 0.05, gain=10.0, m=1, policy="newton")
    theta, state, y = synthesize_truth(inst1, "sine", 0.1)
    rec_lw = run(MethodConfig(tag="rLW", k_max=6), inst1, y, 0.0, truth=(theta, state))
    rec_lwk = run(MethodConfig(tag="rLWK", m=1, k_max=6), inst1, y, 0.0, truth=(theta, state))
    np.testing.assert_allclose(rec_lwk.theta_final, rec_lw.theta_final, atol=1e-14)
    a_lw = run(MethodConfig(tag="aLW", k_max=6), inst1, y, 0.0, truth=(theta, state))
    a_lwk = run(MethodConfig(tag="aLWK", m=1, k_max=6), inst1, y, 0.0, truth=(theta, state))
    np.testing.assert_allclose(a_lwk.theta_final, a_lw.theta_final, atol=1e-14)
    np.testing.assert_allclose(
        a_lwk.state_final.values, a_lw.state_final.values, atol=1e-14
    )


def test_run_alpha_schedule_recorded(newton_setup):
    inst, (theta, state, y) = newton_setup
    config = MethodConfig(tag="rIRGNM", alpha0=0.7, q=0.5, k_max=3)
    record = run(config, inst, y, delta=0.0)
    assert record.metadata["alpha0"] == 0.7
    assert record.metadata["q"] == 0.5
    alphas = [record.metadata["alpha0"] * record.metadata["q"] ** k for k in range(3)]
    np.testing.assert_allclose(alphas, [0.7, 0.35, 0.175])


def test_run_apriori_stop(newton_setup):
    inst, (theta, state, y) = newton_setup
    config = MethodConfig(tag="rLW", k_max=50, k_apriori=3)
    record = run(config, inst, y, delta=0.0)
    assert record.stop_reason == "a-priori"
    assert record.k_star == 3


def test_landweber_residual_monotone_linear_case():
    inst = make_instance(8, 8, 0.05, gain=0.0, m=1, policy="newton")
    theta, state, y = synthesize_truth(inst, "sine", 0.1)
    config = MethodConfig(tag="aLW", stepsize="norm", k_max=200)
    record = run(config, inst, y, delta=0.0, truth=(theta, state))
    res = record.column("res_total")
    assert np.all(np.diff(res) <= 1e-14)


def test_aao_kaczmarz_full_sweep_matches_dense(newton_setup):
    """Composing one step per slab reproduces the dense sweep computation."""
    inst, (theta, state, y) = newton_setup
    oracle = DenseOracle(inst)
    data = data_triple(inst.grid, 8, y)
    mu = 1.0
    point = zero_point(inst.triple, inst.grid, inst.problem)
    flat = oracle.flatten_point(point)
    for k in range(inst.partition.slab_count):
        j = inst.partition.slab_index(k)
        # dense step on the current iterate
        dense_point = oracle.unflatten_point(flat)
        resid_flat = oracle.aao_residual_flat(dense_point, data)
        mask = np.zeros(oracle.cod_dim)
        nodes = np.zeros(inst.grid.node_count, dtype=bool)
        nodes[inst.partition.weighted_nodes(j)] = True
        blk = inst.grid.step_count * 8
        mask[:blk] = np.repeat(nodes[1:], 8)
        if j == 0:
            mask[blk : blk + 8] = 1.0
        mask[blk + 8 :] = np.repeat(nodes[1:], 8)
        flat = flat - mu * oracle.aao_adjoint_matrix(dense_point, slab=j) @ (mask * resid_flat)
        point = step_aao_landweber_kaczmarz(inst.aao, point, data, mu, k)
    got = oracle.flatten_point(point)
    assert np.max(np.abs(got - flat)) <= 1e-12 * max(np.max(np.abs(flat)), 1e-12)


def test_run_retains_partial_record_on_solver_error(newton_setup):
    from dyninv.errors import SolverError

    inst, (theta, state, y) = newton_setup
    config = MethodConfig(tag="rIRGNM", k_max=5, cg_tol=1e-15, cg_max=1)
    with pytest.raises(SolverError) as exc:
        run(config, inst, y, delta=0.0)
    record = exc.value.record
    assert record.stop_reason == "error"
    assert len(record.rows) >= 1
    assert record.theta_final is not None


def test_run_stops_loudly_on_divergence():
    """A step size far above 2 / ||F'||^2 blows up; the run must not report k_max."""
    inst = make_instance(20, 20, 0.1, gain=10.0)
    theta, state, y = synthesize_truth(inst)
    with pytest.raises(SolverError) as exc:
        run(MethodConfig(tag="aLW", mu=1e6, k_max=10), inst, y, delta=0.0, truth=(theta, state))
    record = exc.value.record
    assert record.stop_reason == "diverged"
    res = record.column("res_total")
    assert record.k_star == len(res) - 1 < 10
    assert np.all(np.isfinite(res[:-1])) and not np.isfinite(res[-1])
    assert record.theta_final is not None


def test_run_rejects_partition_mismatch(newton_setup):
    inst, (theta, state, y) = newton_setup  # instance has m = 2
    with pytest.raises(ValidationError):
        run(MethodConfig(tag="rLWK", m=3, k_max=2), inst, y, delta=0.0)


def test_method_config_validation():
    with pytest.raises(ValidationError):
        MethodConfig(tag="bogus")
    with pytest.raises(ValidationError):
        MethodConfig(q=1.5)
    with pytest.raises(ValidationError):
        MethodConfig(tau_disc=0.5)
    with pytest.raises(ValidationError):
        MethodConfig(mu=-1.0)
    with pytest.raises(ValidationError):
        MethodConfig(stepsize="adaptive")


class _CountedBasis(np.ndarray):
    """An eigenbasis that counts the matrix products it enters, with a block
    of rows (an n x n product) or with one vector."""

    counts = {"block": 0, "vector": 0}

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _CountedBasis) else x for x in inputs]
        if ufunc is np.matmul:
            self.counts["block" if min(np.ndim(x) for x in plain) == 2 else "vector"] += 1
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize("tag", ["aLW", "aLWK"])
def test_aao_landweber_basis_products(tag, monkeypatch):
    """One n x n basis product per recorded row (the residual's modal model
    rows, shared by its norm and the adjoint) and three per step."""
    inst = make_instance(8, 10, 0.05, gain=10.0, m=2)
    theta, state, y = synthesize_truth(inst, "sine", 0.1)
    basis = inst.triple.eigenvectors.view(_CountedBasis)
    triple = replace(inst.triple, eigenvectors=basis)
    counted = replace(
        inst, triple=triple, aao=AllAtOnceOperator(inst.problem, triple, inst.grid, inst.partition)
    )
    monkeypatch.setattr(_CountedBasis, "counts", {"block": 0, "vector": 0})
    rec = run(MethodConfig(tag=tag, k_max=10, m=2 if tag == "aLWK" else 1), counted, y, 0.0,
              truth=(theta, state))
    assert len(rec.rows) == 11
    assert _CountedBasis.counts == {"block": 11 + 3 * 10, "vector": 10}


@pytest.fixture
def cg_counts(monkeypatch):
    """The iteration count of every conjugate_gradient call the methods make."""
    counts = []

    def counted(*args, **kwargs):
        sol, its = conjugate_gradient(*args, **kwargs)
        counts.append(its)
        return sol, its

    monkeypatch.setattr(methods, "conjugate_gradient", counted)
    return counts


def test_aao_irgnm_basis_products(monkeypatch, cg_counts):
    """One n x n basis product per recorded row and, per step, three for the
    right-hand side, four per CG iteration on modal state coefficients and
    one taking the solution back to nodes; one vector product per adjoint."""
    inst = make_instance(8, 10, 0.05, gain=10.0, m=2)
    theta, state, y = synthesize_truth(inst, "sine", 0.1)
    basis = inst.triple.eigenvectors.view(_CountedBasis)
    triple = replace(inst.triple, eigenvectors=basis)
    counted = replace(
        inst, triple=triple, aao=AllAtOnceOperator(inst.problem, triple, inst.grid, inst.partition)
    )
    monkeypatch.setattr(_CountedBasis, "counts", {"block": 0, "vector": 0})
    cfg = MethodConfig(tag="aIRGNM", k_max=3, alpha0=1.0, q=0.4, cg_max=2000)
    rec = run(cfg, counted, y, 0.0, truth=(theta, state))
    assert len(rec.rows) == 4
    assert cg_counts == [4, 4, 4]
    assert _CountedBasis.counts == {"block": 4 + 3 * (3 + 4 * 4 + 1), "vector": 15}


_LANDWEBER = {"k_max": 10}
_IRGNM = {"k_max": 3, "alpha0": 1e-6, "q": 0.4, "cg_max": 2000}
# (tag, policy): run options and CG counts
_REDUCED_RUNS = {
    ("rLW", "imex"): (_LANDWEBER, []),
    ("rLW", "newton"): (_LANDWEBER, []),
    ("rLWK", "imex"): ({**_LANDWEBER, "m": 2}, []),
    ("rLWK", "newton"): ({**_LANDWEBER, "m": 2}, []),
    ("rIRGNM", "imex"): (_IRGNM, [4, 3, 3]),
    ("rIRGNM", "newton"): (_IRGNM, [4, 4, 4]),
}


@pytest.mark.parametrize("tag, policy", list(_REDUCED_RUNS))
def test_reduced_basis_products(tag, policy, monkeypatch, cg_counts):
    """The reduced methods never apply the basis: every resolvent of a state,
    sensitivity or adjoint sweep is a product with the tabulated Green's
    matrix, and the newton sweeps are Thomas solves."""
    inst = make_instance(8, 10, 0.05, gain=10.0, m=2, policy=policy)
    theta, state, y = synthesize_truth(inst, "sine", 0.1)
    basis = inst.triple.eigenvectors.view(_CountedBasis)
    triple = replace(inst.triple, eigenvectors=basis)
    reduced = ReducedOperator(inst.problem, triple, inst.grid, inst.partition, policy)
    counted = replace(inst, triple=triple, reduced=reduced)
    monkeypatch.setattr(_CountedBasis, "counts", {"block": 0, "vector": 0})
    options, cgs = _REDUCED_RUNS[tag, policy]
    rec = run(MethodConfig(tag=tag, **options), counted, y, 0.0, truth=(theta, state))
    assert len(rec.rows) == options["k_max"] + 1
    assert cg_counts == cgs
    assert _CountedBasis.counts == {"block": 0, "vector": 0}


@pytest.mark.parametrize("size", [(8, 6), (24, 24)])
def test_modal_joint_cg_equals_nodal_joint_cg(size, rng, cg_counts):
    """The IRGNM step on modal state coefficients and the aLW "norm" stepsize
    equal those of the nodal joint maps to rounding, with the same CG count.

    The two CG runs differ by rounding in every product, which CG amplifies
    with the condition number of the normal equations; down to alpha = 1e-2
    they agree to ~1e-15 here, at alpha = 1e-4 only to ~1e-12."""
    n_x, n_t = size
    inst = make_instance(n_x, n_t, 0.1, gain=10.0)
    theta, state, y = synthesize_truth(inst, "sine", 0.1)
    op, grid = inst.aao, inst.grid
    point = AaoPoint(
        Trajectory(grid, state.values + 0.05 * rng.standard_normal(state.values.shape), "state"),
        theta + 0.05 * rng.standard_normal(theta.size),
    )
    prior = zero_point(inst.triple, grid, inst.problem)
    data = data_triple(grid, n_x, y)
    for alpha in (1.0, 0.4, 1e-2):
        got = step_aao_irgnm(op, point, data, alpha, prior, cg_max=2000)
        want, its = nodal_irgnm_step(op, point, data, alpha, prior, cg_max=2000)
        assert cg_counts.pop() == its
        for a, b in ((got.state.values, want.state.values), (got.theta, want.theta)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    mu = _norm_stepsize(MethodConfig(tag="aLW", stepsize="norm"), inst, point, y)
    fwd, adj, inner = nodal_joint_maps(op, point)
    start = np.random.default_rng(12345).standard_normal(state.values.size + theta.size)
    want = 0.95 / estimate_operator_norm(fwd, adj, inner, start) ** 2
    assert abs(mu - want) <= 1e-12 * want
