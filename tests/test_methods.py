import inspect
from dataclasses import replace

import numpy as np
import pytest

from dyninv import aao, methods, reduced, spaces
from dyninv.aao import AaoPoint, AllAtOnceOperator, zero_point
from dyninv.errors import InnerSolveError, SolverError, ValidationError
from dyninv.harness import DenseOracle, add_noise, make_instance, synthesize_truth
from dyninv.methods import (
    METHOD_TAGS,
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
from dyninv.grids import make_time_grid
from dyninv.spaces import Trajectory, inner_observation, inner_state, norm_l2_v, norm_observation

from conftest import flat_point, nodal_irgnm_step, nodal_joint_maps


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
    point = AaoPoint(state.copy(), theta.copy())
    resid = inst.aao.residual(point, y)

    moved = step_aao_landweber(inst.aao, point, resid, mu=1.0)
    assert theta_drift(inst.problem, moved.theta, theta) <= 1e-12
    assert np.max(np.abs(moved.state.values - state.values)) <= 1e-12

    for k in range(2):
        moved = step_aao_landweber_kaczmarz(inst.aao, point, resid, 1.0, k)
        assert theta_drift(inst.problem, moved.theta, theta) <= 1e-12

    z = Trajectory(inst.grid, np.zeros_like(y.values), "observation")
    new_theta = step_reduced_landweber(inst.reduced, theta, z, state, mu=1.0)
    assert theta_drift(inst.problem, new_theta, theta) == 0.0
    for k in range(2):
        new_theta = step_reduced_landweber_kaczmarz(inst.reduced, theta, z, state, 1.0, k)
        assert theta_drift(inst.problem, new_theta, theta) == 0.0


def test_irgnm_stationary_with_prior_at_truth(newton_setup):
    inst, (theta, state, y) = newton_setup
    point = AaoPoint(state.copy(), theta.copy())
    prior = AaoPoint(state.copy(), theta.copy())
    moved = step_aao_irgnm(inst.aao, point, inst.aao.residual(point, y), alpha=0.5, prior=prior)
    assert theta_drift(inst.problem, moved.theta, theta) <= 1e-10
    z = Trajectory(inst.grid, np.zeros_like(y.values), "observation")
    new_theta = step_reduced_irgnm(inst.reduced, theta, z, state, 0.5, theta.copy())
    assert theta_drift(inst.problem, new_theta, theta) <= 1e-12


def test_zero_stepsize_is_identity(newton_setup, rng):
    inst, (theta, state, y) = newton_setup
    point = AaoPoint(
        Trajectory(inst.grid, rng.standard_normal(state.values.shape), "state"),
        rng.standard_normal(8),
    )
    moved = step_aao_landweber(inst.aao, point, inst.aao.residual(point, y), mu=0.0)
    np.testing.assert_array_equal(moved.state.values, point.state.values)
    np.testing.assert_array_equal(moved.theta, point.theta)


# -- dense-oracle agreement for single steps ---------------------------------------


def test_aao_landweber_step_matches_dense(newton_setup):
    inst, (theta, state, y) = newton_setup
    oracle = DenseOracle(inst)
    point = zero_point(inst.triple, inst.grid, inst.problem)
    mu = 1.0
    resid = inst.aao.residual(point, y)
    moved = step_aao_landweber(inst.aao, point, resid, mu)
    resid_flat = oracle.flatten_triple(resid)
    adj = oracle.aao_adjoint_matrix(point)
    dense_new = flat_point(point) - mu * adj @ resid_flat
    got = flat_point(moved)
    assert np.max(np.abs(got - dense_new)) <= 1e-12 * max(np.max(np.abs(dense_new)), 1e-12)


def test_reduced_landweber_step_matches_dense(newton_setup):
    inst, (theta_true, state_true, y) = newton_setup
    oracle = DenseOracle(inst)
    op = inst.reduced
    theta = np.zeros(8)
    state = op.solve_state(theta)
    z = Trajectory(inst.grid, state.values - y.values, "observation")
    got = step_reduced_landweber(op, theta, z, state, mu=1.0)
    adj = oracle.reduced_adjoint_matrix(theta, state)
    want = theta - adj @ oracle.flatten_obs(z)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-12)


def test_aao_irgnm_step_matches_dense_solve(newton_setup):
    inst, (theta, state, y) = newton_setup
    oracle = DenseOracle(inst)
    point = zero_point(inst.triple, inst.grid, inst.problem)
    prior = zero_point(inst.triple, inst.grid, inst.problem)
    alpha = 0.3
    resid = inst.aao.residual(point, y)
    moved = step_aao_irgnm(inst.aao, point, resid, alpha, prior, cg_tol=1e-12, cg_max=3000)
    jac = oracle.aao_derivative_matrix(point)
    adj = oracle.aao_adjoint_matrix(point)
    resid_flat = oracle.flatten_triple(resid)
    shift = flat_point(point) - flat_point(prior)
    rhs = adj @ (jac @ shift - resid_flat)
    normal = adj @ jac + alpha * np.eye(oracle.dom_dim)
    delta = np.linalg.solve(normal, rhs)
    want = flat_point(prior) + delta
    got = flat_point(moved)
    assert np.max(np.abs(got - want)) <= 1e-8 * max(np.max(np.abs(want)), 1.0)


def test_reduced_irgnm_step_matches_dense_solve(newton_setup):
    inst, (theta_true, state_true, y) = newton_setup
    oracle = DenseOracle(inst)
    op = inst.reduced
    theta = 0.02 * np.ones(8)
    theta_bar = np.zeros(8)
    state = op.solve_state(theta)
    z = Trajectory(inst.grid, state.values - y.values, "observation")
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
    point = AaoPoint(
        Trajectory(inst.grid, 0.1 * rng.standard_normal(state.values.shape), "state"),
        0.1 * rng.standard_normal(8),
    )
    prior = zero_point(inst.triple, inst.grid, inst.problem)
    alpha = 1e12
    moved = step_aao_irgnm(inst.aao, point, inst.aao.residual(point, y), alpha, prior)
    shift_norm = np.sqrt(
        inner_state(inst.triple, moved.state, moved.state)
        + inst.problem.inner_theta(moved.theta, moved.theta)
    )
    resid = inst.aao.residual(point, y)
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
    start = zero_point(inst.triple, inst.grid, inst.problem)
    prior = AaoPoint(state.copy(), theta.copy())  # consistent linear system
    resid = inst.aao.residual(start, y)
    moved = step_aao_irgnm(inst.aao, start, resid, alpha=1e-8, prior=prior, cg_tol=1e-12, cg_max=2000)
    assert inst.problem.norm_theta(moved.theta - theta) <= 1e-6


def test_irgnm_normal_equation_residual_within_cg_tol(newton_setup):
    inst, (theta, state, y) = newton_setup
    op = inst.reduced
    theta0 = np.zeros(8)
    st = op.solve_state(theta0)
    z = Trajectory(inst.grid, st.values - y.values, "observation")
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


_STEPS = {
    "aLW": "step_aao_landweber",
    "aLWK": "step_aao_landweber_kaczmarz",
    "aIRGNM": "step_aao_irgnm",
    "rLW": "step_reduced_landweber",
    "rLWK": "step_reduced_landweber_kaczmarz",
    "rIRGNM": "step_reduced_irgnm",
}


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_run_calls_the_tags_step_by_name(tag, newton_setup, monkeypatch):
    """run looks its step function up in the module when it calls it, so a
    function put in place of ``methods.step_*`` (as a tracer or a test does)
    makes every update of a run of k steps, and no other tag's does."""
    inst, (theta, state, y) = newton_setup
    calls = {name: 0 for name in _STEPS.values()}
    for name in calls:

        def spy(*args, _name=name, _step=getattr(methods, name), **kwargs):
            calls[_name] += 1
            return _step(*args, **kwargs)

        monkeypatch.setattr(methods, name, spy)
    cfg = MethodConfig(tag=tag, k_max=3, m=2 if tag.endswith("LWK") else 1)
    rec = run(cfg, inst, y, delta=0.0)
    assert rec.k_star == 3
    assert calls == {name: 3 if name == _STEPS[tag] else 0 for name in _STEPS.values()}


def test_run_irgnm_steps_receive_the_alpha_schedule(newton_setup, monkeypatch):
    """Both IRGNM updates are handed alpha_k = alpha0 * q**k at iteration k."""
    inst, (theta, state, y) = newton_setup
    for tag, name in (("rIRGNM", "step_reduced_irgnm"), ("aIRGNM", "step_aao_irgnm")):
        alphas, step = [], getattr(methods, name)

        def spy(*args, _step=step, **kwargs):
            alphas.append(inspect.signature(_step).bind(*args, **kwargs).arguments["alpha"])
            return _step(*args, **kwargs)

        monkeypatch.setattr(methods, name, spy)
        run(MethodConfig(tag=tag, alpha0=0.7, q=0.5, k_max=3), inst, y, delta=0.0)
        assert alphas == [0.7, 0.35, 0.175], tag


def test_reduced_norm_stepsize_reads_the_first_evaluations_state(newton_setup, monkeypatch):
    """The "norm" stepsize estimate reads the state of run's first evaluation."""
    inst, (theta, state, y) = newton_setup
    calls, solve_state = [], ReducedOperator.solve_state

    def counted(self, theta):
        calls.append(theta)
        return solve_state(self, theta)

    monkeypatch.setattr(ReducedOperator, "solve_state", counted)
    run(MethodConfig(tag="rLW", k_max=0, stepsize="norm"), inst, y, delta=0.0)
    assert len(calls) == 1


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
    mu = 1.0
    point = zero_point(inst.triple, inst.grid, inst.problem)
    flat = flat_point(point)
    for k in range(inst.partition.slab_count):
        j = inst.partition.slab_index(k)
        # dense step on the current iterate
        dense_point = oracle.unflatten_point(flat)
        resid_flat = oracle.flatten_triple(inst.aao.residual(dense_point, y))
        mask = np.zeros(oracle.cod_dim)
        nodes = np.zeros(inst.grid.node_count, dtype=bool)
        nodes[inst.partition.weighted_nodes(j)] = True
        blk = inst.grid.step_count * 8
        mask[:blk] = np.repeat(nodes[1:], 8)
        if j == 0:
            mask[blk : blk + 8] = 1.0
        mask[blk + 8 :] = np.repeat(nodes[1:], 8)
        flat = flat - mu * oracle.aao_adjoint_matrix(dense_point, slab=j) @ (mask * resid_flat)
        point = step_aao_landweber_kaczmarz(inst.aao, point, inst.aao.residual(point, y), mu, k)
    got = flat_point(point)
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


def _malformed_inputs(inst, theta, state, y):
    """(name, keyword arguments of run) for every input run must reject."""
    grid, n = inst.grid, inst.triple.interior_points
    nodes = grid.node_count
    other = make_time_grid(2.0 * grid.horizon, grid.step_count)
    return [
        ("data of width 1", {"y_data": Trajectory(grid, y.values[:, :1], "observation")}),
        ("data on another grid", {"y_data": Trajectory(other, y.values, "observation")}),
        ("data as a bare array", {"y_data": y.values}),
        ("truth theta of length 1", {"truth": (theta[:1], state)}),
        ("truth state of width 1", {"truth": (theta, Trajectory(grid, state.values[:, :1], "state"))}),
        ("start theta of length 1", {"start": theta[:1]}),
        ("joint start theta of length 1", {"start": AaoPoint(state, theta[:1])}),
        ("joint start state of width n - 1", {"start": AaoPoint(Trajectory(grid, np.zeros((nodes, n - 1))), theta)}),
    ]


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_run_rejects_malformed_inputs_before_any_iteration(tag, newton_setup, monkeypatch):
    """Observation data, start and truth of the wrong shape, grid or type raise
    ValidationError at run entry, before the first evaluation; a start of the
    other formulation's kind is malformed too."""
    inst, (theta, state, y) = newton_setup

    def evaluated(*args, **kwargs):
        raise AssertionError("run evaluated an iterate of malformed input")

    monkeypatch.setattr(AllAtOnceOperator, "residual", evaluated)
    monkeypatch.setattr(ReducedOperator, "solve_state", evaluated)
    cfg = MethodConfig(tag=tag, k_max=20, m=2 if tag.endswith("LWK") else 1)
    for name, bad in _malformed_inputs(inst, theta, state, y):
        if name.startswith("joint") and tag in methods.REDUCED_TAGS:
            continue
        kwargs = {"y_data": y, "truth": (theta, state), **bad}
        if name == "start theta of length 1" and tag in methods.AAO_TAGS:
            kwargs["start"] = theta  # a parameter alone is no joint start
        with pytest.raises(ValidationError):
            run(cfg, inst, kwargs.pop("y_data"), 0.0, **kwargs)
            pytest.fail(f"{tag} accepted {name}")


@pytest.mark.parametrize("tag", ["aLW", "aLWK"])
def test_run_rows_equal_a_plain_loop_over_the_operator_api(tag):
    """run's rows (every column but step_ms) and final iterate are bit for bit
    those of a plain loop over residual, residual_norms, adjoint/slab_adjoint,
    norm_theta and norm_l2_v, on the noisy (30, 50) instance with the truth."""
    inst = make_instance(30, 50, 0.5, gain=10.0, m=5)
    theta, state, y = synthesize_truth(inst, "sine", 0.1)
    data = add_noise(inst, y, theta, 0.0, 2e-3 * norm_observation(inst.triple, y), 0)
    m, k_max, mu = (5 if tag == "aLWK" else 1), 300, 1.0
    rec = run(MethodConfig(tag=tag, m=m, k_max=k_max, mu=mu), inst, data.y_noisy, data.achieved_delta, truth=(theta, state))
    assert rec.stop_reason == "k_max"

    op, problem, grid = inst.aao, inst.problem, inst.grid
    point, rows = zero_point(inst.triple, grid, problem), []
    for k in range(k_max + 1):
        resid = op.residual(point, data.y_noisy)
        res_w, res_h, res_y, res_total = op.residual_norms(resid)
        err_theta = problem.norm_theta(point.theta - theta)
        err_u = norm_l2_v(inst.triple, grid.tau, point.state.values[1:] - state.values[1:])
        rows.append((k, res_total, res_w, res_h, res_y, err_theta, err_u))
        if k < k_max:
            ds, dt = op.adjoint(point, resid) if tag == "aLW" else op.slab_adjoint(point, k % m, resid)
            point = AaoPoint(Trajectory(grid, point.state.values - mu * ds.values, "state"), point.theta - mu * dt)
    columns = ("k", "res_total", "res_w", "res_h", "res_y", "err_theta", "err_u_L2V")
    for i, name in enumerate(columns):
        assert np.array_equal(rec.column(name), [r[i] for r in rows]), name
    assert np.array_equal(rec.theta_final, point.theta)
    assert np.array_equal(rec.state_final.values, point.state.values)


def test_run_rejects_partition_mismatch(newton_setup):
    inst, (theta, state, y) = newton_setup  # instance has m = 2
    with pytest.raises(ValidationError):
        run(MethodConfig(tag="rLWK", m=3, k_max=2), inst, y, delta=0.0)


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), -1e-3])
def test_run_rejects_noise_levels_not_finite_and_nonnegative(newton_setup, delta):
    """NaN would run silently to k_max and inf would stop at k = 0 by discrepancy."""
    inst, (theta, state, y) = newton_setup
    with pytest.raises(ValidationError):
        run(MethodConfig(tag="rLW", k_max=2), inst, y, delta=delta)


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
    of rows (an n x n product) or with one vector; a test that sets ``rows`` to
    a list also gets the row count of each block product (rows on the left)."""

    counts = {"block": 0, "vector": 0}
    rows = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _CountedBasis) else x for x in inputs]
        if ufunc is np.matmul:
            block = min(np.ndim(x) for x in plain) == 2
            self.counts["block" if block else "vector"] += 1
            if block and self.rows is not None:
                self.rows.append(plain[0].shape[0])
        return getattr(ufunc, method)(*plain, **kwargs)


def _counted_triple(triple):
    """A copy of ``triple`` whose eigenbasis, tabulated for the copy alone,
    counts its products."""
    counted = replace(triple)
    vars(counted)["eigenvectors"] = counted.eigenvectors.view(_CountedBasis)
    return counted


@pytest.mark.parametrize("tag", ["aLW", "aLWK"])
def test_aao_landweber_basis_products(tag, monkeypatch):
    """Two n x n basis products per step, none per recorded row: the residual
    carries K^{-1} w from the Green's matrix of K, the adjoint takes its loads
    and start in one stacked product and its state direction back in one.  The
    stacked product takes the rows and w on the N/m nodes of the step's slab,
    and h on slab 0: 2N + 1 rows for aLW, 2N/m (+ 1 on slab 0) for aLWK."""
    inst = make_instance(8, 10, 0.05, gain=10.0, m=2)
    theta, state, y = synthesize_truth(inst, "sine", 0.1)
    triple = _counted_triple(inst.triple)
    counted = replace(
        inst, triple=triple, aao=AllAtOnceOperator(inst.problem, triple, inst.grid, inst.partition)
    )
    monkeypatch.setattr(_CountedBasis, "counts", {"block": 0, "vector": 0})
    monkeypatch.setattr(_CountedBasis, "rows", [])
    m = 2 if tag == "aLWK" else 1
    rec = run(MethodConfig(tag=tag, k_max=10, m=m), counted, y, 0.0, truth=(theta, state))
    assert len(rec.rows) == 11
    assert _CountedBasis.counts == {"block": 2 * 10, "vector": 0}
    assert _CountedBasis.rows == [r for k in range(10) for r in (2 * 10 // m + (k % m == 0), 11)]


def test_no_run_above_the_cut_tabulates_the_eigenbasis():
    """From the size cut on, the set-up, the truth and every tag's run (with
    the "norm" stepsize where it applies) leave the n x n eigenbasis unbuilt."""
    inst = make_instance(aao._NODAL_FROM, 8, 0.1, gain=10.0, m=2)
    theta, state, y = synthesize_truth(inst, "sine", 0.1)
    for tag in METHOD_TAGS:
        stepsize = "fixed" if tag.endswith("IRGNM") else "norm"
        cfg = MethodConfig(tag=tag, k_max=2, m=2 if tag.endswith("LWK") else 1, stepsize=stepsize)
        assert len(run(cfg, inst, y, 0.0, truth=(theta, state)).rows) == 3
    assert "eigenvectors" not in vars(inst.triple)


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
    """No basis product per recorded row and, per step, one for the right-hand
    side, two per CG iteration on modal state coefficients (the derivative's
    one to nodes and the adjoint's one stacked product of its loads) and one
    taking the solution back to nodes; no vector product."""
    inst = make_instance(8, 10, 0.05, gain=10.0, m=2)
    theta, state, y = synthesize_truth(inst, "sine", 0.1)
    triple = _counted_triple(inst.triple)
    counted = replace(
        inst, triple=triple, aao=AllAtOnceOperator(inst.problem, triple, inst.grid, inst.partition)
    )
    monkeypatch.setattr(_CountedBasis, "counts", {"block": 0, "vector": 0})
    cfg = MethodConfig(tag="aIRGNM", k_max=3, alpha0=1.0, q=0.4, cg_max=2000)
    rec = run(cfg, counted, y, 0.0, truth=(theta, state))
    assert len(rec.rows) == 4
    assert cg_counts == [4, 4, 4]
    assert _CountedBasis.counts == {"block": 3 * (1 + 2 * 4 + 1), "vector": 0}


@pytest.mark.parametrize("tag", ["aLW", "aLWK", "aIRGNM"])
def test_aao_basis_products_above_the_cut(tag, above_cut, monkeypatch):
    """From the size cut on, no all-at-once step, residual or "norm" stepsize
    applies the eigenbasis: both sweeps march on nodes and the joint CG pairs
    nodal states through the Green's matrix of K."""
    inst, (theta, state, y) = above_cut
    triple = _counted_triple(inst.triple)
    counted = replace(
        inst, triple=triple, aao=AllAtOnceOperator(inst.problem, triple, inst.grid, inst.partition)
    )
    monkeypatch.setattr(_CountedBasis, "counts", {"block": 0, "vector": 0})
    if tag == "aIRGNM":
        cfg = MethodConfig(tag=tag, k_max=2, alpha0=1.0, q=0.4)
    else:
        cfg = MethodConfig(tag=tag, k_max=4, m=2 if tag == "aLWK" else 1, stepsize="norm")
    rec = run(cfg, counted, y, 0.0, truth=(theta, state))
    assert len(rec.rows) == cfg.k_max + 1
    assert _CountedBasis.counts == {"block": 0, "vector": 0}


def _recorded_calls(monkeypatch, module, name):
    """The positional arguments of every call of ``module.name``."""
    calls, inner = [], getattr(module, name)

    def recorded(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("policy, solve", [("imex", "solve_resolvent"), ("newton", "solve_shifted_stiffness")])
def test_reduced_slab_adjoint_sweeps_from_the_slabs_last_node(policy, solve, monkeypatch):
    """The reduced slab adjoint solves one step per node from the slab's last
    node hi down to node 1, hi solves in all; the full adjoint solves N."""
    inst = make_instance(8, 12, 0.05, gain=10.0, m=3, policy=policy)
    theta, state, y = synthesize_truth(inst, "sine", 0.1)
    op, part = inst.reduced, inst.partition
    calls = _recorded_calls(monkeypatch, reduced, solve)
    op.adjoint(theta, state, y)
    assert len(calls) == 12
    for j in range(part.slab_count):
        calls.clear()
        op.slab_adjoint(theta, state, y, j)
        assert len(calls) == part.node_range(j)[1]


def test_aao_slab_adjoint_above_the_cut_sweeps_from_the_slabs_last_node(above_cut, monkeypatch):
    """From the size cut on, the slab adjoint's nodal march makes one one-row
    resolvent solve per step of its backward sweep, from the slab's last node hi
    down, and per step of its full-length forward sweep: hi + N; the full
    adjoint makes 2N, counted in the spaces module, where the march solves."""
    inst, (theta, state, y) = above_cut
    op, part, steps, n = inst.aao, inst.partition, inst.grid.step_count, inst.triple.interior_points
    point = AaoPoint(state, 0.5 * theta)
    resid = op.residual(point, y)
    calls = _recorded_calls(monkeypatch, spaces, "solve_resolvent")
    op.adjoint(point, resid)
    assert [rows.shape for _, rows in calls] == [(n,)] * 2 * steps
    for j in range(part.slab_count):
        calls.clear()
        op.slab_adjoint(point, j, resid)
        assert [rows.shape for _, rows in calls] == [(n,)] * (part.node_range(j)[1] + steps)


def test_aao_sides_of_the_size_cut_agree(monkeypatch, cg_counts):
    """One small instance run with the operator forced to each side of the
    cut: modal and nodal coordinates give the same rows to rounding, the same
    stopping index and the same CG counts.  The aIRGNM steps stop at
    alpha = 0.4^5: below about 1e-4 CG magnifies any change of rounding past
    1e-12 (see test_modal_joint_cg_equals_nodal_joint_cg)."""
    inst = make_instance(24, 12, 0.1, gain=10.0, m=2)
    theta, state, y = synthesize_truth(inst, "sine", 0.1)
    sides = []
    for cut in (inst.triple.interior_points + 1, inst.triple.interior_points):
        monkeypatch.setattr(aao, "_NODAL_FROM", cut)
        op = AllAtOnceOperator(inst.problem, inst.triple, inst.grid, inst.partition)
        sides.append(replace(inst, aao=op))
    assert [side.aao.from_nodes(y.values) is y.values for side in sides] == [False, True]
    configs = (
        MethodConfig(tag="aLW", stepsize="norm", k_max=300),
        MethodConfig(tag="aLWK", m=2, stepsize="norm", k_max=300),
        MethodConfig(tag="aIRGNM", alpha0=1.0, q=0.4, k_max=6),
    )
    for cfg in configs:
        records, cgs = [], []
        for side in sides:
            records.append(run(cfg, side, y, 0.0, truth=(theta, state)))
            cgs.append(cg_counts.copy())
            cg_counts.clear()
        modal, nodal = records
        assert nodal.k_star == modal.k_star == cfg.k_max
        assert cgs[0] == cgs[1] and len(cgs[0]) == (6 if cfg.tag == "aIRGNM" else 0)
        assert nodal.metadata["mu"] == pytest.approx(modal.metadata["mu"], rel=1e-12)
        for name in ("res_total", "res_w", "res_h", "res_y", "err_theta", "err_u_L2V"):
            a, b = modal.column(name), nodal.column(name)
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


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
    triple = _counted_triple(inst.triple)
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
    for alpha in (1.0, 0.4, 1e-2):
        got = step_aao_irgnm(op, point, op.residual(point, y), alpha, prior, cg_max=2000)
        want, its = nodal_irgnm_step(op, point, y, alpha, prior, cg_max=2000)
        assert cg_counts.pop() == its
        for a, b in ((got.state.values, want.state.values), (got.theta, want.theta)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    mu = _norm_stepsize(MethodConfig(tag="aLW", stepsize="norm"), inst, point, point.state)
    fwd, adj, inner = nodal_joint_maps(op, point)
    start = np.random.default_rng(12345).standard_normal(state.values.size + theta.size)
    want = 0.95 / estimate_operator_norm(fwd, adj, inner, start) ** 2
    assert abs(mu - want) <= 1e-12 * want
