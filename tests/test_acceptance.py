"""Acceptance suite: one test per criterion, at the stated tolerances.

The long benchmark-scale criteria (full 50000-step reproduction, its
wall-time ratio, and the full noise sweep) run when ACCEPTANCE_FULL=1 is set;
they have quick always-on variants.  Every test prints one PASS line so a
verbose run reads as a checklist.
"""

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from dyninv.aao import AaoPoint, ResidualTriple, zero_point
from dyninv.harness import (
    DenseOracle,
    add_noise,
    make_instance,
    synthesize_truth,
    truth_nodes,
)
from dyninv.methods import (
    MethodConfig,
    run,
    step_aao_irgnm,
    step_aao_landweber,
    step_aao_landweber_kaczmarz,
    step_reduced_irgnm,
    step_reduced_landweber,
    step_reduced_landweber_kaczmarz,
)
from dyninv.problem import signed_square
from dyninv.reduced import ReducedOperator
from dyninv.spaces import (
    Trajectory,
    inner_observation,
    inner_state,
    norm_observation,
    zero_trajectory,
)

from conftest import flat_point

FULL = os.environ.get("ACCEPTANCE_FULL", "") == "1"
needs_full = pytest.mark.skipif(not FULL, reason="set ACCEPTANCE_FULL=1 for the benchmark-scale run")

# Pre-registered reference values (50000 iterations of the full benchmark
# config on the dense-oracle-validated build; reconstruction peaks 0.0860 and
# 0.0866, wall-time ratio 5.98).  The thresholds add a 15 percent margin for
# hardware/BLAS variation.
REFERENCE_REL_ERR = {"aLW": 0.13942, "rLW": 0.13343}
REL_ERR_THRESHOLD = {tag: 1.15 * v for tag, v in REFERENCE_REL_ERR.items()}

# IRGNM ratio schedule pinned by the reference run: the spec's illustrative
# q = 2/3 cannot push alpha below 1e-6 * ||F'||^2 within 30 steps for this
# operator (see decisions ledger); q = 0.4 does, with margin.
IRGNM_ALPHA0 = 1.0
IRGNM_Q = 0.4


def _report(name, detail):
    print(f"PASS  {name}: {detail}")


# -- criterion 1 / 2: benchmark reproduction and cost asymmetry ---------------------


def _landweber_pair(n_x, k_max):
    inst = make_instance(n_x, 100, 0.1, 10.0)
    theta, state, y = synthesize_truth(inst, "sine", 0.1)
    theta_norm = inst.problem.norm_theta(theta)
    records = {}
    for tag in ("rLW", "aLW"):
        cfg = MethodConfig(tag=tag, mu=1.0, k_max=k_max)
        records[tag] = run(cfg, inst, y, 0.0, truth=(theta, state))
    return inst, theta, theta_norm, records


def test_criterion_1_ci_variant_error_decreases():
    inst, theta, theta_norm, records = _landweber_pair(50, 5000)
    for tag, rec in records.items():
        err = rec.column("err_theta") / theta_norm
        # the first joint step cannot move the parameter from a zero start
        # (its gradient row is structurally zero), so strictness is measured
        # on the rows produced by the first 1000 steps
        assert np.all(np.diff(err[1:1002]) < 0.0), f"{tag} error not strictly decreasing"
        assert err[-1] < err[0]
        _report(
            "criterion 1 (CI variant)",
            f"{tag} rel err {err[0]:.3f} -> {err[-1]:.4f} over 5000 steps, "
            "strictly decreasing over the first 1000",
        )
    ratio = (
        records["rLW"].column("step_ms")[:-1].mean()
        / records["aLW"].column("step_ms")[:-1].mean()
    )
    assert ratio >= 2.0
    _report("criterion 2 (CI variant)", f"reduced/all-at-once mean step ratio {ratio:.1f} >= 2")


@needs_full
def test_criterion_1_full_benchmark_and_cost_ratio():
    inst, theta, theta_norm, records = _landweber_pair(100, 50000)
    x = truth_nodes(inst.triple)
    for tag, rec in records.items():
        assert len(rec.rows) == 50001
        rel = rec.rows[-1].err_theta / theta_norm
        assert rel < REL_ERR_THRESHOLD[tag], f"{tag} rel err {rel:.4f}"
        peak = float(np.interp(0.25, x, rec.theta_final))
        assert 0.08 <= peak <= 0.12
        _report(
            "criterion 1 (full benchmark)",
            f"{tag} rel err {rel:.4f} < {REL_ERR_THRESHOLD[tag]:.4f}, "
            f"reconstruction at x=0.25: {peak:.4f}",
        )
    ratio = (
        records["rLW"].column("step_ms")[:-1].mean()
        / records["aLW"].column("step_ms")[:-1].mean()
    )
    assert ratio >= 2.0
    _report("criterion 2 (full benchmark)", f"mean per-step ratio {ratio:.1f} >= 2")


# -- criterion 3: adjoint dot-product suite -------------------------------------------


def _dot_gap(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def test_criterion_3_adjoint_suite():
    rng = np.random.default_rng(11)
    worst = {"aao": 0.0, "reduced": 0.0, "aao_slab": 0.0, "reduced_slab": 0.0}

    # full operators at n_x = 50, N = 50 (m = 1)
    inst = make_instance(50, 50, 0.1, 10.0, m=1)
    point = AaoPoint(
        Trajectory(inst.grid, 0.3 * rng.standard_normal((51, 50)), "state"),
        0.3 * rng.standard_normal(50),
    )
    theta = 0.3 + 0.1 * np.sin(2 * np.pi * truth_nodes(inst.triple))
    state = inst.reduced.solve_state(theta)
    for _ in range(20):
        dstate = Trajectory(inst.grid, rng.standard_normal((51, 50)), "state")
        dtheta = rng.standard_normal(50)
        resid = _random_triple(inst, rng)
        lhs = inst.aao.inner_residual(inst.aao.derivative(point, dstate, dtheta), resid)
        astate, atheta = inst.aao.adjoint(point, resid)
        rhs = inner_state(inst.triple, dstate, astate) + inst.problem.inner_theta(dtheta, atheta)
        worst["aao"] = max(worst["aao"], _dot_gap(lhs, rhs))

        xi = rng.standard_normal(50)
        z = _random_obs(inst, rng)
        lhs = inner_observation(inst.triple, inst.reduced.derivative(theta, state, xi), z)
        rhs = inst.problem.inner_theta(xi, inst.reduced.adjoint(theta, state, z))
        worst["reduced"] = max(worst["reduced"], _dot_gap(lhs, rhs))

    # slab operators at n_x = 50, m = 4; N = 48 so the partition is node-aligned
    # (m = 4 does not divide the spec's N = 50; see the decisions ledger)
    inst4 = make_instance(50, 48, 0.1, 10.0, m=4)
    point4 = AaoPoint(
        Trajectory(inst4.grid, 0.3 * rng.standard_normal((49, 50)), "state"),
        0.3 * rng.standard_normal(50),
    )
    state4 = inst4.reduced.solve_state(theta)
    for draw in range(20):
        j = draw % 4
        dstate = Trajectory(inst4.grid, rng.standard_normal((49, 50)), "state")
        dtheta = rng.standard_normal(50)
        resid = _random_triple(inst4, rng)
        slab_resid = inst4.aao.slab_restrict(resid, j)
        lhs = inst4.aao.inner_residual(
            inst4.aao.slab_derivative(point4, j, dstate, dtheta), slab_resid
        )
        astate, atheta = inst4.aao.slab_adjoint(point4, j, slab_resid)
        rhs = inner_state(inst4.triple, dstate, astate) + inst4.problem.inner_theta(
            dtheta, atheta
        )
        worst["aao_slab"] = max(worst["aao_slab"], _dot_gap(lhs, rhs))

        xi = rng.standard_normal(50)
        zj = inst4.reduced.slab_restrict(_random_obs(inst4, rng), j)
        lhs = inner_observation(
            inst4.triple, inst4.reduced.slab_derivative(theta, state4, xi, j), zj
        )
        rhs = inst4.problem.inner_theta(xi, inst4.reduced.slab_adjoint(theta, state4, zj, j))
        worst["reduced_slab"] = max(worst["reduced_slab"], _dot_gap(lhs, rhs))

    for name, gap in worst.items():
        assert gap <= 1e-10, f"{name} duality gap {gap:.2e}"
    _report("criterion 3", f"worst duality gaps {', '.join(f'{k}={v:.1e}' for k, v in worst.items())}")


def _random_triple(inst, rng):
    n = inst.triple.interior_points
    w = np.zeros((inst.grid.node_count, n))
    w[1:] = rng.standard_normal((inst.grid.step_count, n))
    z = np.zeros((inst.grid.node_count, n))
    z[1:] = rng.standard_normal((inst.grid.step_count, n))
    return ResidualTriple(
        Trajectory(inst.grid, w, "dual_load"),
        rng.standard_normal(n),
        Trajectory(inst.grid, z, "observation"),
    )


def _random_obs(inst, rng):
    n = inst.triple.interior_points
    z = np.zeros((inst.grid.node_count, n))
    z[1:] = rng.standard_normal((inst.grid.step_count, n))
    return Trajectory(inst.grid, z, "observation")


# -- criterion 4: derivative order ---------------------------------------------------


def test_criterion_4_taylor_orders():
    rng = np.random.default_rng(5)
    inst = make_instance(50, 50, 0.1, 10.0, policy="newton")
    grid = inst.grid

    # joint operator: positive states keep the nonlinearity smooth
    state = Trajectory(grid, 0.5 + 0.2 * rng.random((51, 50)), "state")
    point = AaoPoint(state, 0.4 + 0.2 * rng.random(50))
    dstate = Trajectory(grid, 0.1 + 0.05 * rng.random((51, 50)), "state")
    dtheta = 0.1 * rng.random(50)
    data = zero_trajectory(grid, 50, "observation")
    errs = []
    for eps in (1e-1, 1e-2, 1e-3):
        moved = AaoPoint(
            Trajectory(grid, state.values + eps * dstate.values, "state"),
            point.theta + eps * dtheta,
        )
        r1 = inst.aao.residual(moved, data)
        r0 = inst.aao.residual(point, data)
        lin = inst.aao.derivative(point, dstate, dtheta)
        diff = ResidualTriple(
            Trajectory(grid, r1.model.values - r0.model.values - eps * lin.model.values, "dual_load"),
            r1.initial - r0.initial - eps * lin.initial,
            Trajectory(
                grid,
                r1.observation.values - r0.observation.values - eps * lin.observation.values,
                "observation",
            ),
        )
        errs.append(inst.aao.residual_norms(diff)[3])
    aao_order = min(np.log10(errs[i] / errs[i + 1]) for i in range(2))
    assert aao_order >= 1.9

    # reduced operator under the fully implicit solve and under the imex
    # solve; each derivative is the exact derivative of the steps it runs
    theta = 0.4 + 0.2 * np.sin(2 * np.pi * truth_nodes(inst.triple)) ** 2
    xi = 0.1 + 0.05 * rng.random(50)
    imex = ReducedOperator(inst.problem, inst.triple, grid, policy="imex")
    red_orders = {}
    for op in (inst.reduced, imex):
        y0, s0 = op.forward(theta)
        lin = op.derivative(theta, s0, xi)
        errs = []
        for eps in (1e-1, 1e-2, 1e-3):
            y1, _ = op.forward(theta + eps * xi)
            diff = Trajectory(grid, y1.values - y0.values - eps * lin.values, "observation")
            errs.append(norm_observation(inst.triple, diff))
        red_orders[op.policy] = min(np.log10(errs[i] / errs[i + 1]) for i in range(2))
        assert red_orders[op.policy] >= 1.9, f"{op.policy} reduced order {red_orders[op.policy]:.3f}"
    _report(
        "criterion 4",
        f"Taylor orders: joint {aao_order:.3f}, reduced newton {red_orders['newton']:.3f}, "
        f"reduced imex {red_orders['imex']:.3f} (>= 1.9)",
    )


# -- criterion 5: dense-oracle equivalence ---------------------------------------------


@pytest.fixture(scope="module")
def dense_setup():
    inst = make_instance(8, 6, 0.05, 10.0, m=2, policy="newton")
    truth = synthesize_truth(inst, "sine", 0.1)
    return inst, DenseOracle(inst), truth


def test_criterion_5_residual_and_linearizations(dense_setup, rng):
    inst, oracle, (theta_t, state_t, y) = dense_setup
    grid, triple = inst.grid, inst.triple
    point = AaoPoint(
        Trajectory(grid, 0.3 * rng.standard_normal((7, 8)), "state"), 0.3 * rng.standard_normal(8)
    )

    # independent dense residual straight from the definition
    u, th = point.state.values, point.theta
    tau = grid.tau
    a = triple.stiffness
    w_rows = np.empty((6, 8))
    for n in range(1, 7):
        w_rows[n - 1] = (u[n] - u[n - 1]) / tau + a @ u[n] + signed_square(u[n]) - th
    h_row = u[0].copy()
    z_rows = u[1:] - y.values[1:]
    flat_expected = np.concatenate([w_rows.ravel(), h_row, z_rows.ravel()])
    got = oracle.flatten_triple(inst.aao.residual(point, y))
    assert np.max(np.abs(got - flat_expected)) <= 1e-12 * max(np.max(np.abs(flat_expected)), 1.0)

    # linear applications against column-assembled matrices
    jac = oracle.aao_derivative_matrix(point)
    adj = oracle.aao_adjoint_matrix(point)
    worst = 0.0
    for _ in range(20):
        flat = rng.standard_normal(oracle.dom_dim)
        probe = oracle.unflatten_point(flat)
        out = inst.aao.derivative(point, probe.state, probe.theta)
        worst = max(worst, _maxgap(oracle.flatten_triple(out), jac @ flat))
        rf = rng.standard_normal(oracle.cod_dim)
        ds, dt = inst.aao.adjoint(point, oracle.unflatten_triple(rf))
        worst = max(worst, _maxgap(np.concatenate([ds.values.ravel(), dt]), adj @ rf))
    assert worst <= 1e-12

    # reduced chain: forward value against a dense implicit-Euler reimplementation
    theta = 0.3 + 0.1 * np.sin(2 * np.pi * truth_nodes(triple))
    yv, state = inst.reduced.forward(theta)
    u_dense = np.zeros((7, 8))
    eye = np.eye(8)
    for n in range(1, 7):
        v = u_dense[n - 1].copy()
        for _ in range(50):
            res = v + tau * (a @ v) + tau * signed_square(v) - u_dense[n - 1] - tau * theta
            if np.max(np.abs(res)) <= 1e-13:
                break
            v = v - np.linalg.solve(eye + tau * a + tau * 20.0 * np.abs(v) * eye, res)
        u_dense[n] = v
    assert np.max(np.abs(state.values - u_dense)) <= 1e-11
    # linear applications of the fully implicit (fixture) and the imex
    # reduced operators, full and per slab
    imex = ReducedOperator(inst.problem, triple, grid, inst.partition, policy="imex")
    worst_r = 0.0
    for op in (inst.reduced, imex):
        state = op.solve_state(theta)
        for slab in (None, 0, 1):
            jac_r = oracle.reduced_derivative_matrix(theta, state, slab=slab, op=op)
            adj_r = oracle.reduced_adjoint_matrix(theta, state, slab=slab, op=op)
            for _ in range(20 if slab is None else 5):
                xi = rng.standard_normal(8)
                zf = rng.standard_normal(oracle.grid.step_count * 8)
                if slab is None:
                    dxi = op.derivative(theta, state, xi)
                    grad = op.adjoint(theta, state, oracle.unflatten_obs(zf))
                else:
                    dxi = op.slab_derivative(theta, state, xi, slab)
                    zj = op.slab_restrict(oracle.unflatten_obs(zf), slab)
                    grad = op.slab_adjoint(theta, state, zj, slab)
                    zf = oracle.flatten_obs(zj)
                worst_r = max(worst_r, _maxgap(oracle.flatten_obs(dxi), jac_r @ xi))
                worst_r = max(worst_r, _maxgap(grad, adj_r @ zf))
    assert worst_r <= 1e-12
    _report("criterion 5a", f"matrix-free vs dense linear applications, worst gap {max(worst, worst_r):.1e}")


def test_criterion_5_method_steps_match_dense(dense_setup, rng):
    inst, oracle, (theta_t, state_t, y) = dense_setup
    grid = inst.grid
    point = zero_point(inst.triple, grid, inst.problem)
    prior = zero_point(inst.triple, grid, inst.problem)
    mu = 1.0

    resid = inst.aao.residual(point, y)
    resid_flat = oracle.flatten_triple(resid)
    worst = 0.0

    # aLW
    moved = step_aao_landweber(inst.aao, point, resid, mu)
    want = flat_point(point) - mu * oracle.aao_adjoint_matrix(point) @ resid_flat
    worst = max(worst, _maxgap(flat_point(moved), want, floor=1e-12))

    # aLWK: one step on each slab
    for j in range(2):
        movedk = step_aao_landweber_kaczmarz(inst.aao, point, resid, mu, k=j)
        mask = _slab_mask_flat(oracle, inst.partition, j)
        want = flat_point(point) - mu * oracle.aao_adjoint_matrix(point, slab=j) @ (
            mask * resid_flat
        )
        worst = max(worst, _maxgap(flat_point(movedk), want, floor=1e-12))

    # aIRGNM via dense normal equations
    alpha = 0.3
    moved = step_aao_irgnm(inst.aao, point, resid, alpha, prior, cg_tol=1e-12, cg_max=5000)
    jac = oracle.aao_derivative_matrix(point)
    adj = oracle.aao_adjoint_matrix(point)
    rhs = adj @ (jac @ (flat_point(point) - flat_point(prior)) - resid_flat)
    delta = np.linalg.solve(adj @ jac + alpha * np.eye(oracle.dom_dim), rhs)
    worst_cg = _maxgap(flat_point(moved), flat_point(prior) + delta, floor=1e-8)

    # reduced steps
    theta0 = np.zeros(8)
    y_pred, state0 = inst.reduced.forward(theta0)
    z = Trajectory(grid, y_pred.values - y.values, "observation")
    adj_r = oracle.reduced_adjoint_matrix(theta0, state0)
    got = step_reduced_landweber(inst.reduced, theta0, z, state0, mu)
    want = theta0 - mu * adj_r @ oracle.flatten_obs(z)
    worst = max(worst, _maxgap(got, want, floor=1e-12))

    for j in range(2):
        gotk = step_reduced_landweber_kaczmarz(inst.reduced, theta0, z, state0, mu, k=j)
        zj = inst.reduced.slab_restrict(z, j)
        want = theta0 - mu * oracle.reduced_adjoint_matrix(theta0, state0, slab=j) @ oracle.flatten_obs(zj)
        worst = max(worst, _maxgap(gotk, want, floor=1e-12))

    got = step_reduced_irgnm(inst.reduced, theta0, z, state0, alpha, np.zeros(8), cg_tol=1e-12, cg_max=5000)
    jac_r = oracle.reduced_derivative_matrix(theta0, state0)
    rhs = adj_r @ (jac_r @ theta0 - oracle.flatten_obs(z))
    want = np.linalg.solve(adj_r @ jac_r + alpha * np.eye(8), rhs)
    worst_cg = max(worst_cg, _maxgap(got, want, floor=1e-8))

    assert worst <= 1e-12
    assert worst_cg <= 1e-8
    _report(
        "criterion 5b",
        f"six method steps vs dense: linear gap {worst:.1e} (<=1e-12), CG gap {worst_cg:.1e} (<=1e-8)",
    )


def _slab_mask_flat(oracle, partition, j):
    steps, width = oracle.grid.step_count, oracle.width
    mask = np.zeros(oracle.cod_dim)
    nodes = np.zeros(steps + 1, dtype=bool)
    nodes[partition.weighted_nodes(j)] = True
    mask[: steps * width] = np.repeat(nodes[1:], width)
    if j == 0:
        mask[steps * width : steps * width + width] = 1.0
    mask[steps * width + width :] = np.repeat(nodes[1:], width)
    return mask


def _maxgap(a, b, floor=1e-12):
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), floor)


# -- criterion 6: regularization-method behavior ------------------------------------------


@functools.lru_cache(maxsize=1)
def _sweep_instance(n_x, n_t, horizon):
    """The sweep's instance, truth and ||y||, built once per worker process."""
    inst = make_instance(n_x, n_t, horizon, 10.0)
    theta, state, y = synthesize_truth(inst, "sine", 0.1)
    return inst, theta, state, y, norm_observation(inst.triple, y)


def _sweep_run(n_x, n_t, horizon, k_max, tag, stepsize, rel, seed):
    """One run of the sweep: (stop reason, final residual, achieved delta, final error)."""
    inst, theta, _, y, ynorm = _sweep_instance(n_x, n_t, horizon)
    ds = add_noise(inst, y, theta, 0.0, rel * ynorm, seed=seed)
    cfg = MethodConfig(tag=tag, mu=1.0, stepsize=stepsize, tau_disc=2.5, k_max=k_max)
    # no truth: the run would price the error norms into every iteration, and
    # only the final parameter error is read (the same norm on the same difference)
    rec = run(cfg, inst, ds.y_noisy, ds.achieved_delta)
    err_theta = inst.problem.norm_theta(rec.theta_final - theta)
    return rec.stop_reason, rec.rows[-1].res_total, ds.achieved_delta, err_theta


def _noise_sweep(n_x, n_t, horizon, rel_deltas, seeds, k_max):
    # each method runs its sanctioned stepsize: mu = 1 for the joint iteration
    # (it equals the norm bound there, the joint derivative has norm ~ 1) and
    # the theory-compliant norm-based step for the reduced one, whose
    # derivative norm is tiny at this scale (see decisions ledger)
    stepsizes = {"rLW": "norm", "aLW": "fixed"}
    jobs = [(tag, rel, seed) for tag in stepsizes for rel in rel_deltas for seed in seeds]
    # the runs are independent: one fresh (spawned) process per CPU, longest
    # first (the joint iteration takes hundreds to thousands of times the
    # reduced one's steps to the stop, and a lower noise level stops later);
    # every check below runs in this process
    jobs.sort(key=lambda job: (job[0] != "aLW", job[1]))
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(len(os.sched_getaffinity(0)), mp_context=spawn) as pool:
        runs = {
            job: pool.submit(_sweep_run, n_x, n_t, horizon, k_max, job[0], stepsizes[job[0]], *job[1:])
            for job in jobs
        }
    out = {}
    for tag in stepsizes:
        med = []
        for rel in rel_deltas:
            errs = []
            for seed in seeds:
                stop_reason, res_total, achieved_delta, err_theta = runs[tag, rel, seed].result()
                assert stop_reason == "discrepancy", (
                    f"{tag} rel={rel} seed={seed}: no discrepancy stop within {k_max}"
                )
                assert res_total <= 2.5 * achieved_delta
                errs.append(err_theta)
            med.append(float(np.median(errs)))
        assert all(med[i] >= med[i + 1] for i in range(len(med) - 1)), f"{tag} medians {med}"
        out[tag] = med
    return out


def test_criterion_6_quick_variant():
    med = _noise_sweep(30, 50, 0.5, rel_deltas=[8e-3, 2e-3], seeds=(0, 1), k_max=80000)
    _report("criterion 6 (quick variant)", f"median errors nonincreasing: {med}")


@needs_full
def test_criterion_6_full_noise_sweep():
    med = _noise_sweep(
        50, 100, 0.1, rel_deltas=[4e-3, 2e-3, 1e-3], seeds=range(5), k_max=400000
    )
    _report("criterion 6 (full)", f"median errors nonincreasing: {med}")


@needs_full
def test_noise_level_positive_over_fifty_seeds():
    """Benchmark-scale invariant: any positive perturbation gives a positive
    achieved noise level."""
    inst = make_instance(100, 100, 0.1, 10.0)
    theta, state, y = synthesize_truth(inst, "sine", 0.1)
    for seed in range(50):
        ds = add_noise(inst, y, theta, 1e-4, 1e-4, seed=seed)
        assert ds.achieved_delta > 0.0
    _report("noise-level positivity", "50 seeds at benchmark scale, achieved delta > 0")


# -- criterion 7: Kaczmarz degeneration and slab additivity ---------------------------------


def test_criterion_7_degeneration_and_additivity():
    rng = np.random.default_rng(23)
    inst1 = make_instance(50, 48, 0.1, 10.0, m=1, policy="newton")
    theta, state, y = synthesize_truth(inst1, "sine", 0.1)
    for plain, cyc in (("aLW", "aLWK"), ("rLW", "rLWK")):
        rec_p = run(MethodConfig(tag=plain, mu=1.0, k_max=8), inst1, y, 0.0)
        rec_c = run(MethodConfig(tag=cyc, mu=1.0, m=1, k_max=8), inst1, y, 0.0)
        gap = inst1.problem.norm_theta(rec_p.theta_final - rec_c.theta_final)
        assert gap <= 1e-14 * max(inst1.problem.norm_theta(rec_p.theta_final), 1e-30) + 1e-14

    inst4 = make_instance(50, 48, 0.1, 10.0, m=4)
    point = AaoPoint(
        Trajectory(inst4.grid, 0.3 * rng.standard_normal((49, 50)), "state"),
        0.3 * rng.standard_normal(50),
    )
    dstate = Trajectory(inst4.grid, rng.standard_normal((49, 50)), "state")
    dtheta = rng.standard_normal(50)
    resid = _random_triple(inst4, rng)
    full = inst4.aao.inner_residual(inst4.aao.derivative(point, dstate, dtheta), resid)
    slab_sum = 0.0
    worst_gap = 0.0
    for j in range(4):
        slab_resid = inst4.aao.slab_restrict(resid, j)
        slab_sum += inst4.aao.inner_residual(
            inst4.aao.slab_derivative(point, j, dstate, dtheta), slab_resid
        )
        lhs = inst4.aao.inner_residual(
            inst4.aao.slab_derivative(point, j, dstate, dtheta), slab_resid
        )
        astate, atheta = inst4.aao.slab_adjoint(point, j, slab_resid)
        rhs = inner_state(inst4.triple, dstate, astate) + inst4.problem.inner_theta(dtheta, atheta)
        worst_gap = max(worst_gap, _dot_gap(lhs, rhs))
    assert abs(slab_sum - full) / max(abs(full), 1e-300) <= 1e-12
    assert worst_gap <= 1e-10
    _report(
        "criterion 7",
        f"m=1 degeneration <= 1e-14; slab sum rel gap {abs(slab_sum-full)/abs(full):.1e}; "
        f"slab duality {worst_gap:.1e}",
    )


# -- criterion 8: IRGNM sanity -----------------------------------------------------------


def test_criterion_8_irgnm_residual_reduction():
    inst = make_instance(50, 100, 0.1, 10.0, policy="newton")
    theta, state, y = synthesize_truth(inst, "sine", 0.1)
    for tag in ("aIRGNM", "rIRGNM"):
        cfg = MethodConfig(
            tag=tag, alpha0=IRGNM_ALPHA0, q=IRGNM_Q, k_max=30, cg_tol=1e-8, cg_max=2000
        )
        rec = run(cfg, inst, y, 0.0, truth=(theta, state))
        res = rec.column("res_total")
        rel = res / res[0]
        assert np.min(rel) < 1e-6, f"{tag}: min relative residual {np.min(rel):.2e}"
        _report(
            "criterion 8",
            f"{tag} residual {res[0]:.2e} -> {res[-1]:.2e} "
            f"(x{rel[-1]:.1e}) within {len(res)-1} outer steps",
        )
