import numpy as np
import pytest

from dyninv import aao
from dyninv.aao import AaoPoint, AllAtOnceOperator, ResidualTriple, zero_point
from dyninv.errors import ValidationError
from dyninv.grids import make_partition
from dyninv.harness import DenseOracle, make_instance, synthesize_truth
from dyninv.methods import step_aao_irgnm
from dyninv.problem import SemilinearDiffusion
from dyninv.spaces import (
    DiscreteGelfandTriple,
    Trajectory,
    evolve_forward,
    inner_dual_load,
    inner_state,
    inner_state_modes,
    norm_dual_load,
    norm_l2_v,
    to_modes,
    zero_trajectory,
)

from conftest import positive_theta, spectral_adjoint


def random_point(instance, rng, scale=0.3):
    grid, n = instance.grid, instance.triple.interior_points
    state = Trajectory(grid, scale * rng.standard_normal((grid.node_count, n)), "state")
    return AaoPoint(state, scale * rng.standard_normal(instance.problem.n_theta))


def random_triple(instance, rng):
    grid, n = instance.grid, instance.triple.interior_points
    w = np.zeros((grid.node_count, n))
    w[1:] = rng.standard_normal((grid.step_count, n))
    z = np.zeros((grid.node_count, n))
    z[1:] = rng.standard_normal((grid.step_count, n))
    return ResidualTriple(
        Trajectory(grid, w, "dual_load"),
        rng.standard_normal(n),
        Trajectory(grid, z, "observation"),
    )


def zero_data(instance):
    grid, n = instance.grid, instance.triple.interior_points
    return zero_trajectory(grid, n, "observation")


def random_data(instance, rng):
    grid, n = instance.grid, instance.triple.interior_points
    return Trajectory(grid, rng.standard_normal((grid.node_count, n)), "observation")


@pytest.mark.parametrize("n_x, n_t, m", [(24, 24, 4), (30, 50, 5)])
def test_carried_modal_rows_change_no_value(n_x, n_t, m, rng):
    """adjoint and residual_norms read the same values from the nodal rows of
    K^-1 w an operator-built residual carries as from a bare triple, which
    solves for them, on every slab too."""
    inst = make_instance(n_x, n_t, 0.5, 10.0, m=m)
    op = inst.aao
    point = random_point(inst, rng)
    data = random_data(inst, rng)
    built = op.residual(point, data)
    bare = ResidualTriple(built.model, built.initial, built.observation)
    assert built.riesz.shape == (n_t, n_x) and bare.riesz is None

    def same(a, b):
        assert op.residual_norms(a) == op.residual_norms(b)
        assert op.inner_residual(a, a) == op.inner_residual(b, b)
        (sa, ta), (sb, tb) = op.adjoint(point, a), op.adjoint(point, b)
        assert np.array_equal(sa.values, sb.values) and np.array_equal(ta, tb)

    same(built, bare)
    for j in range(m):
        same(op.slab_restrict(built, j), op.slab_restrict(bare, j))


@pytest.mark.parametrize("n_x, n_t, horizon", [(30, 50, 0.5), (100, 100, 0.1), (1600, 8, 0.1)])
def test_model_channel_pairs_through_the_one_riesz_map(n_x, n_t, horizon, rng):
    """norm_dual_load and residual_norms pair the model row through the same
    Green's matrix of K and agree bit for bit, with the carried K^-1 w or
    without; inner_residual of model rows alone is inner_dual_load."""
    inst = make_instance(n_x, n_t, horizon, 10.0)
    op, triple = inst.aao, inst.triple
    resid = op.residual(random_point(inst, rng), random_data(inst, rng))
    assert norm_dual_load(triple, resid.model) == op.residual_norms(resid)[0]
    a, b = random_triple(inst, rng), random_triple(inst, rng)
    for r in (a, b):
        r.initial[:] = 0.0
        r.observation.values[:] = 0.0
    assert op.inner_residual(a, b) == inner_dual_load(triple, a.model, b.model)


@pytest.mark.parametrize(
    "n_x, n_t, horizon, m", [(30, 50, 0.5, 5), (100, 100, 0.1, 4), (1600, 8, 0.1, 4)]
)
def test_adjoint_matches_spectral_reference(n_x, n_t, horizon, m, rng):
    """At the benchmark sizes the adjoint, with K^-1 w from the Green's matrix
    of K, agrees to rounding with the spectral reference, on the full residual
    and on every slab: below the size cut with its loads in one basis product,
    at n_x = 1600 with both sweeps marched on nodes through the resolvent.

    The parameter direction is tau * sum K^-1 w on either side of the cut.  At
    n_x = 1600 the Green's and the spectral K^-1 of these rough rows each lie
    about 1e-12 from an extended-precision solve, so there the parameter
    directions agree to about 2e-12; the state direction is held to 1e-12."""
    inst = make_instance(n_x, n_t, horizon, 10.0, m=m)
    op = inst.aao
    point = random_point(inst, rng)
    resid = op.residual(point, random_data(inst, rng))
    theta_tol = 1e-12 if n_x <= 100 else 1e-11
    for r in (resid, *(op.slab_restrict(resid, j) for j in range(m))):
        (dstate, dtheta), want = op.adjoint(point, r), spectral_adjoint(op, point, r)
        for got, ref, tol in zip((dstate.values, dtheta), want, (1e-12, theta_tol)):
            assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))


def test_residual_vanishes_at_synthesized_truth(tiny_instance, tiny_truth):
    theta, state, y = tiny_truth
    op = tiny_instance.aao
    resid = op.residual(AaoPoint(state, theta), y)
    _, _, _, total = op.residual_norms(resid)
    assert total <= 1e-11


def test_residual_zero_point_zero_data(tiny_instance):
    op = tiny_instance.aao
    point = zero_point(tiny_instance.triple, tiny_instance.grid, tiny_instance.problem)
    resid = op.residual(point, zero_data(tiny_instance))
    assert op.residual_norms(resid)[3] == 0.0


def test_residual_norm_matches_dense_gram(tiny_instance, rng):
    """Total norm agrees with the quadratic form of the dense Gram matrix."""
    oracle = DenseOracle(tiny_instance)
    op = tiny_instance.aao
    point = random_point(tiny_instance, rng)
    resid = op.residual(point, zero_data(tiny_instance))
    flat = oracle.flatten_triple(resid)
    dense_norm = float(np.sqrt(flat @ oracle.gram_codomain @ flat))
    assert op.residual_norms(resid)[3] == pytest.approx(dense_norm, rel=1e-12)


def test_derivative_zero_direction(tiny_instance, rng):
    op = tiny_instance.aao
    point = random_point(tiny_instance, rng)
    out = op.derivative(point, zero_trajectory(tiny_instance.grid, 8), np.zeros(8))
    assert op.residual_norms(out)[3] == 0.0


def test_linear_problem_residual_is_affine(rng):
    inst = make_instance(6, 5, 0.05, gain=0.0, m=1)
    op = inst.aao
    data = zero_data(inst)
    base1 = random_point(inst, rng)
    base2 = random_point(inst, rng)
    dstate = Trajectory(inst.grid, rng.standard_normal(base1.state.values.shape), "state")
    dtheta = rng.standard_normal(6)
    for base in (base1, base2):
        shifted = AaoPoint(
            Trajectory(inst.grid, base.state.values + dstate.values, "state"),
            base.theta + dtheta,
        )
        r0 = op.residual(base, data)
        r1 = op.residual(shifted, data)
        lin = op.derivative(base, dstate, dtheta)
        for got, want in (
            (r1.model.values - r0.model.values, lin.model.values),
            (r1.initial - r0.initial, lin.initial),
            (r1.observation.values - r0.observation.values, lin.observation.values),
        ):
            assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1.0)


def test_derivative_taylor_order(tiny_instance, rng):
    op = tiny_instance.aao
    grid = tiny_instance.grid
    state = Trajectory(grid, 0.5 + 0.2 * rng.random((grid.node_count, 8)), "state")
    point = AaoPoint(state, positive_theta(tiny_instance.triple))
    dstate = Trajectory(grid, 0.1 + 0.05 * rng.random((grid.node_count, 8)), "state")
    dtheta = 0.1 * rng.random(8)
    data = zero_data(tiny_instance)
    errs = []
    for eps in (1e-1, 1e-2, 1e-3):
        moved = AaoPoint(
            Trajectory(grid, state.values + eps * dstate.values, "state"),
            point.theta + eps * dtheta,
        )
        r1 = op.residual(moved, data)
        r0 = op.residual(point, data)
        lin = op.derivative(point, dstate, dtheta)
        diff = ResidualTriple(
            Trajectory(grid, r1.model.values - r0.model.values - eps * lin.model.values, "dual_load"),
            r1.initial - r0.initial - eps * lin.initial,
            Trajectory(
                grid,
                r1.observation.values - r0.observation.values - eps * lin.observation.values,
                "observation",
            ),
        )
        errs.append(op.residual_norms(diff)[3])
    orders = [np.log10(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_adjoint_zero(tiny_instance):
    op = tiny_instance.aao
    point = zero_point(tiny_instance.triple, tiny_instance.grid, tiny_instance.problem)
    grid = tiny_instance.grid
    resid = ResidualTriple(
        zero_trajectory(grid, 8, "dual_load"), np.zeros(8), zero_trajectory(grid, 8, "observation")
    )
    dstate, dtheta = op.adjoint(point, resid)
    np.testing.assert_array_equal(dstate.values, 0.0)
    np.testing.assert_array_equal(dtheta, 0.0)


def test_adjoint_matches_dense_oracle(tiny_instance, rng):
    oracle = DenseOracle(tiny_instance)
    op = tiny_instance.aao
    point = random_point(tiny_instance, rng)
    adj = oracle.aao_adjoint_matrix(point)
    for _ in range(5):
        rf = rng.standard_normal(oracle.cod_dim)
        dstate, dtheta = op.adjoint(point, oracle.unflatten_triple(rf))
        got = np.concatenate([dstate.values.ravel(), dtheta])
        want = adj @ rf
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-12)


def test_adjoint_dot_product_matrix_free(small_instance, rng):
    from dyninv.spaces import inner_state

    op = small_instance.aao
    point = random_point(small_instance, rng)
    for _ in range(10):
        dstate = Trajectory(
            small_instance.grid, rng.standard_normal(point.state.values.shape), "state"
        )
        dtheta = rng.standard_normal(op.problem.n_theta)
        resid = random_triple(small_instance, rng)
        lhs = op.inner_residual(op.derivative(point, dstate, dtheta), resid)
        astate, atheta = op.adjoint(point, resid)
        rhs = inner_state(small_instance.triple, dstate, astate) + op.problem.inner_theta(
            dtheta, atheta
        )
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300) <= 1e-10


def test_adjoint_dot_product_above_the_cut(above_cut, rng):
    """From the size cut on, the nodal adjoint is the exact transpose of the
    derivative under the graph product, for the full map and every slab map."""
    inst = above_cut[0]
    op, grid = inst.aao, inst.grid
    point = random_point(inst, rng)
    for j in (None, *range(inst.partition.slab_count)):
        dstate = Trajectory(grid, rng.standard_normal(point.state.values.shape), "state")
        dtheta = rng.standard_normal(op.problem.n_theta)
        resid = random_triple(inst, rng)
        if j is None:
            lin, (astate, atheta) = op.derivative(point, dstate, dtheta), op.adjoint(point, resid)
        else:
            lin = op.slab_derivative(point, j, dstate, dtheta)
            astate, atheta = op.slab_adjoint(point, j, resid)
        lhs = op.inner_residual(lin, resid)
        rhs = inner_state(inst.triple, dstate, astate) + op.problem.inner_theta(dtheta, atheta)
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) <= 1e-10


def test_state_pairing_above_the_cut_is_inner_state(above_cut, rng):
    """From the size cut on, the operator pairs nodal states: its pairing is
    inner_state, and agrees with the modal pairing of the same states."""
    inst = above_cut[0]
    op, grid, triple = inst.aao, inst.grid, inst.triple
    a, b = (rng.standard_normal((grid.node_count, triple.interior_points)) for _ in range(2))
    assert np.array_equal(op.from_nodes(a), a) and np.array_equal(op.to_nodes(a), a)
    for x, y in ((a, b), (a, a)):
        want = inner_state(triple, Trajectory(grid, x, "state"), Trajectory(grid, y, "state"))
        modal = inner_state_modes(triple, grid.tau, to_modes(triple, x), to_modes(triple, y))
        for got in (op.inner_coords(x, y), modal):
            assert abs(got - want) <= 1e-12 * abs(want)


def test_above_the_cut_the_operator_reads_the_reduced_resolvent(above_cut, tiny_instance):
    """From the size cut on, the operator builds no march tables and reads the
    (I + tau K)^-1 tables of the reduced operator, not a copy; below, it marches."""
    inst = above_cut[0]
    assert inst.aao._resolvent is inst.reduced._resolvent
    assert not hasattr(inst.aao, "_march")
    assert not hasattr(tiny_instance.aao, "_resolvent")


def test_adjoint_initial_channel_closed_form(tiny_instance, rng):
    """(0, h, 0) drives a pure forward evolution plus the initial-map term."""
    op = tiny_instance.aao
    point = random_point(tiny_instance, rng)
    grid = tiny_instance.grid
    h = rng.standard_normal(8)
    resid = ResidualTriple(
        zero_trajectory(grid, 8, "dual_load"), h, zero_trajectory(grid, 8, "observation")
    )
    dstate, dtheta = op.adjoint(point, resid)
    expected = evolve_forward(tiny_instance.triple, grid, h)
    np.testing.assert_allclose(dstate.values, expected.values, atol=1e-13)
    np.testing.assert_array_equal(dtheta, 0.0)  # u0 independent of theta here


def test_adjoint_is_linear_in_channels(tiny_instance, rng):
    op = tiny_instance.aao
    point = random_point(tiny_instance, rng)
    grid = tiny_instance.grid
    full = random_triple(tiny_instance, rng)
    only_h = ResidualTriple(
        zero_trajectory(grid, 8, "dual_load"),
        full.initial,
        zero_trajectory(grid, 8, "observation"),
    )
    no_h = ResidualTriple(full.model, np.zeros(8), full.observation)
    ds_full, dt_full = op.adjoint(point, full)
    ds_h, dt_h = op.adjoint(point, only_h)
    ds_rest, dt_rest = op.adjoint(point, no_h)
    np.testing.assert_allclose(ds_full.values, ds_h.values + ds_rest.values, atol=1e-12)
    np.testing.assert_allclose(dt_full, dt_h + dt_rest, atol=1e-12)


# -- slab operators ---------------------------------------------------------------


def test_slab_trivial_partition_identity(rng):
    inst = make_instance(6, 6, 0.05, gain=10.0, m=1)
    op = inst.aao
    point = random_point(inst, rng)
    data = zero_data(inst)
    full = op.residual(point, data)
    slab = op.slab_restrict(op.residual(point, data), 0)
    np.testing.assert_allclose(slab.model.values, full.model.values, atol=1e-14)
    np.testing.assert_allclose(slab.initial, full.initial, atol=1e-14)
    np.testing.assert_allclose(slab.observation.values[1:], full.observation.values[1:], atol=1e-14)
    ds_f, dt_f = op.adjoint(point, full)
    ds_s, dt_s = op.slab_adjoint(point, 0, slab)
    np.testing.assert_allclose(ds_s.values, ds_f.values, atol=1e-13)
    np.testing.assert_allclose(dt_s, dt_f, atol=1e-13)


def test_slab_adjoint_matches_dense_oracle(tiny_instance, rng, monkeypatch):
    """On both sides of the size cut every slab adjoint, whose backward sweep
    starts at the slab's last node, is the oracle's transpose of the slab map,
    and the single slab of m = 1 is the full adjoint exactly."""
    inst = tiny_instance
    oracle = DenseOracle(inst)
    point = random_point(inst, rng)
    for nodal in (False, True):
        monkeypatch.setattr(aao, "_NODAL_FROM", inst.triple.interior_points + (not nodal))
        op = AllAtOnceOperator(inst.problem, inst.triple, inst.grid, inst.partition)
        assert hasattr(op, "_resolvent") == nodal
        for j in range(inst.partition.slab_count):
            adj = oracle.aao_adjoint_matrix(point, slab=j)
            rf = rng.standard_normal(oracle.cod_dim)
            dstate, dtheta = op.slab_adjoint(point, j, oracle.unflatten_triple(rf))
            got = np.concatenate([dstate.values.ravel(), dtheta])
            want = adj @ rf
            assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-12)
        one = AllAtOnceOperator(inst.problem, inst.triple, inst.grid, make_partition(inst.grid, 1))
        resid = oracle.unflatten_triple(rng.standard_normal(oracle.cod_dim))
        (s1, t1), (s, t) = one.slab_adjoint(point, 0, resid), op.adjoint(point, resid)
        assert np.array_equal(s1.values, s.values) and np.array_equal(t1, t)


def test_sum_over_slabs_identity(small_instance, rng):
    """Slab derivatives against restricted residuals add up to the full pairing."""
    inst = small_instance
    op = inst.aao
    part = inst.partition
    point = random_point(inst, rng)
    dstate = Trajectory(inst.grid, rng.standard_normal(point.state.values.shape), "state")
    dtheta = rng.standard_normal(op.problem.n_theta)
    resid = random_triple(inst, rng)
    full = op.inner_residual(op.derivative(point, dstate, dtheta), resid)
    total = 0.0
    for j in range(part.slab_count):
        slab_out = op.slab_derivative(point, j, dstate, dtheta)
        slab_resid = op.slab_restrict(resid, j)
        total += op.inner_residual(slab_out, slab_resid)
    assert total == pytest.approx(full, rel=1e-12)


def test_slab_zero_residual(tiny_instance):
    op = tiny_instance.aao
    grid = tiny_instance.grid
    point = zero_point(tiny_instance.triple, grid, tiny_instance.problem)
    resid = ResidualTriple(
        zero_trajectory(grid, 8, "dual_load"), np.zeros(8), zero_trajectory(grid, 8, "observation")
    )
    ds, dt = op.slab_adjoint(point, 1, resid)
    np.testing.assert_array_equal(ds.values, 0.0)
    np.testing.assert_array_equal(dt, 0.0)


def test_slab_index_validation(tiny_instance, rng):
    op = tiny_instance.aao
    point = random_point(tiny_instance, rng)
    with pytest.raises(ValidationError):
        op.slab_restrict(op.residual(point, zero_data(tiny_instance)), 5)


def test_operator_without_partition_rejects_slabs(rng):
    from dyninv.aao import AllAtOnceOperator
    from dyninv.grids import make_time_grid
    from dyninv.spaces import build_triple

    triple = build_triple(5)
    grid = make_time_grid(0.1, 4)
    op = AllAtOnceOperator(SemilinearDiffusion(triple), triple, grid)
    point = AaoPoint(zero_trajectory(grid, 5), np.zeros(5))
    resid = op.residual(point, zero_trajectory(grid, 5, "observation"))
    with pytest.raises(ValidationError):
        op.slab_restrict(resid, 0)


def test_run_path_never_builds_the_dense_stiffness(monkeypatch, rng):
    """Residual, norms, adjoints, an IRGNM step and the truth march use the stencil."""

    def forbidden(self):
        raise AssertionError("dense stiffness matrix on a run path")

    monkeypatch.setattr(DiscreteGelfandTriple, "stiffness", property(forbidden))
    inst = make_instance(8, 6, 0.05, gain=10.0, m=2)
    theta, state, y = synthesize_truth(inst)
    point = random_point(inst, rng)
    op = inst.aao
    resid = op.residual(point, y)
    op.residual_norms(resid)
    op.adjoint(point, resid)
    op.slab_adjoint(point, 1, resid)
    step_aao_irgnm(op, point, y, alpha=0.5, prior=AaoPoint(state, theta), resid=resid)
    norm_l2_v(inst.triple, inst.grid.tau, state.values[1:])
