import numpy as np
import pytest

from dyninv.aao import AaoPoint, ResidualTriple, data_triple, zero_point
from dyninv.errors import ValidationError
from dyninv.harness import DenseOracle, make_instance, synthesize_truth
from dyninv.methods import step_aao_irgnm
from dyninv.problem import SemilinearDiffusion
from dyninv.spaces import (
    DiscreteGelfandTriple,
    Trajectory,
    evolve_forward,
    norm_l2_v,
    zero_trajectory,
)

from conftest import positive_theta


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
    return data_triple(grid, n, zero_trajectory(grid, n, "observation"))


@pytest.mark.parametrize("n_x, n_t, m", [(24, 24, 4), (30, 50, 5)])
def test_carried_modal_rows_change_no_value(n_x, n_t, m, rng):
    """adjoint and residual_norms read the same values from the modal rows an
    operator-built residual carries as from a bare triple, on every slab too."""
    inst = make_instance(n_x, n_t, 0.5, 10.0, m=m)
    op = inst.aao
    point = random_point(inst, rng)
    data = random_triple(inst, rng)
    built = op.residual(point, data)
    bare = ResidualTriple(built.model, built.initial, built.observation)

    def same(a, b):
        assert op.residual_norms(a) == op.residual_norms(b)
        (sa, ta), (sb, tb) = op.adjoint(point, a), op.adjoint(point, b)
        assert np.array_equal(sa.values, sb.values) and np.array_equal(ta, tb)

    same(built, bare)
    for j in range(m):
        same(op.slab_restrict(built, j), op.slab_restrict(bare, j))


def test_residual_vanishes_at_synthesized_truth(tiny_instance, tiny_truth):
    theta, state, y = tiny_truth
    op = tiny_instance.aao
    data = data_triple(tiny_instance.grid, 8, y)
    resid = op.residual(AaoPoint(state, theta), data)
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
    slab = op.slab_residual(point, 0, data)
    np.testing.assert_allclose(slab.model.values, full.model.values, atol=1e-14)
    np.testing.assert_allclose(slab.initial, full.initial, atol=1e-14)
    np.testing.assert_allclose(slab.observation.values[1:], full.observation.values[1:], atol=1e-14)
    ds_f, dt_f = op.adjoint(point, full)
    ds_s, dt_s = op.slab_adjoint(point, 0, slab)
    np.testing.assert_allclose(ds_s.values, ds_f.values, atol=1e-13)
    np.testing.assert_allclose(dt_s, dt_f, atol=1e-13)


def test_slab_adjoint_matches_dense_oracle(tiny_instance, rng):
    oracle = DenseOracle(tiny_instance)
    op = tiny_instance.aao
    point = random_point(tiny_instance, rng)
    for j in range(tiny_instance.partition.slab_count):
        adj = oracle.aao_adjoint_matrix(point, slab=j)
        rf = rng.standard_normal(oracle.cod_dim)
        dstate, dtheta = op.slab_adjoint(point, j, oracle.unflatten_triple(rf))
        got = np.concatenate([dstate.values.ravel(), dtheta])
        want = adj @ rf
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-12)


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
        op.slab_residual(point, 5, zero_data(tiny_instance))


def test_operator_without_partition_rejects_slabs(rng):
    from dyninv.aao import AllAtOnceOperator
    from dyninv.grids import make_time_grid
    from dyninv.spaces import build_triple

    triple = build_triple(5)
    grid = make_time_grid(0.1, 4)
    op = AllAtOnceOperator(SemilinearDiffusion(triple), triple, grid)
    point = AaoPoint(zero_trajectory(grid, 5), np.zeros(5))
    with pytest.raises(ValidationError):
        op.slab_residual(point, 0, data_triple(grid, 5, zero_trajectory(grid, 5, "observation")))


def test_run_path_never_builds_the_dense_stiffness(monkeypatch, rng):
    """Residual, norms, adjoints, an IRGNM step and the truth march use the stencil."""

    def forbidden(self):
        raise AssertionError("dense stiffness matrix on a run path")

    monkeypatch.setattr(DiscreteGelfandTriple, "stiffness", property(forbidden))
    inst = make_instance(8, 6, 0.05, gain=10.0, m=2)
    theta, state, y = synthesize_truth(inst)
    data = data_triple(inst.grid, 8, y)
    point = random_point(inst, rng)
    op = inst.aao
    resid = op.residual(point, data)
    op.residual_norms(resid)
    op.adjoint(point, resid)
    op.slab_adjoint(point, 1, resid)
    step_aao_irgnm(op, point, data, alpha=0.5, prior=AaoPoint(state, theta), resid=resid)
    norm_l2_v(inst.triple, state)
