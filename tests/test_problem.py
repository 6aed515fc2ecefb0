import numpy as np
import pytest

from dyninv.aao import AaoPoint
from dyninv.errors import ValidationError
from dyninv.problem import SemilinearDiffusion, signed_square, signed_square_slope
from dyninv.spaces import Trajectory, build_triple, to_modes


def test_nonlinearity_paper_values():
    assert signed_square(1.0) == 10.0
    assert signed_square(-2.0) == -40.0
    assert signed_square(0.0) == 0.0
    assert signed_square_slope(0.0) == 0.0
    assert signed_square_slope(-3.0) == 60.0


def test_nonlinearity_odd(rng):
    x = rng.standard_normal(50)
    np.testing.assert_allclose(signed_square(-x), -signed_square(x), atol=1e-14)


@pytest.mark.parametrize("gain", [10.0, 0.3, 7.1e-3])
def test_signed_square_rounds_like_the_sign_form(gain, rng):
    """(gain * x) * |x| equals ((gain * sign(x)) * x) * x value for value."""
    x = np.concatenate([
        rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000),
        [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e150, -1e150, np.inf, -np.inf, np.nan],
    ])
    with np.errstate(all="ignore"):
        old = gain * np.sign(x) * x * x
        new = signed_square(x, gain)
    assert np.array_equal(new, old, equal_nan=True)


@pytest.fixture
def bench():
    triple = build_triple(8)
    return triple, SemilinearDiffusion(triple, gain=10.0)


def test_f_at_zero_state(bench, rng):
    triple, prob = bench
    theta = rng.standard_normal(8)
    np.testing.assert_allclose(prob.f(np.zeros(8), theta), theta, atol=1e-15)
    np.testing.assert_allclose(prob.f(np.zeros(8), np.zeros(8)), np.zeros(8))


def test_f_on_eigenvector(bench):
    triple, prob = bench
    q = triple.eigenvectors[:, 0]
    expected = -triple.eigenvalues[0] * q - signed_square(q)
    np.testing.assert_allclose(prob.f(q, np.zeros(8)), expected, atol=1e-10)


def test_observation_and_initial(tiny_instance, above_cut, rng):
    """The operators observe the state in full from a zero start: the reduced
    observation is the state, the all-at-once observation row a copy of it.

    Above the size cut the all-at-once IRGNM hands the derivative a view of a
    CG vector (``to_nodes`` returns its input), so its observation and initial
    rows must not alias the direction.
    """
    theta = rng.standard_normal(tiny_instance.problem.n_theta)
    state = tiny_instance.reduced.solve_state(theta)
    np.testing.assert_array_equal(state.values[0], 0.0)
    big, (big_theta, big_state, _) = above_cut
    for inst, point in ((tiny_instance, AaoPoint(state, theta)), (big, AaoPoint(big_state, big_theta))):
        width, nodes = inst.triple.interior_points, inst.grid.node_count
        flat = rng.standard_normal(nodes * width + width)
        dstate = Trajectory(inst.grid, flat[: nodes * width].reshape(nodes, width), "state")
        lin = inst.aao.derivative(point, dstate, flat[nodes * width :])
        np.testing.assert_array_equal(lin.observation.values, dstate.values)
        np.testing.assert_array_equal(lin.initial, dstate.values[0])
        assert not np.shares_memory(lin.observation.values, flat)
        assert not np.shares_memory(lin.initial, flat)


def test_f_dimension_mismatch(bench):
    triple, prob = bench
    with pytest.raises(ValidationError):
        prob.f(np.zeros(5), np.zeros(8))
    with pytest.raises(ValidationError):
        prob.f(np.zeros(8), np.zeros(5))


def test_parameters_of_the_wrong_length_are_rejected(tiny_instance):
    """theta reaches the operators as arithmetic, so each entry point that takes
    a parameter or a parameter direction checks its length: a length-1 array
    would broadcast over the nodes."""
    inst = tiny_instance
    state = inst.reduced.solve_state(np.zeros(8))
    point = AaoPoint(state, np.zeros(8))
    for bad in (np.ones(1), np.ones(5)):
        for call in (
            lambda: inst.reduced.solve_state(bad),
            lambda: inst.reduced.derivative(np.zeros(8), state, bad),
            lambda: inst.aao.derivative(point, state, bad),
        ):
            with pytest.raises(ValidationError):
                call()


def test_state_jacobian_at_zero(bench, rng):
    triple, prob = bench
    v = rng.standard_normal(8)
    np.testing.assert_allclose(
        prob.apply_jac(np.zeros(8), v),
        -triple.stiffness @ v,
        rtol=1e-12,
    )


def _dense_jacobian(apply_fwd, dim_in, dim_out):
    jac = np.empty((dim_out, dim_in))
    for i in range(dim_in):
        unit = np.zeros(dim_in)
        unit[i] = 1.0
        jac[:, i] = apply_fwd(unit)
    return jac


@pytest.mark.parametrize("which", ["f_u", "f_theta"])
def test_forward_adjoint_duality_dense_oracle(bench, rng, which):
    """The operators take both derivatives of f as self-adjoint under the
    dx-weighted pairing: f_u from ``apply_jac``, and f_theta as the identity.
    The probed dense Jacobians (f_theta from differences of f in theta, exact
    up to rounding for a source) are symmetric, and f_theta is the identity."""
    triple, prob = bench
    u = 0.4 * rng.standard_normal(8)
    theta = 0.3 * rng.standard_normal(8)
    if which == "f_u":
        jac = _dense_jacobian(lambda x: prob.apply_jac(u, x), 8, 8)
    else:
        jac = _dense_jacobian(lambda x: prob.f(u, theta + x) - prob.f(u, theta), prob.n_theta, 8)
        scale = np.max(np.abs(prob.f(u, theta)))  # the differences round at the size of f
        np.testing.assert_allclose(jac, np.eye(8), rtol=0, atol=1e-14 * scale)
    for _ in range(5):
        x = rng.standard_normal(8)
        y = rng.standard_normal(8)
        lhs = triple.dx * ((jac @ x) @ y)
        rhs = prob.inner_theta(x, jac @ y)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_f_u_matrix_matches_forward_mode(bench, rng):
    triple, prob = bench
    u = rng.standard_normal(8)
    mat = prob.f_u_matrix(u)
    v = rng.standard_normal(8)
    np.testing.assert_allclose(
        mat @ v, prob.apply_jac(u, v), rtol=1e-12
    )


def test_taylor_order_of_f(bench, rng):
    """Positive states keep the nonlinearity smooth; remainder is O(eps^2)."""
    triple, prob = bench
    u = 0.5 + 0.2 * rng.random(8)
    v = 0.1 * rng.random(8) + 0.05
    theta = np.zeros(8)
    errs = []
    for eps in (1e-1, 1e-2, 1e-3):
        lhs = prob.f(u + eps * v, theta)
        lin = prob.f(u, theta) + eps * prob.apply_jac(u, v)
        diff = lhs - lin
        modes = to_modes(triple, diff)
        errs.append(np.sqrt(triple.dx * float(np.vdot(modes / triple.eigenvalues, modes))))
    orders = [np.log10(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_reaction_is_f_plus_stiffness(bench, rng):
    triple, prob = bench
    u = rng.standard_normal(8)
    theta = rng.standard_normal(8)
    np.testing.assert_allclose(
        prob.reaction(u, theta),
        prob.f(u, theta) + u @ triple.stiffness,
        atol=1e-10,
    )
