import numpy as np
import pytest

from dyninv.errors import ValidationError
from dyninv.problem import SemilinearDiffusion, signed_square, signed_square_slope
from dyninv.spaces import build_triple, inner


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
    np.testing.assert_allclose(prob.f(0.0, np.zeros(8), theta), theta, atol=1e-15)
    np.testing.assert_allclose(prob.f(0.0, np.zeros(8), np.zeros(8)), np.zeros(8))


def test_f_on_eigenvector(bench):
    triple, prob = bench
    q = triple.eigenvectors[:, 0]
    expected = -triple.eigenvalues[0] * q - signed_square(q)
    np.testing.assert_allclose(prob.f(0.0, q, np.zeros(8)), expected, atol=1e-10)


def test_observation_and_initial(bench, rng):
    triple, prob = bench
    u = rng.standard_normal(8)
    theta = rng.standard_normal(8)
    np.testing.assert_array_equal(prob.g(0.0, u, theta), u)
    np.testing.assert_array_equal(prob.u0(theta), np.zeros(8))
    np.testing.assert_array_equal(prob.g(0.0, np.zeros(8), theta), np.zeros(8))


def test_f_dimension_mismatch(bench):
    triple, prob = bench
    with pytest.raises(ValidationError):
        prob.f(0.0, np.zeros(5), np.zeros(8))
    with pytest.raises(ValidationError):
        prob.f(0.0, np.zeros(8), np.zeros(5))


def test_jac_unknown_tags(bench):
    _, prob = bench
    with pytest.raises(ValidationError):
        prob.apply_jac("f_x", "forward", 0.0, np.zeros(8), np.zeros(8), np.zeros(8))
    with pytest.raises(ValidationError):
        prob.apply_jac("f_u", "sideways", 0.0, np.zeros(8), np.zeros(8), np.zeros(8))


def test_state_jacobian_at_zero(bench, rng):
    triple, prob = bench
    v = rng.standard_normal(8)
    np.testing.assert_allclose(
        prob.apply_jac("f_u", "forward", 0.0, np.zeros(8), np.zeros(8), v),
        -triple.stiffness @ v,
        rtol=1e-12,
    )


def test_g_theta_vanishes(bench, rng):
    _, prob = bench
    xi = rng.standard_normal(8)
    np.testing.assert_array_equal(
        prob.apply_jac("g_theta", "forward", 0.0, np.zeros(8), np.zeros(8), xi), np.zeros(8)
    )


def _dense_jacobian(apply_fwd, dim_in, dim_out):
    jac = np.empty((dim_out, dim_in))
    for i in range(dim_in):
        unit = np.zeros(dim_in)
        unit[i] = 1.0
        jac[:, i] = apply_fwd(unit)
    return jac


@pytest.mark.parametrize("which", ["f_u", "f_theta", "g_u", "g_theta", "u0"])
def test_forward_adjoint_duality_dense_oracle(bench, rng, which):
    """dx-weighted transpose of the probed dense Jacobian matches adjoint mode."""
    triple, prob = bench
    u = 0.4 * rng.standard_normal(8)
    theta = 0.3 * rng.standard_normal(8)
    t = 0.01
    dim_in = prob.n_theta if which in ("f_theta", "g_theta", "u0") else 8
    jac = _dense_jacobian(
        lambda x: prob.apply_jac(which, "forward", t, u, theta, x), dim_in, 8
    )
    for _ in range(5):
        x = rng.standard_normal(dim_in)
        y = rng.standard_normal(8)
        lhs = triple.dx * ((jac @ x) @ y)
        adj = prob.apply_jac(which, "adjoint", t, u, theta, y)
        if which in ("f_theta", "g_theta", "u0"):
            rhs = prob.inner_theta(x, adj)
        else:
            rhs = triple.dx * (x @ adj)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_f_u_matrix_matches_forward_mode(bench, rng):
    triple, prob = bench
    u = rng.standard_normal(8)
    mat = prob.f_u_matrix(0.0, u, np.zeros(8))
    v = rng.standard_normal(8)
    np.testing.assert_allclose(
        mat @ v, prob.apply_jac("f_u", "forward", 0.0, u, np.zeros(8), v), rtol=1e-12
    )


def test_taylor_order_of_f(bench, rng):
    """Positive states keep the nonlinearity smooth; remainder is O(eps^2)."""
    triple, prob = bench
    u = 0.5 + 0.2 * rng.random(8)
    v = 0.1 * rng.random(8) + 0.05
    theta = np.zeros(8)
    errs = []
    for eps in (1e-1, 1e-2, 1e-3):
        lhs = prob.f(0.0, u + eps * v, theta)
        lin = prob.f(0.0, u, theta) + eps * prob.apply_jac("f_u", "forward", 0.0, u, theta, v)
        diff = lhs - lin
        errs.append(np.sqrt(inner(triple, "Vstar", diff, diff)))
    orders = [np.log10(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_reaction_is_f_plus_stiffness(bench, rng):
    triple, prob = bench
    u = rng.standard_normal(8)
    theta = rng.standard_normal(8)
    np.testing.assert_allclose(
        prob.reaction(0.0, u, theta),
        prob.f(0.0, u, theta) + u @ triple.stiffness,
        atol=1e-10,
    )


def test_subdomain_source_embedding(rng):
    triple = build_triple(10)
    support = np.array([2, 3, 4])
    prob = SemilinearDiffusion(triple, gain=10.0, source_nodes=support)
    assert prob.n_theta == 3
    xi = rng.standard_normal(3)
    emb = prob.embed_theta(xi)
    assert emb.shape == (10,)
    np.testing.assert_array_equal(emb[support], xi)
    mask = np.ones(10, dtype=bool)
    mask[support] = False
    np.testing.assert_array_equal(emb[mask], 0.0)
    # restriction is the adjoint of the embedding
    v = rng.standard_normal(10)
    assert triple.dx * (emb @ v) == pytest.approx(prob.inner_theta(xi, prob.restrict_theta(v)))
