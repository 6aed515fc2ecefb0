import inspect
import warnings
from functools import partial

import numpy as np
import pytest

from dyninv import aao, harness, methods, problem, reduced, spaces
from dyninv.errors import SolverError, ValidationError
from dyninv.grids import make_time_grid
from dyninv.spaces import (
    Trajectory,
    apply_stiffness,
    build_triple,
    evolve_backward,
    evolve_forward,
    from_modes,
    inner_dual_load,
    inner_state,
    march_modes,
    march_nodes,
    march_tables,
    norm_dual_load,
    norm_l2_v,
    resolvent_tables,
    solve_resolvent,
    solve_shifted_stiffness,
    solve_stiffness,
    to_modes,
    zero_trajectory,
)

from conftest import dense_graph_rows, refined_dense_solve, step_by_step_march


def dirichlet_eigenpairs(n_x):
    """Closed-form eigenpairs of the (2,-1,-1)/dx^2 tridiagonal."""
    dx = 1.0 / (n_x + 1)
    k = np.arange(1, n_x + 1)
    lam = (2.0 / dx**2) * (1.0 - np.cos(k * np.pi / (n_x + 1)))
    j = np.arange(1, n_x + 1)
    vecs = np.sin(np.outer(j, k) * np.pi / (n_x + 1))
    return lam, vecs / np.linalg.norm(vecs, axis=0)


def test_eigenvalues_n3_closed_form():
    triple = build_triple(3)
    expected = 32.0 * np.array([1 - np.sqrt(2) / 2, 1.0, 1 + np.sqrt(2) / 2])
    np.testing.assert_allclose(triple.eigenvalues, expected, rtol=1e-12)
    lam, _ = dirichlet_eigenpairs(3)
    np.testing.assert_allclose(triple.eigenvalues, lam, rtol=1e-12)


def test_single_point_stiffness():
    triple = build_triple(1)
    np.testing.assert_allclose(triple.stiffness, [[8.0]])
    np.testing.assert_allclose(triple.eigenvalues, [8.0])


def test_smallest_eigenvalue_near_continuum():
    triple = build_triple(100)
    assert abs(triple.eigenvalues[0] - np.pi**2) <= 0.01 * np.pi**2


def test_eigenvectors_orthogonal():
    triple = build_triple(37)
    q = triple.eigenvectors
    assert np.max(np.abs(q.T @ q - np.eye(37))) <= 1e-12


@pytest.mark.parametrize("n_x", [1, 2, 3, 30, 100, 1600])
def test_eigenbasis_is_exactly_symmetric(n_x):
    """q_ij and q_ji read one table entry (n_x + 1 even and odd), so
    from_modes may apply q in place of q.T."""
    q = build_triple(n_x).eigenvectors
    assert np.array_equal(q, q.T)


@pytest.mark.parametrize("n_x, rows", [(100, 101), (100, 201), (120, 401), (50, 601)])
def test_chunked_basis_products_equal_one_product(n_x, rows, rng):
    """Above OpenBLAS's small-matrix cutoff, to_modes and from_modes multiply
    in row chunks of 1e6 // n^2 rows; they equal one product with the basis to
    1e-15 relative (Frobenius norm), and from_modes inverts to_modes."""
    triple = build_triple(n_x)
    q = triple.eigenvectors
    assert rows > spaces._SMALL_GEMM // n_x**2 >= n_x / 2
    x = rng.standard_normal((rows, n_x))
    c = to_modes(triple, x)
    for got, want in ((c, x @ q), (from_modes(triple, c), c @ q)):
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
    assert np.max(np.abs(from_modes(triple, c) - x)) <= 1e-14 * np.max(np.abs(x))


@pytest.mark.parametrize("n_x", [1, 3, 37, 200])
def test_closed_form_eigenpairs_match_eigh(n_x):
    """The tabulated DST-I eigenpairs agree with a dense eigendecomposition."""
    triple = build_triple(n_x)
    lam, q = triple.eigenvalues, triple.eigenvectors
    scale = lam[-1]
    np.testing.assert_allclose(lam, np.linalg.eigh(triple.stiffness)[0], rtol=0, atol=1e-13 * scale)
    assert np.max(np.abs(triple.stiffness @ q - q * lam)) <= 1e-13 * scale
    assert np.max(np.abs(q.T @ q - np.eye(n_x))) <= 1e-13


@pytest.mark.parametrize("n_x", [1, 2, 7, 64, 400])
def test_shifted_stiffness_solve_matches_dense(n_x, rng):
    """The Thomas solve of I + tau K - diag(shift) agrees with a dense solve."""
    triple = build_triple(n_x)
    tau = 0.01
    mat = np.eye(n_x) + tau * triple.stiffness
    rhs = rng.standard_normal(n_x)
    # shifts of both signs; below 1 the matrix stays positive definite
    for shift in (rng.uniform(-3.0, 0.9, n_x), -rng.uniform(0.0, 3.0, n_x), np.full(n_x, 0.9)):
        want = np.linalg.solve(mat - np.diag(shift), rhs)
        got = solve_shifted_stiffness(triple, tau, shift, rhs)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@pytest.mark.parametrize("first", ["diagonal", np.inf, np.nan])
def test_shifted_stiffness_solve_rejects_bad_pivot(first):
    """A zero or non-finite pivot raises SolverError with the caller's step."""
    triple = build_triple(3)
    tau = 0.01
    shift = np.zeros(3)
    # a shift equal to the diagonal of I + tau K zeroes the first pivot
    shift[0] = 1.0 + 2.0 * (tau / triple.dx**2) if first == "diagonal" else first
    with pytest.raises(SolverError) as exc:
        solve_shifted_stiffness(triple, tau, shift, np.ones(3), step=5)
    assert exc.value.step == 5


def inner_h(triple, a, b):
    return triple.dx * (a @ b)


def inner_v(triple, a, b):
    return triple.dx * (a @ apply_stiffness(triple, b))


def inner_vstar(triple, a, b):
    """The modal V* pairing, where K is diagonal: dx * sum(a_hat * b_hat / lam)."""
    a_hat, b_hat = to_modes(triple, a), to_modes(triple, b)
    return triple.dx * float(np.vdot(a_hat / triple.eigenvalues, b_hat))


def test_h_inner_constant():
    triple = build_triple(3)
    one = np.ones(3)
    assert inner_h(triple, one, one) == pytest.approx(0.75, abs=1e-15)


def test_v_inner_rayleigh(rng):
    triple = build_triple(9)
    for k in (0, 4, 8):
        q = triple.eigenvectors[:, k] / np.sqrt(triple.dx)  # unit H norm
        assert inner_h(triple, q, q) == pytest.approx(1.0, rel=1e-12)
        assert inner_v(triple, q, q) == pytest.approx(triple.eigenvalues[k], rel=1e-12)


def test_vstar_of_riesz_image_matches_v(rng):
    triple = build_triple(11)
    v = rng.standard_normal(11)
    dv = apply_stiffness(triple, v)
    assert inner_vstar(triple, dv, dv) == pytest.approx(inner_v(triple, v, v), rel=1e-12)


def test_riesz_maps_inverse_pair(rng):
    triple = build_triple(13)
    v = rng.standard_normal(13)
    np.testing.assert_allclose(solve_stiffness(triple, apply_stiffness(triple, v)), v, rtol=1e-12)
    np.testing.assert_array_equal(apply_stiffness(triple, np.zeros(13)), np.zeros(13))


def test_riesz_eigen_relation():
    triple = build_triple(7)
    for k in range(7):
        q = triple.eigenvectors[:, k]
        np.testing.assert_allclose(
            apply_stiffness(triple, q), triple.eigenvalues[k] * q, atol=1e-9
        )


def test_riesz_consistency_random(rng):
    triple = build_triple(10)
    u = rng.standard_normal(10)
    v = rng.standard_normal(10)
    # <Kv, v> = (v,v)_V and (Ku, Kv)_{V*} = (u,v)_V
    assert triple.dx * (apply_stiffness(triple, v) @ v) == pytest.approx(
        inner_v(triple, v, v), rel=1e-12
    )
    assert inner_vstar(
        triple, apply_stiffness(triple, u), apply_stiffness(triple, v)
    ) == pytest.approx(inner_v(triple, u, v), rel=1e-12)


def test_inner_validation():
    """The two Riesz maps, on which the V and V* pairings rest, reject a wrong width."""
    triple = build_triple(4)
    with pytest.raises(ValidationError):
        apply_stiffness(triple, np.ones(3))
    with pytest.raises(ValidationError):
        solve_stiffness(triple, np.ones((2, 5)))


def test_build_triple_validation():
    for n_x in (0, 2.5, True):
        with pytest.raises(ValidationError):
            build_triple(n_x)


# -- evolutions -------------------------------------------------------------------


def test_forward_decay_matches_scalar_recursion():
    triple = build_triple(6)
    grid = make_time_grid(0.02, 15)
    k = 2
    q = triple.eigenvectors[:, k]
    out = evolve_forward(triple, grid, q)
    lam, tau = triple.eigenvalues[k], grid.tau
    for n in range(grid.node_count):
        np.testing.assert_allclose(out.values[n], (1 + tau * lam) ** (-n) * q, atol=1e-13)


def test_forward_zero():
    triple = build_triple(5)
    grid = make_time_grid(0.1, 8)
    out = evolve_forward(triple, grid, np.zeros(5))
    np.testing.assert_array_equal(out.values, 0.0)


def test_forward_steady_state_within_one_percent():
    triple = build_triple(6)
    k = 1
    lam = triple.eigenvalues[k]
    # pick T so that lam*T >= 10 and the discrete decay factor is below 1%
    horizon = 12.0 / lam
    grid = make_time_grid(horizon, 64)
    assert lam * horizon >= 10.0
    q = triple.eigenvectors[:, k]
    src = Trajectory(grid, np.tile(q, (grid.node_count, 1)), "dual_load")
    out = evolve_forward(triple, grid, np.zeros(6), src)
    target = q / lam
    assert np.max(np.abs(out.values[-1] - target)) <= 0.01 * np.max(np.abs(target))


def test_single_step_solve_accuracy(rng):
    triple = build_triple(30)
    grid = make_time_grid(0.1, 1)
    b = rng.standard_normal(30)
    src = Trajectory(grid, np.vstack([np.zeros(30), b]), "dual_load")
    v0 = rng.standard_normal(30)
    out = evolve_forward(triple, grid, v0, src)
    tau = grid.tau
    lhs = out.values[1] + tau * apply_stiffness(triple, out.values[1])
    rhs = v0 + tau * b
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(np.max(np.abs(rhs)), 1.0)


def test_backward_decay_matches_scalar_recursion():
    triple = build_triple(6)
    grid = make_time_grid(0.02, 15)
    k = 3
    q = triple.eigenvectors[:, k]
    out = evolve_backward(triple, grid, q)
    lam, tau, steps = triple.eigenvalues[k], grid.tau, grid.step_count
    for n in range(grid.node_count):
        np.testing.assert_allclose(out.values[n], (1 + tau * lam) ** (-(steps - n)) * q, atol=1e-13)


def test_backward_zero():
    triple = build_triple(5)
    grid = make_time_grid(0.1, 8)
    out = evolve_backward(triple, grid, np.zeros(5))
    np.testing.assert_array_equal(out.values, 0.0)


def test_forward_backward_duality_identity(rng):
    """Summation-by-parts pairing of the two evolutions, random data."""
    triple = build_triple(5)
    grid = make_time_grid(0.3, 6)
    tau, dx = grid.tau, triple.dx
    s = Trajectory(grid, rng.standard_normal((7, 5)), "dual_load")
    r = Trajectory(grid, rng.standard_normal((7, 5)), "dual_load")
    v0 = rng.standard_normal(5)
    pT = rng.standard_normal(5)
    v = evolve_forward(triple, grid, v0, s)
    p = evolve_backward(triple, grid, pT, r)
    lhs = dx * (v.values[-1] @ p.values[-1] - v.values[0] @ p.values[0])
    rhs = tau * dx * sum(
        s.values[n] @ p.values[n - 1] - v.values[n] @ r.values[n - 1]
        for n in range(1, grid.node_count)
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_evolutions_reject_a_bad_source():
    """Both evolutions take a source trajectory of the state width on their
    own grid: one on another grid with the same node count, one of another
    width and a bare array are refused."""
    triple = build_triple(5)
    grid = make_time_grid(0.3, 6)
    bad = (
        Trajectory(make_time_grid(0.6, 6), np.ones((7, 5)), "dual_load"),
        Trajectory(grid, np.ones((7, 4)), "dual_load"),
        np.ones((7, 5)),
    )
    for evolve in (evolve_forward, evolve_backward):
        for source in bad:
            with pytest.raises(ValidationError):
                evolve(triple, grid, np.zeros(5), source)


def test_evolutions_dense_transpose():
    """Dense block assembly: the backward solve is the forward solve's transpose.

    With zero initial/terminal data, probing source -> solution gives two
    N*n_x square matrices; reading the backward solution at the left nodes
    they must agree transposed (uniform tau*dx weights cancel).
    """
    triple = build_triple(4)
    grid = make_time_grid(0.2, 5)
    n, steps = 4, grid.step_count
    fwd = np.zeros((steps * n, steps * n))
    bwd = np.zeros((steps * n, steps * n))
    for i in range(steps * n):
        unit = np.zeros(steps * n).reshape(steps, n)
        unit.ravel()[i] = 1.0
        svals = np.vstack([np.zeros(n), unit])  # forward source at nodes 1..N
        out = evolve_forward(triple, grid, np.zeros(n), Trajectory(grid, svals, "dual_load"))
        fwd[:, i] = out.values[1:].ravel()
        rvals = np.vstack([unit, np.zeros(n)])  # backward source at nodes 0..N-1
        outb = evolve_backward(triple, grid, np.zeros(n), Trajectory(grid, rvals, "dual_load"))
        bwd[:, i] = outb.values[:-1].ravel()
    assert np.max(np.abs(bwd - fwd.T)) <= 1e-12 * np.max(np.abs(fwd))


def both_marches(triple, grid, steps):
    """(march, coords, no loads) of each kernel: march_modes, and march_nodes,
    whose start and loads are the nodal rows coords gives of modal ones.  No
    loads over all N steps are an empty load block marched for N steps, the
    one way either march takes to load nothing."""
    modal = partial(march_modes, march_tables(triple, grid))
    nodal = partial(march_nodes, resolvent_tables(triple, grid.tau), grid.tau)
    empty = (np.empty((0, triple.interior_points)), steps)
    return (modal, lambda c: c, empty), (nodal, partial(from_modes, triple), empty)


@pytest.mark.parametrize("n_x, steps", [(5, 1), (7, 2), (9, 6), (40, 300), (100, 100)])
def test_march_modes_matches_step_by_step_recursion(n_x, steps, rng):
    """Both marches, the blocked modal one and the nodal one, reproduce the
    march taken one step at a time: over all N load rows, over the first
    slab of them with the decay past it, and with no loads at all.  At
    (100, 100) the modal march takes a capped block and a remainder, and the
    decay past the slab crosses a block boundary.

    On the longest horizon the powers of the fastest decay factors fall far
    below the smallest normal double.
    """
    triple = build_triple(n_x)
    grid = make_time_grid(1.0, steps)
    denom = 1.0 + grid.tau * triple.eigenvalues
    start = rng.standard_normal(n_x)
    loads = rng.standard_normal((steps, n_x))
    slab = -(-steps // 3)
    want = np.empty((steps + 1, n_x))
    decay = np.empty((steps + 1, n_x))
    want[0] = decay[0] = start
    for k in range(1, steps + 1):
        want[k] = (want[k - 1] + grid.tau * loads[k - 1]) / denom
        decay[k] = decay[k - 1] / denom
    padded = np.concatenate((loads[:slab], np.zeros((steps - slab, n_x))))
    want_slab = step_by_step_march(triple, grid, start, padded)
    for march, coords, no_loads in both_marches(triple, grid, steps):
        for got, ref in (
            (march(coords(start), coords(loads)), coords(want)),
            (march(coords(start), coords(loads[:slab]), steps), coords(want_slab)),
        ):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        got = march(coords(start), *no_loads)
        if march.func is march_modes:  # every mode decays alone, to its own relative accuracy
            np.testing.assert_allclose(got, decay, rtol=1e-13, atol=1e-300)
        else:  # nodal rows mix the modes: each row to its own relative accuracy
            ref = coords(decay)
            assert np.all(np.max(np.abs(got - ref), axis=1) <= 1e-13 * np.max(np.abs(ref), axis=1))


@pytest.mark.parametrize("n_x, steps", [(100, 6), (1600, 8), (300, 5)])
def test_nodal_march_is_step_by_step_solve_resolvent(n_x, steps, rng):
    """march_nodes, which runs every step in one set of solve buffers, returns
    exactly the step-by-step recursion with a fresh solve_resolvent per step,
    over loaded steps and over the decay past the loads, for one-block tables
    (100 points) and tables with carries (1600 and 300 points)."""
    grid = make_time_grid(0.1, steps)
    tables = resolvent_tables(build_triple(n_x), grid.tau)
    assert (tables.matrix is not None) == (n_x <= 128)
    start, loads = rng.standard_normal(n_x), rng.standard_normal((steps, n_x))
    for loaded in (steps, 2, 0):
        want = np.empty((steps + 1, n_x))
        want[0] = start
        scaled = grid.tau * loads[:loaded]
        for k in range(1, steps + 1):
            want[k] = solve_resolvent(tables, want[k - 1] + scaled[k - 1] if k <= loaded else want[k - 1])
        assert np.array_equal(march_nodes(tables, grid.tau, start, loads[:loaded], steps), want)


@pytest.mark.parametrize("n_x, steps", [(1, 1), (5, 1), (30, 50), (9, 64), (100, 100)])
def test_march_tables_are_contiguous_blocks_of_the_multiplied_shape(n_x, steps):
    """B steps per block, at most min(N, cap), the longest with d^-B >= 1e-200."""
    triple = build_triple(n_x)
    grid = make_time_grid(0.5, steps)
    tables = march_tables(triple, grid)
    d = 1.0 + grid.tau * triple.eigenvalues
    length = tables.growth.shape[0]
    assert tables.growth.shape == (length, n_x) and tables.shrink.shape == (length + 1, n_x)
    assert np.array_equal(tables.prefix, np.tril(np.ones((length + 1, length + 1))))
    assert all(a.flags.c_contiguous for a in (tables.growth, tables.shrink, tables.prefix))
    # the range bound: the stiffest mode's shrink stays >= 1e-200, one more step would not
    cap = spaces._BLOCK_CAP
    assert 1 <= length <= min(steps, cap) and tables.shrink[-1, -1] >= 1e-200
    assert length == min(steps, cap) or d[-1] ** -(length + 1) < 1e-200
    assert np.all(tables.shrink[0] == 1.0)
    assert np.all(np.abs(tables.growth * tables.shrink[1:] * d / grid.tau - 1.0) <= 1e-14)
    np.testing.assert_allclose(tables.shrink[1:] * d, tables.shrink[:-1], rtol=1e-14)


@pytest.mark.parametrize("n_x, steps", [(5, 1), (30, 50), (100, 100), (40, 300)])
def test_march_modes_equals_row_broadcast_march(n_x, steps, rng):
    """Both marches agree with the step-by-step recursion from a start, from
    loads and from both; the modal march over one block and, at (100, 100)
    and (40, 300) by the cap, over several."""
    triple = build_triple(n_x)
    grid = make_time_grid(0.5, steps)
    start = rng.standard_normal(n_x)
    loads = rng.standard_normal((steps, n_x))
    assert (march_tables(triple, grid).growth.shape[0] < steps) == (steps > spaces._BLOCK_CAP)
    for march, coords, no_loads in both_marches(triple, grid, steps):
        for got, args in (
            (march(coords(start), coords(loads)), (start, loads)),
            (march(coords(start), *no_loads), (start, 0.0)),
            (march(0.0, coords(loads)), (0.0, loads)),
        ):
            want = coords(step_by_step_march(triple, grid, *args))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("horizon, length", [(1e-30, spaces._BLOCK_CAP), (2e200, 1)])
def test_march_block_length_at_the_extremes(horizon, length, rng):
    """A d that rounds to 1 gives the capped length; a d beyond 1e200 gives
    blocks of one step, which are the recursion itself."""
    triple = build_triple(5)
    grid = make_time_grid(horizon, 300)
    tables = march_tables(triple, grid)
    assert tables.growth.shape[0] == length
    start, loads = rng.standard_normal(5), rng.standard_normal((300, 5))
    got, want = march_modes(tables, start, loads), step_by_step_march(triple, grid, start, loads)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_march_modes_overflow_is_never_finite_and_wrong(rng):
    """Loads within the 1e100 headroom march to rounding; loads that overflow a
    scaled block give non-finite entries, and every finite entry is still right.
    The steps are long enough for the range bound, not the cap, to set B."""
    triple = build_triple(40)
    grid = make_time_grid(300.0, 300)
    tables = march_tables(triple, grid)
    assert tables.growth.shape[0] < spaces._BLOCK_CAP
    loads = rng.standard_normal((300, 40))
    want = step_by_step_march(triple, grid, 0.0, 1e100 * loads)
    got = march_modes(tables, 0.0, 1e100 * loads)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    want = step_by_step_march(triple, grid, 0.0, 1e200 * loads)
    with pytest.warns(RuntimeWarning):  # overflow, then 0 * inf in the product
        got = march_modes(tables, 0.0, 1e200 * loads)
    finite = np.isfinite(got)
    assert np.all(np.isfinite(want)) and not finite.all()
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-13 * np.max(np.abs(want)))


# -- the reduced resolvent (I + tau K)^-1 ---------------------------------------------


@pytest.mark.parametrize("n_x", [1, 2, 6, 30, 100, 128, 129, 300, 1600])
def test_resolvent_matches_dense_and_spectral_solves(n_x, rng):
    """The blocked Green's matrix applies (I + tau K)^-1 to rounding, for
    r = tau / dx^2 from 1e-8 to 1e10, to a vector and to a batch of rows."""
    triple = build_triple(n_x)
    for r in (1e-8, 1e-4, 1.0, 1e2, 1e4, 1e6, 1e8, 1e10):
        tau = r * triple.dx**2
        tables = resolvent_tables(triple, tau)
        x = rng.standard_normal((3, n_x))
        spectral = from_modes(triple, to_modes(triple, x) / (1.0 + tau * triple.eigenvalues))
        dense = refined_dense_solve(np.eye(n_x) + tau * triple.stiffness, x)
        for want in (dense, spectral):
            scale = np.max(np.abs(want))
            assert np.max(np.abs(solve_resolvent(tables, x) - want)) <= 1e-12 * scale, r
            assert np.max(np.abs(solve_resolvent(tables, x[1]) - want[1])) <= 1e-12 * scale, r


@pytest.mark.parametrize("n_x, count", [(1, 1), (100, 1), (128, 1), (129, 5), (300, 10), (1600, 50)])
def test_resolvent_blocks_are_exactly_symmetric(n_x, count):
    """One block up to 128 points, beyond ceil(n / 32) blocks of at most 32
    points, that cover the grid in order, the last one zero-padded; every
    diagonal block equals its transpose bit for bit, for I + tau K and for K,
    whose carries cross a block with no decay.  Beyond one block each block
    carries its weights as two extra columns."""
    triple = build_triple(n_x)
    for tables in (resolvent_tables(triple, 0.3), triple.green):
        blocks, length = tables.blocks, tables.blocks.shape[1]
        assert tables.points == n_x and len(blocks) == count
        assert length <= (128 if count == 1 else 32)
        assert (count - 1) * length < n_x <= count * length
        assert blocks.shape[2] == (length + 2 if count > 1 else length)
        for k, g in enumerate(blocks[:, :, :length]):
            m = min(length, n_x - k * length)  # the points of block k, the rest padding
            assert np.array_equal(g, g.T) and not np.any(g[m:])
        if count == 1:
            assert tables.decay is tables.weights is None and np.array_equal(tables.matrix, blocks[0])
        else:
            assert tables.matrix is None and tables.decay.shape == (2, count, count)
            assert np.array_equal(blocks[:, :, length:], tables.weights[:, ::-1].transpose(0, 2, 1))
    if count > 1:
        ones = np.ones((count, count))
        assert np.array_equal(tables.decay, [np.tril(ones, -1), np.triu(ones, 1)])


@pytest.mark.parametrize("n_x", [30, 300])
@pytest.mark.parametrize("tau", [0.0, 1e-30])
def test_resolvent_at_r_zero_is_exactly_the_identity(n_x, tau, rng):
    """Where rho rounds 1 - rho to 1 (log1p(-1) would be a domain error) the
    tables are those of the identity, with no warning and no NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tables = resolvent_tables(build_triple(n_x), tau)
        x = rng.standard_normal((2, n_x))
        assert np.array_equal(solve_resolvent(tables, x), x)
        assert np.array_equal(solve_resolvent(tables, x[0]), x[0])


@pytest.mark.parametrize("r", [1e-8, 1.0, 1e10, None])
def test_resolvent_tables_and_solve_raise_no_warning(r, rng):
    """At 1600 points (50 blocks of 32) building the tables and
    solving give no numpy warning, for I + tau K with r = tau / dx^2 from 1e-8
    to 1e10 (where the decay products underflow) and for K^-1 (r = None)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        triple = build_triple(1600)
        tables = triple.green if r is None else resolvent_tables(triple, r * triple.dx**2)
        x = rng.standard_normal((3, 1600))
        assert np.all(np.isfinite(solve_resolvent(tables, x)))
        assert np.all(np.isfinite(solve_resolvent(tables, x[0])))


@pytest.mark.parametrize("n_x", [30, 300, 1600])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_resolvent_non_finite_input_is_never_finite(n_x, bad, rng):
    """A NaN or inf anywhere in a row makes that row's solution non-finite, for
    I + tau K and for K; the other rows of the batch keep their values."""
    triple = build_triple(n_x)
    for tables in (*(resolvent_tables(triple, tau) for tau in (0.0, 1e-3, 1e3)), triple.green):
        x = rng.standard_normal((2, n_x))
        clean = solve_resolvent(tables, x)
        for where in (0, n_x // 2, n_x - 1):
            y = x.copy()
            y[1, where] = bad
            with np.errstate(invalid="ignore"):
                got, vector = solve_resolvent(tables, y), solve_resolvent(tables, y[1])
            assert not np.all(np.isfinite(got[1])) and not np.all(np.isfinite(vector))
            np.testing.assert_allclose(got[0], clean[0], rtol=0, atol=1e-15 * np.max(np.abs(clean)))


# -- the Riesz map K^-1 -------------------------------------------------------------


@pytest.mark.parametrize("n_x", [1, 2, 6, 30, 100, 128, 129, 300, 1600])
def test_stiffness_green_matches_dense_and_spectral_solves(n_x, rng):
    """The blocked Green's matrix of K, dx^2 min(i, j) (M - max(i, j)) / M,
    applies K^-1 to rounding, to a vector and to a batch of rows; solve_stiffness
    is that solve."""
    triple = build_triple(n_x)
    tables = triple.green
    x = rng.standard_normal((3, n_x))
    spectral = from_modes(triple, to_modes(triple, x) / triple.eigenvalues)
    for want in (refined_dense_solve(triple.stiffness, x), spectral):
        scale = np.max(np.abs(want))
        assert np.max(np.abs(solve_resolvent(tables, x) - want)) <= 1e-12 * scale
        assert np.max(np.abs(solve_resolvent(tables, x[1]) - want[1])) <= 1e-12 * scale
    assert np.array_equal(solve_stiffness(triple, x), solve_resolvent(tables, x))
    if n_x <= 128:  # one block: K^-1 itself
        i = np.arange(1, n_x + 1)
        exact = np.minimum.outer(i, i) * (n_x + 1 - np.maximum.outer(i, i)) / (n_x + 1)
        np.testing.assert_allclose(tables.blocks[0], triple.dx**2 * exact, rtol=1e-15, atol=0)


def test_green_tables_are_built_once_per_triple(monkeypatch, rng):
    """build_triple tabulates K's Green's matrix; the Riesz solve, the V*
    pairings and the all-at-once operator read the triple's tables and
    tabulate none of their own."""
    calls = []
    real = spaces._green_tables
    monkeypatch.setattr(spaces, "_green_tables", lambda *args: calls.append(args) or real(*args))
    triple = build_triple(30)
    assert len(calls) == 1
    grid = make_time_grid(0.1, 5)
    u = Trajectory(grid, rng.standard_normal((6, 30)), "state")
    solve_stiffness(triple, u.values)
    inner_dual_load(triple, u, u.copy())
    inner_state(triple, u, u.copy())
    op = aao.AllAtOnceOperator(problem.SemilinearDiffusion(triple), triple, grid)
    point = aao.AaoPoint(u, np.zeros(30))
    op.residual_norms(op.residual(point, u))
    assert len(calls) == 1


def test_reduced_imports_no_eigenbasis_function():
    """The reduced sweeps solve with the resolvent tables, never spectrally."""
    source = inspect.getsource(reduced)
    for name in ("to_modes", "from_modes", "solve_stiffness", "eigenvalues"):
        assert name not in source, name


# -- trajectory inner products -------------------------------------------------------


def test_inner_state_constant_in_time():
    triple = build_triple(6)
    grid = make_time_grid(0.4, 10)
    c = np.linspace(0.1, 0.9, 6)
    u = Trajectory(grid, np.tile(c, (grid.node_count, 1)), "state")
    expected = grid.horizon * inner_v(triple, c, c) + inner_h(triple, c, c)
    assert inner_state(triple, u, u) == pytest.approx(expected, rel=1e-12)


def test_inner_state_zero_and_positive(rng):
    triple = build_triple(5)
    grid = make_time_grid(0.2, 7)
    z = zero_trajectory(grid, 5)
    assert inner_state(triple, z, z) == 0.0
    u = Trajectory(grid, rng.standard_normal((8, 5)), "state")
    assert inner_state(triple, u, u) > 0.0


def test_inner_state_symmetric_bilinear(rng):
    triple = build_triple(5)
    grid = make_time_grid(0.2, 6)
    u = Trajectory(grid, rng.standard_normal((7, 5)), "state")
    v = Trajectory(grid, rng.standard_normal((7, 5)), "state")
    w = Trajectory(grid, rng.standard_normal((7, 5)), "state")
    assert inner_state(triple, u, v) == pytest.approx(inner_state(triple, v, u), rel=1e-12)
    combo = Trajectory(grid, 2.0 * v.values + 3.0 * w.values, "state")
    assert inner_state(triple, u, combo) == pytest.approx(
        2.0 * inner_state(triple, u, v) + 3.0 * inner_state(triple, u, w), rel=1e-12
    )


def test_trajectory_validation():
    grid = make_time_grid(0.1, 4)
    with pytest.raises(ValidationError):
        Trajectory(grid, np.zeros((4, 3)))  # wrong node count
    with pytest.raises(ValidationError):
        Trajectory(grid, np.zeros((5, 3)), "nonsense")
    other = make_time_grid(0.1, 5)
    triple = build_triple(3)
    with pytest.raises(ValidationError):
        inner_state(triple, Trajectory(grid, np.zeros((5, 3))), Trajectory(other, np.zeros((6, 3))))


def test_graph_rows_of_constant():
    """The graph rows the pairings below are checked against are K c for a constant c."""
    triple = build_triple(4)
    grid = make_time_grid(0.2, 5)
    c = np.array([1.0, -2.0, 0.5, 3.0])
    u = Trajectory(grid, np.tile(c, (6, 1)), "state")
    rows = dense_graph_rows(triple, u)
    np.testing.assert_allclose(rows, np.tile(c @ triple.stiffness, (5, 1)), rtol=1e-12)


def _batches(rng, n):
    """1-d, 2-d and 3-d blocks of width n, plus two non-contiguous views."""
    return [
        rng.standard_normal(n),
        rng.standard_normal((4, n)),
        rng.standard_normal((2, 3, n)),
        rng.standard_normal((3, 2 * n))[:, ::2],
        rng.standard_normal((n, 5)).T,
    ]


@pytest.mark.parametrize("n_x", [1, 2, 3, 30, 1600])
def test_stencil_matches_dense_stiffness(n_x, rng):
    """The stencil against the dense matrix; every row of a batch is, byte for
    byte, the one-row stencil of that row, which skips the row fix-ups."""
    triple = build_triple(n_x)
    a = triple.stiffness
    signed_zeros = rng.choice([0.0, -0.0, 1.0, -2.0], size=(3, n_x))
    for v in [*_batches(rng, n_x), signed_zeros]:
        ref = v @ a
        got = apply_stiffness(triple, v)
        assert got.shape == v.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        for row, got_row in zip(v.reshape(-1, n_x), got.reshape(-1, n_x)):
            assert apply_stiffness(triple, row).tobytes() == got_row.tobytes()


def test_stencil_does_not_touch_its_input(rng):
    triple = build_triple(6)
    v = rng.standard_normal((3, 6))
    kept = v.copy()
    apply_stiffness(triple, v)
    np.testing.assert_array_equal(v, kept)


def _dense_inner_state(triple, u, v):
    """The graph product from nodal graph rows and a Riesz solve."""
    bulk = np.sum(dense_graph_rows(triple, u) * solve_stiffness(triple, dense_graph_rows(triple, v)))
    return u.grid.tau * triple.dx * bulk + triple.dx * (u.values[0] @ v.values[0])


@pytest.mark.parametrize("n_x, n_t", [(1, 3), (7, 5), (40, 12)])
def test_modal_pairings_match_dense_formulas(n_x, n_t, rng):
    triple = build_triple(n_x)
    grid = make_time_grid(0.1, n_t)
    u = Trajectory(grid, rng.standard_normal((n_t + 1, n_x)), "state")
    v = Trajectory(grid, rng.standard_normal((n_t + 1, n_x)), "state")
    for a, b in ((u, v), (u, u), (v, u)):
        ref = _dense_inner_state(triple, a, b)
        assert inner_state(triple, a, b) == pytest.approx(ref, rel=1e-12)
        dual = grid.tau * triple.dx * np.sum(a.values[1:] * solve_stiffness(triple, b.values[1:]))
        assert inner_dual_load(triple, a, b) == pytest.approx(dual, rel=1e-12)
    # the self-pairing shortcut gives what two distinct but equal objects give
    assert inner_state(triple, u, u) == inner_state(triple, u, u.copy())
    assert norm_dual_load(triple, u) ** 2 == pytest.approx(
        grid.tau * triple.dx * np.sum(u.values[1:] * solve_stiffness(triple, u.values[1:])),
        rel=1e-12,
    )
    a, b = u.values[2], v.values[2]
    assert inner_vstar(triple, a, b) == pytest.approx(
        triple.dx * (a @ solve_stiffness(triple, b)), rel=1e-12
    )
    assert inner_v(triple, a, b) == pytest.approx(triple.dx * (a @ triple.stiffness @ b), rel=1e-12)
    l2v = grid.tau * triple.dx * np.sum(u.values[1:] * (u.values[1:] @ triple.stiffness))
    assert norm_l2_v(triple, grid.tau, u.values[1:]) ** 2 == pytest.approx(l2v, rel=1e-12)


@pytest.mark.parametrize("n_x", [896, 1600])
def test_nodal_state_pairing_matches_refined_dense_pairing(n_x):
    """The nodal graph product agrees with the refined dense solve of the whole
    graph rows, to 1e-13 at N = 8 over five seeds, for (a, b) and (a, a).  The
    rows hold K u, and a Green's solve of them cancels K^-1 K u in rounding, up
    to 2.1e-12 relative at n = 896."""
    triple = build_triple(n_x)
    grid = make_time_grid(0.1, 8)
    draws = [np.random.default_rng(seed).standard_normal((2, 9, n_x)) for seed in range(5)]
    states = [[Trajectory(grid, u, "state") for u in pair] for pair in draws]
    rows = [[dense_graph_rows(triple, u) for u in pair] for pair in states]
    # one refined solve for every seed's a: each solve refactors the dense K
    riesz = refined_dense_solve(triple.stiffness, np.concatenate([g[0] for g in rows]))
    for seed, ((a, b), graph) in enumerate(zip(states, rows)):
        for other, other_rows in ((b, graph[1]), (a, graph[0])):
            pairing = np.sum(riesz[8 * seed : 8 * seed + 8] * other_rows)
            want = grid.tau * triple.dx * pairing + triple.dx * (a.values[0] @ other.values[0])
            got = inner_state(triple, a, other)
            assert abs(got - want) <= 1e-13 * abs(want), seed


def test_triple_stores_no_dense_stiffness():
    """No n x n array until the eigenbasis is read, then exactly one, the
    basis, kept for every later read; K^-1 is kept as the blocks of ``green``
    and the stiffness is built on demand."""
    triple = build_triple(50)

    def square():
        return [f for f in vars(triple).values() if isinstance(f, np.ndarray) and f.ndim == 2]

    assert square() == []
    q = triple.eigenvectors
    assert len(square()) == 1 and square()[0] is q and triple.eigenvectors is q


def test_only_spaces_applies_the_eigenbasis():
    """Every other module changes basis through spaces.to_modes and
    spaces.from_modes and never reads the basis itself."""
    for module in (aao, methods, reduced, harness, problem):
        assert "eigenvectors" not in inspect.getsource(module), module.__name__
