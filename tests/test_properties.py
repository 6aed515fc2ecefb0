"""Property tests over small random sizes: the spatial kernels, the slab
operators and the config file's round trip."""

from dataclasses import fields, is_dataclass

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dyninv.aao import AaoPoint, AllAtOnceOperator, ResidualTriple  # noqa: E402
from dyninv.errors import ValidationError  # noqa: E402
from dyninv.grids import make_partition, make_time_grid  # noqa: E402
from dyninv.harness import ExperimentConfig, make_instance  # noqa: E402
from dyninv.methods import METHOD_TAGS, MethodConfig, _joint_maps  # noqa: E402
from dyninv.reduced import POLICIES, ReducedOperator  # noqa: E402
from dyninv.spaces import (  # noqa: E402
    Trajectory,
    apply_stiffness,
    build_triple,
    from_modes,
    inner_observation,
    inner_state,
    march_modes,
    march_tables,
    resolvent_tables,
    solve_resolvent,
    solve_stiffness,
    to_modes,
)

from conftest import dense_graph_rows, positive_theta, step_by_step_march  # noqa: E402

SMALL = settings(max_examples=60, deadline=None)
sizes = st.integers(min_value=1, max_value=12)
batch_shapes = st.lists(st.integers(min_value=0, max_value=4), max_size=2).map(tuple)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@SMALL
@given(n_x=sizes, batch=batch_shapes, seed=seeds, strided=st.booleans())
def test_stencil_equals_dense_product(n_x, batch, seed, strided):
    triple = build_triple(n_x)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(batch + (2 * n_x if strided else n_x,))
    if strided:
        v = v[..., ::2]
    ref = v @ triple.stiffness
    got = apply_stiffness(triple, v)
    assert got.shape == v.shape
    assert np.all(np.abs(got - ref) <= 1e-12 * max(np.max(np.abs(ref), initial=0.0), 1e-300))


@SMALL
@given(n_x=sizes, n_t=st.integers(min_value=1, max_value=70), seed=seeds,
       horizon=st.floats(min_value=1e-3, max_value=10.0))
def test_march_modes_equals_row_broadcast_march(n_x, n_t, seed, horizon):
    """The blocked march agrees with the march taken one step at a time."""
    triple = build_triple(n_x)
    grid = make_time_grid(horizon, n_t)
    rng = np.random.default_rng(seed)
    start, loads = rng.standard_normal(n_x), rng.standard_normal((n_t, n_x))
    got = march_modes(march_tables(triple, grid), start, loads)
    want = step_by_step_march(triple, grid, start, loads)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@SMALL
@given(n_x=st.integers(min_value=1, max_value=40), n_t=st.integers(min_value=129, max_value=300),
       seed=seeds, horizon=st.floats(min_value=1e-3, max_value=10.0))
def test_march_modes_across_blocks_equals_step_by_step_march(n_x, n_t, seed, horizon):
    """Over more than 128 steps, or stiff enough for the range bound, the march
    takes several blocks and still agrees with the march taken one step at a time.
    So does a march over fewer loads than the grid has steps, the count read from
    the loads: below the block length B, equal to it and across blocks."""
    triple = build_triple(n_x)
    grid = make_time_grid(horizon, n_t)
    tables = march_tables(triple, grid)
    length = tables.growth.shape[0]
    assert length < n_t
    rng = np.random.default_rng(seed)
    start, loads = rng.standard_normal(n_x), rng.standard_normal((n_t, n_x))
    want = step_by_step_march(triple, grid, start, loads)
    for steps in (max(1, length // 2), length, length + 1, n_t):
        got = march_modes(tables, start, loads[:steps])
        assert got.shape == (steps + 1, n_x)
        assert np.max(np.abs(got - want[: steps + 1])) <= 1e-13 * np.max(np.abs(want[: steps + 1]))


@SMALL
@given(n_x=st.integers(min_value=1, max_value=300), batch=batch_shapes, seed=seeds,
       log_r=st.floats(min_value=-8.0, max_value=10.0))
def test_resolvent_equals_spectral_solve(n_x, batch, seed, log_r):
    """The blocked Green's matrix, over one to ten blocks, solves with
    I + tau K as the eigenbasis does, for r = tau / dx^2 in [1e-8, 1e10]."""
    triple = build_triple(n_x)
    tau = 10.0**log_r * triple.dx**2
    tables = resolvent_tables(triple, tau)
    assert len(tables.blocks) == (1 if n_x <= 128 else -(-n_x // 32))
    x = np.random.default_rng(seed).standard_normal(batch + (n_x,))
    got = solve_resolvent(tables, x)
    want = from_modes(triple, to_modes(triple, x) / (1.0 + tau * triple.eigenvalues))
    assert got.shape == x.shape
    assert np.all(np.abs(got - want) <= 1e-12 * max(np.max(np.abs(want), initial=0.0), 1e-300))


@SMALL
@given(n_x=st.integers(min_value=1, max_value=300), batch=batch_shapes, seed=seeds)
def test_stiffness_green_equals_spectral_solve(n_x, batch, seed):
    """The blocked Green's matrix of K, over one to ten blocks, applies K^-1
    as the eigenbasis does."""
    triple = build_triple(n_x)
    tables = triple.green
    assert len(tables.blocks) == (1 if n_x <= 128 else -(-n_x // 32))
    x = np.random.default_rng(seed).standard_normal(batch + (n_x,))
    got = solve_resolvent(tables, x)
    want = from_modes(triple, to_modes(triple, x) / triple.eigenvalues)
    assert got.shape == x.shape
    assert np.all(np.abs(got - want) <= 1e-12 * max(np.max(np.abs(want), initial=0.0), 1e-300))


@SMALL
@given(n_x=sizes, n_t=st.integers(min_value=1, max_value=8), seed=seeds)
def test_inner_state_symmetric_and_equal_to_dense_formula(n_x, n_t, seed):
    triple = build_triple(n_x)
    grid = make_time_grid(0.1, n_t)
    rng = np.random.default_rng(seed)
    u = Trajectory(grid, rng.standard_normal((n_t + 1, n_x)), "state")
    v = Trajectory(grid, rng.standard_normal((n_t + 1, n_x)), "state")
    dense = grid.tau * triple.dx * np.sum(
        dense_graph_rows(triple, u) * solve_stiffness(triple, dense_graph_rows(triple, v))
    ) + triple.dx * (u.values[0] @ v.values[0])
    uv, vu = inner_state(triple, u, v), inner_state(triple, v, u)
    scale = np.sqrt(inner_state(triple, u, u) * inner_state(triple, v, v))
    assert abs(uv - vu) <= 1e-14 * scale
    assert abs(uv - dense) <= 1e-12 * scale


@st.composite
def slab_cases(draw):
    """(n_x <= 8, N <= 12, m | N, gain, policy)."""
    n_t = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.sampled_from([d for d in range(1, n_t + 1) if n_t % d == 0]))
    gain = draw(st.floats(min_value=0.5, max_value=20.0))
    n_x = draw(st.integers(min_value=1, max_value=8))
    return n_x, n_t, m, gain, draw(st.sampled_from(["imex", "newton"]))


def _trajectory(rng, grid, n_x, tag):
    return Trajectory(grid, rng.standard_normal((grid.node_count, n_x)), tag)


def _check_slabs(full, slabs, m1, pairs):
    """Slab adjoints sum to the full one, each satisfies its dot-product
    identity, and the single slab of m = 1 is the full adjoint exactly."""
    total = sum(slabs)
    assert np.max(np.abs(total - full)) <= 1e-12 * np.max(np.abs(full))
    for lhs, rhs in pairs:
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-300)
    assert np.array_equal(m1, full)


@settings(max_examples=25, deadline=None)
@given(case=slab_cases(), seed=seeds)
def test_slab_adjoints_are_restricted_full_adjoints(case, seed):
    n_x, n_t, m, gain, policy = case
    inst = make_instance(n_x, n_t, 0.1, gain, m=m, policy=policy)
    grid, triple, problem = inst.grid, inst.triple, inst.problem
    one = make_partition(grid, 1)
    rng = np.random.default_rng(seed)

    op = inst.aao
    point = AaoPoint(_trajectory(rng, grid, n_x, "state"), rng.standard_normal(n_x))
    resid = ResidualTriple(
        _trajectory(rng, grid, n_x, "dual_load"),
        rng.standard_normal(n_x),
        _trajectory(rng, grid, n_x, "observation"),
    )
    dstate, dtheta = _trajectory(rng, grid, n_x, "state"), rng.standard_normal(n_x)

    def flat(direction):
        return np.concatenate([direction[0].values.ravel(), direction[1]])

    slabs, pairs = [], []
    for j in range(m):
        adj = op.slab_adjoint(point, j, resid)
        slabs.append(flat(adj))
        lhs = op.inner_residual(op.slab_derivative(point, j, dstate, dtheta), resid)
        pairs.append((lhs, inner_state(triple, dstate, adj[0]) + problem.inner_theta(dtheta, adj[1])))
    m1 = AllAtOnceOperator(problem, triple, grid, one).slab_adjoint(point, 0, resid)
    _check_slabs(flat(op.adjoint(point, resid)), slabs, flat(m1), pairs)

    red = inst.reduced
    theta = positive_theta(triple)
    state = red.solve_state(theta)
    z, xi = _trajectory(rng, grid, n_x, "observation"), rng.standard_normal(n_x)
    slabs, pairs = [], []
    for j in range(m):
        slabs.append(red.slab_adjoint(theta, state, z, j))
        lhs = inner_observation(triple, red.slab_derivative(theta, state, xi, j), z)
        pairs.append((lhs, problem.inner_theta(xi, slabs[-1])))
    m1 = ReducedOperator(problem, triple, grid, one, policy=policy).slab_adjoint(theta, state, z, 0)
    _check_slabs(red.adjoint(theta, state, z), slabs, m1, pairs)


@SMALL
@given(n_x=sizes, n_t=st.integers(min_value=1, max_value=30), seed=seeds)
def test_modal_joint_inner_equals_nodal_inner(n_x, n_t, seed):
    """The joint CG's inner product on modal state coefficients is the graph
    product of the nodal states plus the parameter product."""
    inst = make_instance(n_x, n_t, 0.1, 10.0)
    grid, triple, problem = inst.grid, inst.triple, inst.problem
    rng = np.random.default_rng(seed)
    point = AaoPoint(_trajectory(rng, grid, n_x, "state"), rng.standard_normal(n_x))
    _, _, pair_inner = _joint_maps(inst.aao, point)
    q = triple.eigenvectors
    (ua, ta), (ub, tb) = [(_trajectory(rng, grid, n_x, "state"), rng.standard_normal(n_x)) for _ in "ab"]
    a, b = (np.concatenate([(u.values @ q).ravel(), t]) for u, t in ((ua, ta), (ub, tb)))

    def nodal(u, s, v, t):
        return inner_state(triple, u, v) + problem.inner_theta(s, t)

    aa, bb = nodal(ua, ta, ua, ta), nodal(ub, tb, ub, tb)
    assert abs(pair_inner(a, a) - aa) <= 1e-13 * aa
    assert abs(pair_inner(a, b) - nodal(ua, ta, ub, tb)) <= 1e-13 * np.sqrt(aa * bb)


# -- the config file's round trip -----------------------------------------------------


def _with_numpy_twin(strategy):
    """Values of ``strategy``, each also as the numpy scalar of its kind where one holds it:
    an integer beyond int64 comes only as a Python int."""
    twin = {bool: np.bool_, int: np.int64, float: np.float64, str: np.str_}

    def both(x):
        if type(x) is int and not -(2**63) <= x < 2**63:
            return st.just(x)
        return st.sampled_from([x, twin[type(x)](x)])

    return strategy.flatmap(both)


def _reals(lo, hi):
    return _with_numpy_twin(st.floats(lo, hi)) | st.floats(lo, hi).map(np.float32)


def _counts(lo, hi):
    return _with_numpy_twin(st.integers(lo, hi))


def _array(shape):
    """None, or finite entries as a flat list, an array of ``shape`` or nested lists of it."""
    size = int(np.prod(shape))
    values = st.lists(st.floats(-10, 10), min_size=size, max_size=size)
    return st.none() | values.flatmap(
        lambda v: st.sampled_from([v, np.reshape(v, shape), np.reshape(v, shape).tolist()])
    )


# a value of the wrong kind or out of range, for any field
JUNK = st.one_of(
    st.none(), _with_numpy_twin(st.booleans()), _with_numpy_twin(st.integers()),
    _with_numpy_twin(st.floats()), _with_numpy_twin(st.text(max_size=3)),
    st.sampled_from(["rLW", "norm", "imex", "sine", "0.5", "8"]), st.lists(st.floats(), max_size=3),
    st.lists(st.booleans() | st.text(max_size=1), min_size=2, max_size=2),
)

EXPERIMENT_VALUES = {
    "n_x": _counts(1, 40), "n_t": _counts(1, 40), "horizon": _reals(1e-3, 10.0), "gain": _reals(-20.0, 20.0),
    "truth_kind": _with_numpy_twin(st.just("sine")), "truth_amplitude": _reals(-1.0, 1.0),
    "delta_w": _reals(0.0, 1.0), "delta_z": _reals(0.0, 1.0), "seed": _counts(0, 2**40),
    "output_dir": _with_numpy_twin(st.text(max_size=8)),
    "policy": _with_numpy_twin(st.sampled_from(POLICIES)),
    "start_at_truth": _with_numpy_twin(st.booleans()),
}
# read with ExperimentConfig(n_x=2, n_t=2), so that the priors are small and m divides n_t
METHOD_VALUES = {
    "tag": _with_numpy_twin(st.sampled_from(METHOD_TAGS)), "mu": _reals(1e-3, 10.0),
    "stepsize": _with_numpy_twin(st.sampled_from(["fixed", "norm"])), "alpha0": _reals(1e-3, 10.0),
    "q": _reals(0.01, 0.99), "tau_disc": _reals(1.01, 5.0), "k_max": _counts(0, 1000), "m": _counts(1, 2),
    "cg_tol": _reals(1e-12, 1.0), "cg_max": _counts(1, 1000), "k_apriori": st.none() | _counts(0, 100),
    "prior_theta": _array((2,)), "prior_state": _array((3, 2)),
}


@st.composite
def _config_fields(draw, values):
    """Some fields with values of their kind, and sometimes one field with junk."""
    kw = draw(st.fixed_dictionaries({}, optional=values))
    if draw(st.booleans()):
        kw[draw(st.sampled_from(sorted(values)))] = draw(JUNK)
    return kw


def _assert_same_config(got, want):
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if is_dataclass(b):
            _assert_same_config(a, b)
        elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def _assert_round_trip_or_rejected(build):
    try:
        config = build()
    except ValidationError:
        return
    _assert_same_config(ExperimentConfig.from_dict(config.to_dict()), config)


ROUND_TRIPS = settings(max_examples=300, deadline=None)


@ROUND_TRIPS
@given(kw=_config_fields(EXPERIMENT_VALUES))
def test_experiment_config_round_trips_or_is_rejected(kw):
    """Either ExperimentConfig rejects its fields, or its config file loads back as itself."""
    _assert_round_trip_or_rejected(lambda: ExperimentConfig(**kw))


@ROUND_TRIPS
@given(kw=_config_fields(METHOD_VALUES))
def test_method_config_round_trips_or_is_rejected(kw):
    """Either MethodConfig (or the experiment around it) rejects its fields, or
    the experiment's config file loads back as itself."""
    _assert_round_trip_or_rejected(lambda: ExperimentConfig(n_x=2, n_t=2, method=MethodConfig(**kw)))
