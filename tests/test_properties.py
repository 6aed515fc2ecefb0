"""Property tests of the spatial kernels over small random sizes and batch shapes."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dyninv.grids import make_time_grid  # noqa: E402
from dyninv.spaces import (  # noqa: E402
    Trajectory,
    apply_stiffness,
    build_triple,
    graph_rows,
    inner_state,
    solve_stiffness,
)

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
@given(n_x=sizes, n_t=st.integers(min_value=1, max_value=8), seed=seeds)
def test_inner_state_symmetric_and_equal_to_dense_formula(n_x, n_t, seed):
    triple = build_triple(n_x)
    grid = make_time_grid(0.1, n_t)
    rng = np.random.default_rng(seed)
    u = Trajectory(grid, rng.standard_normal((n_t + 1, n_x)), "state")
    v = Trajectory(grid, rng.standard_normal((n_t + 1, n_x)), "state")
    dense = grid.tau * triple.dx * np.sum(
        graph_rows(triple, u) * solve_stiffness(triple, graph_rows(triple, v))
    ) + triple.dx * (u.values[0] @ v.values[0])
    uv, vu = inner_state(triple, u, v), inner_state(triple, v, u)
    scale = np.sqrt(inner_state(triple, u, u) * inner_state(triple, v, v))
    assert abs(uv - vu) <= 1e-14 * scale
    assert abs(uv - dense) <= 1e-12 * scale
