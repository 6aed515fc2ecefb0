import math

import numpy as np
import pytest

from dyninv.errors import ValidationError
from dyninv.grids import make_partition, make_time_grid


def test_benchmark_grid_nodes():
    grid = make_time_grid(0.1, 100)
    nodes = grid.nodes()
    assert nodes.shape == (101,)
    assert nodes[0] == 0.0
    assert nodes[-1] == 0.1
    np.testing.assert_allclose(nodes[1], 1e-3, rtol=1e-12)
    assert np.all(np.diff(nodes) > 0)


def test_step_exact_within_one_ulp():
    grid = make_time_grid(0.1, 100)
    assert abs(grid.tau - 1e-3) <= math.ulp(1e-3)


def test_minimal_grid():
    grid = make_time_grid(1.0, 1)
    np.testing.assert_array_equal(grid.nodes(), [0.0, 1.0])


def test_grid_validation():
    with pytest.raises(ValidationError):
        make_time_grid(0.0, 10)
    with pytest.raises(ValidationError):
        make_time_grid(-1.0, 10)
    with pytest.raises(ValidationError):
        make_time_grid(1.0, 0)


def test_trivial_partition():
    grid = make_time_grid(0.1, 100)
    part = make_partition(grid, 1)
    assert part.node_range(0) == (0, 100)


def test_partition_divisibility_rejected():
    grid = make_time_grid(0.1, 100)
    with pytest.raises(ValidationError):
        make_partition(grid, 3)


def test_slab_index_cycles():
    grid = make_time_grid(1.0, 12)
    part = make_partition(grid, 4)
    for k in range(40):
        j = part.slab_index(k)
        assert 0 <= j < 4
        assert part.slab_index(k + 4) == j


def test_slab_cover_overlaps_only_at_breakpoints():
    grid = make_time_grid(1.0, 12)
    part = make_partition(grid, 3)
    covered = np.zeros(grid.node_count, dtype=int)
    for j in range(3):
        lo, hi = part.node_range(j)
        covered[lo : hi + 1] += 1
    assert covered[0] == 1 and covered[-1] == 1
    # interior breakpoints are shared by two slabs, all other nodes by one
    interior_breaks = [part.node_range(j)[0] for j in range(1, 3)]
    for n in range(grid.node_count):
        assert covered[n] == (2 if n in interior_breaks else 1)


def test_weighted_nodes_partition_interior():
    grid = make_time_grid(1.0, 12)
    part = make_partition(grid, 4)
    seen = np.zeros(grid.node_count, dtype=int)
    for j in range(4):
        seen[part.weighted_nodes(j)] += 1
    assert seen[0] == 0
    assert np.all(seen[1:] == 1)


def test_slab_range_check():
    part = make_partition(make_time_grid(1.0, 4), 2)
    with pytest.raises(ValidationError):
        part.node_range(2)
