import math

import numpy as np
import pytest

from dyninv.errors import ValidationError
from dyninv.grids import make_partition, make_time_grid


def test_benchmark_grid_nodes():
    grid = make_time_grid(0.1, 100)
    assert grid.node_count == 101
    np.testing.assert_allclose(grid.tau, 1e-3, rtol=1e-12)


def test_step_exact_within_one_ulp():
    grid = make_time_grid(0.1, 100)
    assert abs(grid.tau - 1e-3) <= math.ulp(1e-3)


def test_minimal_grid():
    grid = make_time_grid(1.0, 1)
    assert (grid.node_count, grid.tau) == (2, 1.0)


def test_grid_validation():
    with pytest.raises(ValidationError):
        make_time_grid(0.0, 10)
    with pytest.raises(ValidationError):
        make_time_grid(-1.0, 10)
    with pytest.raises(ValidationError):
        make_time_grid(1.0, 0)
    with pytest.raises(ValidationError):
        make_time_grid(math.inf, 10)  # an infinite tau would make the truth march diverge
    # a count is an integer, checked rather than truncated; a bool is not a count
    for count in (6.9, 2.0, True, np.bool_(True)):
        with pytest.raises(ValidationError):
            make_time_grid(1.0, count)
    for count in (2.7, 2.0, True):
        with pytest.raises(ValidationError):
            make_partition(make_time_grid(1.0, 4), count)
    assert make_partition(make_time_grid(1.0, np.int64(4)), np.int64(2)).nodes_per_slab == 2


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


def test_restrict_reads_the_rows_of_nodes_0_to_n_only():
    """P_j keeps slab j's weighted nodes of node rows 0..N, the P_j sum to the
    identity on nodes 1..N, and any other row count is rejected."""
    grid = make_time_grid(1.0, 6)
    part = make_partition(grid, 3)
    values = np.arange(1.0, 15.0).reshape(7, 2)
    parts = [part.restrict(values, j) for j in range(3)]
    assert np.array_equal(parts[1][3:5], values[3:5]) and not parts[1][:3].any() and not parts[1][5:].any()
    assert np.array_equal(sum(parts)[1:], values[1:]) and not sum(parts)[0].any()
    for rows in (6, 8):
        with pytest.raises(ValidationError):
            part.restrict(np.ones((rows, 2)), 0)
