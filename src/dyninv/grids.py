"""Uniform time grids on (0, T) and node-aligned partitions for cyclic sweeps."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_count


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with nodes t_n = n * tau for n = 0..step_count."""

    horizon: float
    step_count: int

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValidationError(f"horizon must be finite and positive, got {self.horizon}")
        require_count(self.step_count, "step_count")

    @property
    def tau(self) -> float:
        return self.horizon / self.step_count

    @property
    def node_count(self) -> int:
        return self.step_count + 1


def make_time_grid(horizon: float, step_count: int) -> TimeGrid:
    """Build a uniform grid on (0, horizon) with step_count steps; the count is checked, not truncated."""
    return TimeGrid(float(horizon), step_count)


@dataclass(frozen=True)
class KaczmarzPartition:
    """Uniform split of a time grid into slabs whose breakpoints sit on grid nodes.

    Slab j covers nodes [j*N/m, (j+1)*N/m]; adjacent slabs share their
    breakpoint node.  The cyclic slab index for iteration k is k mod m.
    """

    grid: TimeGrid
    slab_count: int

    def __post_init__(self):
        require_count(self.slab_count, "slab_count")
        if self.grid.step_count % self.slab_count != 0:
            raise ValidationError(
                f"slab_count {self.slab_count} does not divide "
                f"step_count {self.grid.step_count}; breakpoints must land on nodes"
            )

    @property
    def nodes_per_slab(self) -> int:
        return self.grid.step_count // self.slab_count

    def slab_index(self, k: int) -> int:
        return k % self.slab_count

    def node_range(self, j: int) -> tuple[int, int]:
        """Inclusive node span [lo, hi] covered by slab j."""
        self._check(j)
        step = self.nodes_per_slab
        return j * step, (j + 1) * step

    def weighted_nodes(self, j: int) -> slice:
        """Nodes of slab j that carry quadrature weight (right endpoints)."""
        lo, hi = self.node_range(j)
        return slice(lo + 1, hi + 1)

    def restrict(self, values: np.ndarray, j: int) -> np.ndarray:
        """P_j: the rows of nodes 0..N kept on the weighted nodes of slab j, zero
        elsewhere.  P_j is self-adjoint and idempotent under every time-row
        quadrature, and the P_j of all slabs sum to the identity on nodes 1..N.
        """
        if values.shape[0] != self.grid.node_count:
            raise ValidationError(
                f"{values.shape[0]} rows are not nodes 0..N of a grid with {self.grid.node_count} nodes"
            )
        nodes = self.weighted_nodes(j)
        out = np.zeros_like(values)
        out[nodes] = values[nodes]
        return out

    def _check(self, j: int):
        if not 0 <= j < self.slab_count:
            raise ValidationError(f"slab index {j} out of range [0, {self.slab_count})")


def require_partition(partition: KaczmarzPartition | None) -> KaczmarzPartition:
    """The partition of a slab operator; an operator built without one has no slabs."""
    if partition is None:
        raise ValidationError("operator was built without a partition")
    return partition


def make_partition(grid: TimeGrid, slab_count: int) -> KaczmarzPartition:
    """Split the horizon into slab_count node-aligned uniform slabs; the count is checked, not truncated."""
    return KaczmarzPartition(grid, slab_count)
