"""Discrete Gelfand triple on (0,1) with Dirichlet ends, and the basic evolutions.

Everything (including dual-space elements) lives in nodal coordinates; dual
pairings are realized through the measure-weighted dot product
``<w, v> = dx * w @ v``.  The stiffness operator plays the role of the Riesz
map V -> V*, its inverse (applied spectrally) the inverse map.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grids import TimeGrid

TRAJECTORY_TAGS = ("state", "dual_load", "observation", "pointwise_H")


@dataclass(frozen=True)
class DiscreteGelfandTriple:
    """Nodal discretisation of V = H^1_0(0,1), H = L2(0,1), V* = H^-1(0,1).

    The stiffness matrix is the standard (2, -1, -1)/dx^2 tridiagonal; its
    eigendecomposition is computed once and reused for every fast solve.
    """

    interior_points: int
    dx: float
    stiffness: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def build_triple(n_x: int) -> DiscreteGelfandTriple:
    """Assemble and eigendecompose the Dirichlet stiffness operator once."""
    if n_x < 1:
        raise ValidationError(f"need at least one interior point, got {n_x}")
    dx = 1.0 / (n_x + 1)
    a = (
        2.0 * np.eye(n_x)
        - np.eye(n_x, k=1)
        - np.eye(n_x, k=-1)
    ) / dx**2
    lam, q = np.linalg.eigh(a)
    return DiscreteGelfandTriple(n_x, dx, a, lam, q)


def _check_width(triple: DiscreteGelfandTriple, v: np.ndarray, name: str = "vector"):
    if v.shape[-1] != triple.interior_points:
        raise ValidationError(
            f"{name} has width {v.shape[-1]}, expected {triple.interior_points}"
        )


def apply_stiffness(triple: DiscreteGelfandTriple, v: np.ndarray) -> np.ndarray:
    """Riesz map V -> V*: multiply by the stiffness operator (batched)."""
    _check_width(triple, np.asarray(v))
    return np.asarray(v) @ triple.stiffness


def solve_stiffness(triple: DiscreteGelfandTriple, w: np.ndarray) -> np.ndarray:
    """Riesz map V* -> V: spectral solve with the stiffness operator (batched)."""
    w = np.asarray(w)
    _check_width(triple, w)
    return ((w @ triple.eigenvectors) / triple.eigenvalues) @ triple.eigenvectors.T


def inner(triple: DiscreteGelfandTriple, which: str, a: np.ndarray, b: np.ndarray) -> float:
    """Spatial inner product: 'H', 'V' or 'Vstar'."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_width(triple, a, "first argument")
    _check_width(triple, b, "second argument")
    if which == "H":
        return triple.dx * float(a @ b)
    if which == "V":
        return triple.dx * float(a @ (triple.stiffness @ b))
    if which == "Vstar":
        return triple.dx * float(a @ solve_stiffness(triple, b))
    raise ValidationError(f"unknown inner product tag {which!r}")


@dataclass
class Trajectory:
    """Time-node-indexed family of nodal vectors, shape (node_count, width).

    The tag records which norm applies: 'state' uses the graph inner product,
    'dual_load' the V*-valued L2 quadrature, 'observation' the H-valued one.
    """

    grid: TimeGrid
    values: np.ndarray
    space_tag: str = "state"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValidationError(f"trajectory values must be 2-d, got shape {values.shape}")
        if values.shape[0] != self.grid.node_count:
            raise ValidationError(
                f"trajectory holds {values.shape[0]} nodes, grid has {self.grid.node_count}"
            )
        if self.space_tag not in TRAJECTORY_TAGS:
            raise ValidationError(f"unknown trajectory tag {self.space_tag!r}")
        object.__setattr__(self, "values", values)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def copy(self) -> "Trajectory":
        return Trajectory(self.grid, self.values.copy(), self.space_tag)


def zero_trajectory(grid: TimeGrid, width: int, space_tag: str = "state") -> Trajectory:
    return Trajectory(grid, np.zeros((grid.node_count, width)), space_tag)


def _same_grid(a: Trajectory, b: Trajectory):
    if a.grid != b.grid:
        raise ValidationError("trajectories live on different grids")


def evolve_forward(
    triple: DiscreteGelfandTriple,
    grid: TimeGrid,
    v0: np.ndarray,
    source: Trajectory | None = None,
) -> Trajectory:
    """Implicit-Euler solve of v' + K v = s with K the stiffness operator.

    One step reads (I + tau*K) v^{n+1} = v^n + tau * s^{n+1}; the source is
    sampled at the right endpoint of each step (its node-0 value is unused).
    """
    v0 = np.asarray(v0, dtype=float)
    _check_width(triple, v0, "initial value")
    q = triple.eigenvectors
    loads = 0.0
    if source is not None:
        _same_grid_source(grid, source)
        loads = source.values[1:] @ q
    return Trajectory(grid, march_modes(triple, grid, v0 @ q, loads) @ q.T, "state")


def evolve_backward(
    triple: DiscreteGelfandTriple,
    grid: TimeGrid,
    v_final: np.ndarray,
    source: Trajectory | None = None,
) -> Trajectory:
    """Backward implicit-Euler solve of -p' + K p = s, terminal value given.

    One step reads (I + tau*K) p^n = p^{n+1} + tau * s^n; the source is
    sampled at the left node (its node-N value is unused).  This is the exact
    time-reversed transpose of the one-step map of :func:`evolve_forward`.
    """
    v_final = np.asarray(v_final, dtype=float)
    _check_width(triple, v_final, "terminal value")
    q = triple.eigenvectors
    loads = 0.0
    if source is not None:
        _same_grid_source(grid, source)
        loads = source.values[-2::-1] @ q
    # the backward march is a forward one on the time-reversed nodes
    out = march_modes(triple, grid, v_final @ q, loads)[::-1]
    return Trajectory(grid, out @ q.T, "state")


def march_modes(triple: DiscreteGelfandTriple, grid: TimeGrid, start, loads) -> np.ndarray:
    """Implicit-Euler march in the eigenbasis of K, where every mode decays alone.

    Returns c of shape (node_count, width) with c^0 = start and
    c^k = (c^{k-1} + tau * loads[k-1]) / (1 + tau * lam) for k = 1..N; start
    and the rows of loads are modal coefficients (nodal rows times the
    eigenvectors), loads may be a scalar.  Instead of one pass per step the
    recursion takes ceil(log2(N + 1)) vectorised doubling passes: after the
    pass with shift h, row k holds the decayed sum of inputs k - 2h + 1 .. k.
    """
    denom = 1.0 + grid.tau * triple.eigenvalues
    c = np.empty((grid.node_count, triple.interior_points))
    c[0] = start
    c[1:] = loads * (grid.tau / denom)
    decay = 1.0 / denom
    shift = 1
    while shift < grid.node_count:
        c[shift:] += decay * c[:-shift]
        shift *= 2
        decay = decay * decay
    return c


def _same_grid_source(grid: TimeGrid, source: Trajectory):
    if source.grid != grid:
        raise ValidationError("source trajectory lives on a different grid")


def graph_rows(triple: DiscreteGelfandTriple, u: Trajectory) -> np.ndarray:
    """Rows (u^{n+1} - u^n)/tau + K u^{n+1} for n = 0..N-1, shape (N, width)."""
    tau = u.grid.tau
    v = u.values
    return (v[1:] - v[:-1]) / tau + v[1:] @ triple.stiffness


def inner_state(triple: DiscreteGelfandTriple, u: Trajectory, v: Trajectory) -> float:
    """Graph inner product on state trajectories.

    Sum of tau * (du + Ku, dv + Kv)_{V*} over steps plus the H product of the
    initial values; this is the Hilbert structure in which the all-at-once
    adjoint is taken.
    """
    _same_grid(u, v)
    tau, dx = u.grid.tau, triple.dx
    eu = graph_rows(triple, u)
    ev = graph_rows(triple, v)
    bulk = tau * dx * float(np.sum(eu * solve_stiffness(triple, ev)))
    return bulk + dx * float(u.values[0] @ v.values[0])


def inner_dual_load(triple: DiscreteGelfandTriple, w: Trajectory, v: Trajectory) -> float:
    """L2(0,T; V*) inner product, right-endpoint quadrature (node 0 weightless)."""
    _same_grid(w, v)
    tau, dx = w.grid.tau, triple.dx
    return tau * dx * float(np.sum(w.values[1:] * solve_stiffness(triple, v.values[1:])))


def inner_observation(triple: DiscreteGelfandTriple, z: Trajectory, y: Trajectory) -> float:
    """L2(0,T; H) inner product, right-endpoint quadrature (node 0 weightless)."""
    _same_grid(z, y)
    tau, dx = z.grid.tau, triple.dx
    return tau * dx * float(np.sum(z.values[1:] * y.values[1:]))


def norm_state(triple, u):
    return float(np.sqrt(max(inner_state(triple, u, u), 0.0)))


def norm_dual_load(triple, w):
    return float(np.sqrt(max(inner_dual_load(triple, w, w), 0.0)))


def norm_observation(triple, z):
    return float(np.sqrt(max(inner_observation(triple, z, z), 0.0)))


def norm_l2_v(triple: DiscreteGelfandTriple, u: Trajectory) -> float:
    """L2(0,T; V) norm with the same right-endpoint quadrature."""
    tau, dx = u.grid.tau, triple.dx
    v = u.values[1:]
    return float(np.sqrt(max(tau * dx * np.sum(v * (v @ triple.stiffness)), 0.0)))
