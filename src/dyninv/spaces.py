"""Discrete Gelfand triple on (0,1) with Dirichlet ends, and the basic evolutions.

Everything (including dual-space elements) lives in nodal coordinates; dual
pairings are realized through the measure-weighted dot product
``<w, v> = dx * w @ v``.  The stiffness operator plays the role of the Riesz
map V -> V*: it is applied as the 3-point stencil (the dense matrix exists only
on demand, for the dense oracle and tests).  Its inverse and every V* pairing
are taken on modal coefficients (nodal rows times the DST-I eigenbasis, the
only n x n array kept), where K is the diagonal of its eigenvalues:
||w||_{V*}^2 = dx * sum((w q)^2 / lam) is one basis product.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError
from .grids import TimeGrid

TRAJECTORY_TAGS = ("state", "dual_load", "observation")
# rows of the eigenbasis tabulated per pass: bounds the index temporary
_ROW_BLOCK = 256


@dataclass(frozen=True)
class DiscreteGelfandTriple:
    """Nodal discretisation of V = H^1_0(0,1), H = L2(0,1), V* = H^-1(0,1).

    The stiffness operator K is the standard (2, -1, -1)/dx^2 tridiagonal,
    applied by :func:`apply_stiffness` as a stencil.  Its eigenpairs are known
    in closed form (the orthonormal DST-I basis, ascending eigenvalues); they
    are tabulated once and are the only n x n array stored, reused for every
    spectral solve and every V* pairing.
    """

    interior_points: int
    dx: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def stiffness(self) -> np.ndarray:
        """K as a dense matrix, assembled on every access (dense oracle and tests only)."""
        n = self.interior_points
        a = np.zeros((n, n))
        a.flat[:: n + 1] = 2.0 / self.dx**2
        a.flat[1 :: n + 1] = -1.0 / self.dx**2
        a.flat[n :: n + 1] = -1.0 / self.dx**2
        return a


def build_triple(n_x: int) -> DiscreteGelfandTriple:
    """Tabulate the eigenpairs of the Dirichlet stiffness operator.

    lam_j = (4/dx^2) sin^2(pi j dx/2) and q_ij = sqrt(2 dx) sin(pi i j dx) for
    i, j = 1..n_x; the sines are read from one table of length 2(n_x + 1)
    indexed by i*j mod 2(n_x + 1), where the sine has period 2(n_x + 1).
    """
    if n_x < 1:
        raise ValidationError(f"need at least one interior point, got {n_x}")
    dx = 1.0 / (n_x + 1)
    j = np.arange(1, n_x + 1)
    lam = (4.0 / dx**2) * np.sin(0.5 * np.pi * dx * j) ** 2
    period = 2 * (n_x + 1)
    table = np.sqrt(2.0 * dx) * np.sin(np.pi * dx * np.arange(period))
    q = np.empty((n_x, n_x))
    for lo in range(0, n_x, _ROW_BLOCK):
        phase = np.outer(j[lo : lo + _ROW_BLOCK], j)
        phase %= period
        np.take(table, phase, out=q[lo : lo + _ROW_BLOCK])
    return DiscreteGelfandTriple(n_x, dx, lam, q)


def _check_width(triple: DiscreteGelfandTriple, v: np.ndarray, name: str = "vector"):
    if v.shape[-1] != triple.interior_points:
        raise ValidationError(
            f"{name} has width {v.shape[-1]}, expected {triple.interior_points}"
        )


def apply_stiffness(triple: DiscreteGelfandTriple, v: np.ndarray) -> np.ndarray:
    """Riesz map V -> V*: the stencil (2 v_i - v_{i-1} - v_{i+1}) / dx^2 (batched).

    The neighbours are whole-buffer shifts of the contiguous rows laid end to
    end, which beats strided per-row slices on small blocks; the two entries
    per row that picked up a neighbour from the adjacent row are then reset to
    their exact one-sided values.
    """
    v = np.asarray(v, dtype=float)
    _check_width(triple, v)
    n = v.shape[-1]
    flat = v.ravel()
    out = flat * 2.0
    out[:-1] -= flat[1:]
    out[n - 1 :: n] = flat[n - 1 :: n] * 2.0  # row ends: no right neighbour
    starts = out[::n].copy()
    out[1:] -= flat[:-1]
    out[::n] = starts  # row starts: no left neighbour
    out *= 1.0 / triple.dx**2
    return out.reshape(v.shape)


def solve_stiffness(triple: DiscreteGelfandTriple, w: np.ndarray) -> np.ndarray:
    """Riesz map V* -> V: spectral solve with the stiffness operator (batched)."""
    w = np.asarray(w)
    _check_width(triple, w)
    return ((w @ triple.eigenvectors) / triple.eigenvalues) @ triple.eigenvectors.T


def dual_pairing(triple: DiscreteGelfandTriple, a_hat, b_hat) -> float:
    """dx * sum(a_hat * b_hat / lam): the V* pairing of rows given as modal coefficients."""
    return triple.dx * float(np.vdot(a_hat / triple.eigenvalues, b_hat))


def solve_shifted_stiffness(triple: DiscreteGelfandTriple, tau, shift, rhs, step=None):
    """Solve (I + tau*K - diag(shift)) x = rhs for one nodal vector.

    The Thomas algorithm on the tridiagonal matrix, as a plain float loop: at
    every size from a handful of points to thousands it beats assembling the
    matrix for a dense solve.  No pivoting: the shift may be positive, so the
    matrix need not be diagonally dominant, and a zero or non-finite pivot
    raises SolverError carrying ``step`` (the caller's time-step index).
    """
    off = tau / triple.dx**2
    diag = 1.0 + 2.0 * off
    ratios, ys = [], []
    ratio = y = pivots = 0.0
    try:
        for b, s in zip(rhs.tolist(), shift.tolist()):
            pivot = diag - s - off * ratio
            pivots += pivot  # turns non-finite with the first non-finite pivot
            ratio = off / pivot
            y = (b + off * y) / pivot
            ratios.append(ratio)
            ys.append(y)
    except ZeroDivisionError:
        pivots = math.nan
    if not math.isfinite(pivots):
        raise SolverError(
            f"zero or non-finite pivot in the tridiagonal solve at time step {step}", step=step
        )
    out = [y]
    for i in range(len(ys) - 2, -1, -1):
        y = ys[i] + ratios[i] * y
        out.append(y)
    return np.array(out[::-1])


def inner(triple: DiscreteGelfandTriple, which: str, a: np.ndarray, b: np.ndarray) -> float:
    """Spatial inner product: 'H', 'V' or 'Vstar'."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_width(triple, a, "first argument")
    _check_width(triple, b, "second argument")
    if which == "H":
        return triple.dx * float(a @ b)
    if which == "V":
        return triple.dx * float(a @ apply_stiffness(triple, b))
    if which == "Vstar":
        q = triple.eigenvectors
        return dual_pairing(triple, a @ q, b @ q)
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
    c = march_modes(march_tables(triple, grid), v0 @ q, loads)
    return Trajectory(grid, c @ q.T, "state")


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
    out = march_modes(march_tables(triple, grid), v_final @ q, loads)[::-1]
    return Trajectory(grid, out @ q.T, "state")


@dataclass(frozen=True)
class MarchTables:
    """What :func:`march_modes` needs of one (triple, grid) pair, tabulated once.

    Every array is a C-contiguous block of exactly the shape it multiplies, so
    each product of the march is one flat loop with no row broadcast.
    ``gain`` holds the load gain tau / (1 + tau * lam) on node_count - 1 rows;
    ``passes`` holds the (shift, decay block) pair of every doubling pass:
    shifts 1, 2, 4, ... below node_count, each with node_count - shift rows
    of the decay 1 / (1 + tau * lam) raised to the power shift (by repeated
    squaring).  All blocks are row ranges of one buffer.
    """

    node_count: int
    gain: np.ndarray
    passes: tuple


def march_tables(triple: DiscreteGelfandTriple, grid: TimeGrid) -> MarchTables:
    """Tabulate the load gain and the doubling passes of :func:`march_modes`.

    At n_x = N = 100 the tables take 680 rows of 100 modes (0.54 MB).
    """
    denom = 1.0 + grid.tau * triple.eigenvalues
    node_count = grid.node_count
    shifts = [1 << p for p in range((node_count - 1).bit_length())]  # powers of 2 below node_count
    rows = [node_count - 1] + [node_count - shift for shift in shifts]
    gain, *decays = np.split(np.empty((sum(rows), denom.size)), np.cumsum(rows)[:-1])
    gain[...] = grid.tau / denom
    decay = 1.0 / denom
    for block in decays:
        block[...] = decay
        decay = decay * decay
    return MarchTables(node_count, gain, tuple(zip(shifts, decays)))


def march_modes(tables: MarchTables, start, loads) -> np.ndarray:
    """Implicit-Euler march in the eigenbasis of K, where every mode decays alone.

    Returns c of shape (node_count, width) with c^0 = start and
    c^k = (c^{k-1} + tau * loads[k-1]) / (1 + tau * lam) for k = 1..N; start
    and the rows of loads are modal coefficients (nodal rows times the
    eigenvectors), loads may be a scalar.  ``tables`` comes from
    :func:`march_tables`: an operator that marches often tabulates once, any
    other caller builds them for the call.  Instead of one pass per step the
    recursion takes ceil(log2(N + 1)) vectorised doubling passes, each run in
    place as one flat product of contiguous blocks into a scratch block and
    one addition: after the pass with shift h, row k holds the decayed sum of
    inputs k - 2h + 1 .. k.
    """
    c = np.empty((tables.node_count, tables.gain.shape[1]))
    c[0] = start
    np.multiply(loads, tables.gain, out=c[1:])
    scratch = np.empty_like(c[1:])
    for shift, decay in tables.passes:
        block = scratch[shift - 1 :]  # node_count - shift rows, like decay
        np.multiply(c[:-shift], decay, out=block)
        c[shift:] += block
    return c


def _same_grid_source(grid: TimeGrid, source: Trajectory):
    if source.grid != grid:
        raise ValidationError("source trajectory lives on a different grid")


def graph_rows(triple: DiscreteGelfandTriple, u: Trajectory) -> np.ndarray:
    """Rows (u^{n+1} - u^n)/tau + K u^{n+1} for n = 0..N-1, shape (N, width)."""
    tau = u.grid.tau
    v = u.values
    return (v[1:] - v[:-1]) / tau + apply_stiffness(triple, v[1:])


def _modal_graph_rows(triple: DiscreteGelfandTriple, u: Trajectory) -> np.ndarray:
    """:func:`graph_rows` in modal coefficients: (c^{n+1} - c^n)/tau + lam c^{n+1}, c = u q."""
    c = u.values @ triple.eigenvectors
    return (c[1:] - c[:-1]) / u.grid.tau + triple.eigenvalues * c[1:]


def inner_state(triple: DiscreteGelfandTriple, u: Trajectory, v: Trajectory) -> float:
    """Graph inner product on state trajectories.

    Sum of tau * (du + Ku, dv + Kv)_{V*} over steps plus the H product of the
    initial values; this is the Hilbert structure in which the all-at-once
    adjoint is taken.  The graph rows are formed on modal coefficients, where
    K is diagonal, so the pairing costs one basis product per argument (one
    in all when both arguments are the same object) and no solve.
    """
    _same_grid(u, v)
    eu = _modal_graph_rows(triple, u)
    ev = eu if v is u else _modal_graph_rows(triple, v)
    bulk = u.grid.tau * dual_pairing(triple, eu, ev)
    return bulk + triple.dx * float(u.values[0] @ v.values[0])


def inner_dual_load(triple: DiscreteGelfandTriple, w: Trajectory, v: Trajectory) -> float:
    """L2(0,T; V*) inner product, right-endpoint quadrature (node 0 weightless).

    Paired on modal coefficients: one basis product per argument, one in all
    when both arguments are the same object.
    """
    _same_grid(w, v)
    q = triple.eigenvectors
    w_hat = w.values[1:] @ q
    v_hat = w_hat if v is w else v.values[1:] @ q
    return w.grid.tau * dual_pairing(triple, w_hat, v_hat)


def inner_observation(triple: DiscreteGelfandTriple, z: Trajectory, y: Trajectory) -> float:
    """L2(0,T; H) inner product, right-endpoint quadrature (node 0 weightless)."""
    _same_grid(z, y)
    tau, dx = z.grid.tau, triple.dx
    return tau * dx * float(np.vdot(z.values[1:], y.values[1:]))


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
    return float(np.sqrt(max(tau * dx * np.vdot(v, apply_stiffness(triple, v)), 0.0)))
