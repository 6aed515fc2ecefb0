"""Discrete Gelfand triple on (0,1) with Dirichlet ends, and the basic evolutions.

Everything (including dual-space elements) lives in nodal coordinates; dual
pairings are realized through the measure-weighted dot product
``<w, v> = dx * w @ v``.  The stiffness operator plays the role of the Riesz
map V -> V*: it is applied as the 3-point stencil (the dense matrix exists only
on demand, for the dense oracle and tests).  Its inverse and every V* pairing
are taken on modal coefficients, where K is the diagonal of its eigenvalues:
||w||_{V*}^2 = dx * sum((w q)^2 / lam) is one basis product.  The DST-I
eigenbasis q is the only n x n array the triple keeps; only :func:`to_modes`
and :func:`from_modes` apply it.  The implicit-Euler resolvent (I + tau K)^-1
of the reduced sweeps is the closed-form Green's matrix, tabulated in diagonal
blocks of at most 128 points (:func:`resolvent_tables`) and applied with carries
between the blocks (:func:`solve_resolvent`), in O(n * 128) and without the basis.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    q_ij and q_ji read the same entry, so q = q.T exactly.
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


def to_modes(triple: DiscreteGelfandTriple, rows: np.ndarray) -> np.ndarray:
    """Modal coefficients of nodal rows: ``rows @ q`` (batched)."""
    return rows @ triple.eigenvectors


def from_modes(triple: DiscreteGelfandTriple, c: np.ndarray) -> np.ndarray:
    """Nodal rows of modal coefficients: ``c @ q`` (q = q.T exactly, see
    :func:`build_triple`), the inverse of :func:`to_modes`."""
    return c @ triple.eigenvectors


def solve_stiffness(triple: DiscreteGelfandTriple, w: np.ndarray) -> np.ndarray:
    """Riesz map V* -> V: the spectral solve ``from_modes(to_modes(w) / lam)`` (batched)."""
    w = np.asarray(w)
    _check_width(triple, w)
    return from_modes(triple, to_modes(triple, w) / triple.eigenvalues)


@dataclass(frozen=True)
class ResolventTables:
    """What :func:`solve_resolvent` needs of one (triple, tau) pair, tabulated once:
    the grid points cut into blocks (``spans``), and per block the diagonal block
    of the Green's matrix G = (I + tau K)^-1 (exactly symmetric), the lower and
    upper carry weights and the decay rho^B of a carry across the block."""

    spans: tuple
    blocks: tuple
    lower: tuple
    upper: tuple
    decay: tuple


# the blocks hold n * B floats and a solve costs O(n * B): 128 keeps every size up to
# 128 points (the benchmark's 30 and 100 among them) at one product per solve
_GREEN_BLOCK = 128


def resolvent_tables(triple: DiscreteGelfandTriple, tau: float) -> ResolventTables:
    """Tabulate the Green's matrix of I + tau K in blocks of B = ceil(n / ceil(n / 128)).

    With r = tau / dx^2, s = sqrt(1 + 4r), rho = 2r / (1 + 2r + s) in [0, 1) and
    M = n + 1, for 1 <= i <= j <= n
    G_ij = G_ji = rho^(j-i) (1 - rho^(2i)) (1 - rho^(2(M-j))) / (s (1 - rho^(2M))),
    the exact inverse of the tridiagonal I + tau K.  Every factor lies in [0, 1], so
    nothing overflows and an underflow to 0 is the true negligible value; ln rho is
    log1p of -(1 + s) / (1 + 2r + s) = rho - 1, and each 1 - rho^k is an expm1, both
    to full relative accuracy as rho -> 1.  G_ij factors through any point c between
    i and j as (a_i rho^(c-i)) (b_j rho^(j-c)) / den with a_i = 1 - rho^(2i) and
    b_j = 1 - rho^(2(M-j)) = a_(M-j); the carry weights of a block [lo, hi] are
    a_j rho^(hi-j) and b_j rho^(j-lo), each times sqrt(rho / den), so that a carry
    read back through the other weights of a later (earlier) block is exactly G.
    """
    n = triple.interior_points
    r = tau / triple.dx**2
    s = math.sqrt(1.0 + 4.0 * r)
    gap = (1.0 + s) / (1.0 + 2.0 * r + s)  # 1 - rho
    # rho below about 1e-16 rounds gap to 1, where log1p(-1) is a domain error: any
    # log below -745 makes every positive power exactly 0, as rho -> 0 does, and G = I
    log_rho = math.log1p(-gap) if gap < 1.0 else -1e3
    a = -np.expm1(2.0 * log_rho * np.arange(1, n + 1))
    b = a[::-1]
    den = s * -math.expm1(2.0 * (n + 1) * log_rho)
    scale = math.sqrt(math.exp(log_rho) / den)
    length = -(-n // -(-n // _GREEN_BLOCK))
    powers = np.exp(log_rho * np.arange(length))
    # rho^|i-j| as a view: row i of the windows of (rho^(B-1), .., rho, 1, rho, .., rho^(B-1))
    # starts at rho^(B-1-i), so the windows in reverse order are the Toeplitz matrix
    toeplitz = sliding_window_view(np.concatenate((powers[:0:-1], powers)), length)[::-1]
    # the blocks are views of one n x B array: as 13 separate heap blocks of 123 KB at
    # n = 1600, they moved the benchmark's peak RSS by up to 13 MB with the heap layout
    store, scratch = np.zeros((n, length)), np.empty((length, length))
    spans, blocks, lower, upper, decay = [], [], [], [], []
    for lo in range(0, n, length):
        m = min(length, n - lo)
        # a rises and b falls, so a_min(i,j) b_max(i,j) = min(a_i, a_j) min(b_i, b_j), and
        # g = g.T exactly
        g, bd = store[lo : lo + m, :m], b[lo : lo + m] / den
        np.minimum.outer(a[lo : lo + m], a[lo : lo + m], out=g)
        g *= np.minimum.outer(bd, bd, out=scratch[:m, :m])
        g *= toeplitz[:m, :m]
        spans.append(slice(lo, lo + m))
        blocks.append(g)
        lower.append(scale * a[lo : lo + m] * powers[m - 1 :: -1])
        upper.append(scale * b[lo : lo + m] * powers[:m])
        decay.append(math.exp(log_rho * m))
    return ResolventTables(*map(tuple, (spans, blocks, lower, upper, decay)))


def solve_resolvent(tables: ResolventTables, rows: np.ndarray) -> np.ndarray:
    """Apply (I + tau K)^-1 to nodal rows (batched), from :func:`resolvent_tables`.

    One product with each diagonal block of G; then the lower carry
    l_(k+1) = rho^(B_k) l_k + x_k . lower_k runs forward over the blocks, adding
    l_k upper_k to block k, and the mirrored upper carry runs backward.  Up to 128
    points there is one block and no carry, and the solve is ``rows @ G``.  A
    non-finite entry in the rows gives non-finite output.
    """
    if len(tables.blocks) == 1:  # the carry loops below would be empty
        return rows @ tables.blocks[0]
    xs = [rows[..., span] for span in tables.spans]
    out = [x @ g for x, g in zip(xs, tables.blocks)]
    carry = 0.0
    for k in range(1, len(xs)):
        carry = tables.decay[k - 1] * carry + xs[k - 1] @ tables.lower[k - 1]
        out[k] += np.multiply.outer(carry, tables.upper[k])
    carry = 0.0
    for k in range(len(xs) - 2, -1, -1):
        carry = tables.decay[k + 1] * carry + xs[k + 1] @ tables.upper[k + 1]
        out[k] += np.multiply.outer(carry, tables.lower[k])
    return np.concatenate(out, axis=-1)


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
    loads = 0.0
    if source is not None:
        _same_grid_source(grid, source)
        loads = to_modes(triple, source.values[1:])
    c = march_modes(march_tables(triple, grid), to_modes(triple, v0), loads)
    return Trajectory(grid, from_modes(triple, c), "state")


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
    loads = 0.0
    if source is not None:
        _same_grid_source(grid, source)
        loads = to_modes(triple, source.values[-2::-1])
    # the backward march is a forward one on the time-reversed nodes
    out = march_modes(march_tables(triple, grid), to_modes(triple, v_final), loads)[::-1]
    return Trajectory(grid, from_modes(triple, out), "state")


@dataclass(frozen=True)
class MarchTables:
    """What :func:`march_modes` needs of one (triple, grid) pair, tabulated once:
    with d = 1 + tau * lam and B steps per block, ``growth`` holds tau d^(i-1)
    on rows i = 1..B, ``shrink`` d^-k on rows k = 0..B and ``prefix`` the
    (B + 1)-square lower triangle of ones, all C-contiguous."""

    node_count: int
    growth: np.ndarray
    shrink: np.ndarray
    prefix: np.ndarray


# d^-B >= 1e-200 keeps shrink factors normal and scaled loads within 1e200 |l|, about
# 1e100 of headroom for loads; the cap bounds the prefix matrix and the O(B^2 n) product
_BLOCK_RANGE, _BLOCK_CAP = 1e-200, 128


def march_tables(triple: DiscreteGelfandTriple, grid: TimeGrid) -> MarchTables:
    """Tabulate the blocks of :func:`march_modes`.  B is the largest length up to
    min(N, 128) with d^-B >= 1e-200 for the stiffest mode, and at least 1; powers
    are compared, not logarithms, so a d that rounds to 1 gives the full length.
    At n_x = N = 100 the tables take 0.24 MB."""
    d = 1.0 + grid.tau * triple.eigenvalues
    k = np.arange(min(grid.node_count - 1, _BLOCK_CAP) + 1)[:, None]
    shrink = d ** -k
    length = max(1, np.count_nonzero(shrink[:, -1] >= _BLOCK_RANGE) - 1)
    growth = grid.tau * d ** k[:length]
    return MarchTables(grid.node_count, growth, shrink[: length + 1], np.tri(length + 1))


def march_modes(tables: MarchTables, start, loads) -> np.ndarray:
    """Implicit-Euler march in the eigenbasis of K, where every mode decays alone.

    Returns c of shape (node_count, width) with c^0 = start and
    c^k = (c^{k-1} + tau * loads[k-1]) / d for k = 1..N; start and the rows of
    loads are modal coefficients (:func:`to_modes` of nodal rows), loads may be
    a scalar.  ``tables`` comes from :func:`march_tables`: an operator that
    marches often tabulates once, any other caller builds them for the call.
    From the carry c^r a block of B steps is the scaled prefix sum
    c^{r+k} = d^-k (c^r + sum_{i=1..k} tau d^(i-1) loads[r+i-1]), one triangular
    product ``shrink * (prefix @ x)`` with x = (c^r, the scaled loads); its last
    row carries into the next block.  Loads beyond about 1e100 can overflow a
    block, which gives non-finite rows, never finite wrong ones.
    """
    steps, length = tables.node_count - 1, tables.growth.shape[0]
    c = np.empty((steps + 1, tables.shrink.shape[1]))
    x = np.empty_like(tables.shrink)
    for r in range(0, steps, length):
        b = min(length, steps - r)
        x[0] = c[r] if r else start
        np.multiply(tables.growth[:b], loads[r : r + b] if np.ndim(loads) else loads, out=x[1 : b + 1])
        block = c[r : r + b + 1]
        np.matmul(tables.prefix[: b + 1, : b + 1], x[: b + 1], out=block)
        block *= tables.shrink[: b + 1]
    return c


def _same_grid_source(grid: TimeGrid, source: Trajectory):
    if source.grid != grid:
        raise ValidationError("source trajectory lives on a different grid")


def graph_rows(triple: DiscreteGelfandTriple, u: Trajectory) -> np.ndarray:
    """Rows (u^{n+1} - u^n)/tau + K u^{n+1} for n = 0..N-1, shape (N, width)."""
    tau = u.grid.tau
    v = u.values
    return (v[1:] - v[:-1]) / tau + apply_stiffness(triple, v[1:])


def inner_state_modes(triple: DiscreteGelfandTriple, tau: float, a, b) -> float:
    """:func:`inner_state` of two states given by their modal coefficients c = u q:
    graph rows (c^{n+1} - c^n)/tau + lam c^{n+1} (formed once when b is a) and
    the initial term dx c^0 . c'^0, as the eigenbasis is orthonormal."""
    lam = triple.eigenvalues
    rows = [(c[1:] - c[:-1]) / tau + lam * c[1:] for c in ((a,) if b is a else (a, b))]
    return tau * dual_pairing(triple, rows[0], rows[-1]) + triple.dx * float(a[0] @ b[0])


def inner_state(triple: DiscreteGelfandTriple, u: Trajectory, v: Trajectory) -> float:
    """Graph inner product on state trajectories.

    Sum of tau * (du + Ku, dv + Kv)_{V*} over steps plus the H product of the
    initial values; this is the Hilbert structure in which the all-at-once
    adjoint is taken: :func:`inner_state_modes` after one basis product per
    argument (one in all when both arguments are the same object).
    """
    _same_grid(u, v)
    cu = to_modes(triple, u.values)
    cv = cu if v is u else to_modes(triple, v.values)
    return inner_state_modes(triple, u.grid.tau, cu, cv)


def inner_dual_load(triple: DiscreteGelfandTriple, w: Trajectory, v: Trajectory) -> float:
    """L2(0,T; V*) inner product, right-endpoint quadrature (node 0 weightless).

    Paired on modal coefficients: one basis product per argument, one in all
    when both arguments are the same object.
    """
    _same_grid(w, v)
    w_hat = to_modes(triple, w.values[1:])
    v_hat = w_hat if v is w else to_modes(triple, v.values[1:])
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
