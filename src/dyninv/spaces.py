"""Discrete Gelfand triple on (0,1) with Dirichlet ends, and the basic evolutions.

Everything (including dual-space elements) lives in nodal coordinates; dual
pairings are realized through the measure-weighted dot product
``<w, v> = dx * w @ v``.  The stiffness operator plays the role of the Riesz
map V -> V*: it is applied as the 3-point stencil (the dense matrix exists only
on demand, for the dense oracle and tests).  Its inverse K^-1, the Riesz map
V* -> V of every V* pairing of nodal rows (||w||_{V*}^2 = dx * <K^-1 w, w>), and
the implicit-Euler resolvent (I + tau K)^-1 of the reduced sweeps are
closed-form Green's matrices, tabulated as one n x n block up to 128 points and
beyond in diagonal blocks of at most 32 points, so that both tables stay in a
core's L2 cache (once per triple by :func:`build_triple`, and once per triple and
tau by :func:`resolvent_tables`), and applied to nodal rows with carries between
the blocks (:func:`solve_resolvent`), in O(n * 32), without the basis and in a
fixed number of numpy calls.  Both implicit-Euler marches take the same loads
and starts: :func:`march_modes` on modal coefficients, where every mode decays
alone, and :func:`march_nodes` on nodal rows, one resolvent solve per step.
Below the all-at-once operator's size cut the n x n DST-I eigenbasis q serves
its marches and the modal pairing of its joint CG (:func:`inner_state_modes`);
from the cut on the operator marches on nodes, its joint CG pairs nodal states
by the graph rows it carries (the rows :func:`inner_state_nodes` solves for),
and no run tabulates q, which is built on its first read.  Only
:func:`to_modes` and :func:`from_modes` apply q.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SolverError, ValidationError, require_count
from .grids import TimeGrid

TRAJECTORY_TAGS = ("state", "dual_load", "observation")
# rows of the eigenbasis tabulated per pass: bounds the index temporary
_ROW_BLOCK = 256


@dataclass(frozen=True)
class ResolventTables:
    """What :func:`solve_resolvent` needs of one Green's matrix G, (I + tau K)^-1 or
    K^-1, tabulated once for its ``points`` n, cut into nb blocks of B points in
    order (the last one zero-padded): one block up to 128 points, beyond
    nb = ceil(n / 32) blocks of B <= 32.  ``blocks`` holds the diagonal blocks of G,
    each exactly symmetric: (1, n, n) for one block, else (nb, B, B + 2) with
    every block's lower and upper carry weights as its last two columns.
    Beyond one block, ``decay`` (2, nb, nb) holds the decay of a lower and of an
    upper carry between two blocks, products of d = rho^B (1 for K^-1), and
    ``weights`` (nb, 2, B) each block's upper and lower carry weights as rows,
    which spread the lower and the upper carry into the block; ``matrix`` is
    None.  For one block there is no carry: ``decay`` and ``weights`` are None
    and ``matrix`` is G itself."""

    points: int
    blocks: np.ndarray
    decay: np.ndarray | None
    weights: np.ndarray | None
    matrix: np.ndarray | None


@dataclass(frozen=True)
class DiscreteGelfandTriple:
    """Nodal discretisation of V = H^1_0(0,1), H = L2(0,1), V* = H^-1(0,1).

    The stiffness operator K is the standard (2, -1, -1)/dx^2 tridiagonal,
    applied by :func:`apply_stiffness` as a stencil.  Its eigenpairs are known
    in closed form (the orthonormal DST-I basis, ascending eigenvalues); the
    eigenvalues are tabulated with the triple and the n x n basis on its first
    read.  ``green`` holds the blocked Green's matrix of K, the Riesz map
    V* -> V of every V* pairing.  The tables of (I + tau K)^-1 are kept per
    tau, as :func:`resolvent_tables` first builds them, so every operator on
    the triple reads one copy.
    """

    interior_points: int
    dx: float
    eigenvalues: np.ndarray
    green: ResolventTables
    _resolvents: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """q_ij = sqrt(2 dx) sin(pi i j dx), i, j = 1..n, tabulated on the first
        read from one sine table of length 2(n + 1) indexed by i*j mod 2(n + 1),
        the sine's period; q_ij and q_ji read one entry, so q = q.T exactly."""
        n, dx = self.interior_points, self.dx
        j, period = np.arange(1, n + 1), 2 * (n + 1)
        table = np.sqrt(2.0 * dx) * np.sin(np.pi * dx * np.arange(period))
        q = np.empty((n, n))
        for lo in range(0, n, _ROW_BLOCK):
            phase = np.outer(j[lo : lo + _ROW_BLOCK], j)
            phase %= period
            np.take(table, phase, out=q[lo : lo + _ROW_BLOCK])
        return q

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
    """The triple on n_x points: lam_j = (4/dx^2) sin^2(pi j dx/2), j = 1..n_x,
    and K^-1, G_ij = dx^2 min(i, j) (M - max(i, j)) / M with M = n_x + 1, the
    rho = 1 case of :func:`_green_tables` (a_i = i, den = M / dx^2, no decay).
    The eigenbasis is tabulated on its first read."""
    require_count(n_x, "n_x")
    dx = 1.0 / (n_x + 1)
    lam = (4.0 / dx**2) * np.sin(0.5 * np.pi * dx * np.arange(1, n_x + 1)) ** 2
    green = _green_tables(np.arange(1.0, n_x + 1), (n_x + 1) / dx**2, 0.0)
    return DiscreteGelfandTriple(n_x, dx, lam, green)


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
    their exact one-sided values.  A single row (the Newton iterates' shape)
    has no such entries and skips the reset: 4 array operations in place of 7.
    """
    v = np.asarray(v, dtype=float)
    _check_width(triple, v)
    n = v.shape[-1]
    flat = v.ravel()
    out = flat * 2.0
    out[:-1] -= flat[1:]
    if flat.size <= n:  # one row: no neighbour came from an adjacent row
        out[1:] -= flat[:-1]
    else:
        np.multiply(flat[n - 1 :: n], 2.0, out=out[n - 1 :: n])  # row ends: no right neighbour
        starts = out[::n].copy()
        out[1:] -= flat[:-1]
        out[::n] = starts  # row starts: no left neighbour
    out *= 1.0 / triple.dx**2
    return out.reshape(v.shape)


# OpenBLAS's small-matrix dgemm kernel takes products with M * N * K <= 1e6 and is
# ~40 % cheaper per row than the packed one.  A block of rows times the n x n basis
# is cut into chunks of 1e6 // n^2 rows where the block is taller and a chunk is at
# least n / 2 rows (n <= 125).  Over N + 1 and 2N + 1 rows, N = 50..200, one BLAS
# thread, chunks read 1.1-1.5x at n = 50..130, mixed at 140..150 and 0.15-0.78x from
# n = 200 on, where each short chunk re-reads the basis (ROADMAP has the sweep)
_SMALL_GEMM = 10**6


def _basis_product(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``rows @ q`` for the basis q, in row chunks under the small-matrix cutoff."""
    n = q.shape[0]
    chunk = _SMALL_GEMM // (n * n)
    if rows.ndim != 2 or rows.shape[0] <= chunk or 2 * chunk < n:
        return rows @ q
    out = np.empty((rows.shape[0], n))
    for lo in range(0, rows.shape[0], chunk):
        np.matmul(rows[lo : lo + chunk], q, out=out[lo : lo + chunk])
    return out


def to_modes(triple: DiscreteGelfandTriple, rows: np.ndarray) -> np.ndarray:
    """Modal coefficients of nodal rows: ``rows @ q`` (batched)."""
    return _basis_product(rows, triple.eigenvectors)


def from_modes(triple: DiscreteGelfandTriple, c: np.ndarray) -> np.ndarray:
    """Nodal rows of modal coefficients: ``c @ q`` (q = q.T exactly, see
    :attr:`DiscreteGelfandTriple.eigenvectors`), the inverse of :func:`to_modes`."""
    return _basis_product(c, triple.eigenvectors)


# the blocks hold n * (B + 2) floats and a solve costs O(n * B).  Up to _GREEN_BLOCK
# points (the benchmark's 30 and 100 among them) one n x n product does a solve;
# beyond, blocks of at most _GREEN_SPLIT points.  An iteration alternates K^-1 and
# (I + tau K)^-1, and 32-point blocks keep both in a 2 MB per-core L2 up to
# n ~ 3700 (0.9 MB at n = 1600; 128-point blocks took 3.2 MB).  Over B = 16..128 at
# n = 300..1600, 32 gave 1-, 8- and 100-row solves within 9 % of the fastest
_GREEN_BLOCK, _GREEN_SPLIT = 128, 32


def resolvent_tables(triple: DiscreteGelfandTriple, tau: float) -> ResolventTables:
    """The Green's matrix of I + tau K, one block up to 128 points and beyond
    nb = ceil(n / 32) blocks of B = ceil(n / nb), tabulated on the first call for
    this triple and tau and kept on the triple.

    With r = tau / dx^2, s = sqrt(1 + 4r), rho = 2r / (1 + 2r + s) in [0, 1) and
    M = n + 1, for 1 <= i <= j <= n
    G_ij = G_ji = rho^(j-i) (1 - rho^(2i)) (1 - rho^(2(M-j))) / (s (1 - rho^(2M))),
    the exact inverse of the tridiagonal I + tau K.  Every factor lies in [0, 1], so
    nothing overflows and an underflow to 0 is the true negligible value; ln rho is
    log1p of -(1 + s) / (1 + 2r + s) = rho - 1, and each 1 - rho^k is an expm1, both
    to full relative accuracy as rho -> 1.  The blocks are those of
    :func:`_green_tables` with a_i = 1 - rho^(2i) and den = s (1 - rho^(2M)).
    """
    if tau in triple._resolvents:
        return triple._resolvents[tau]
    n = triple.interior_points
    r = tau / triple.dx**2
    s = math.sqrt(1.0 + 4.0 * r)
    gap = (1.0 + s) / (1.0 + 2.0 * r + s)  # 1 - rho
    # rho below about 1e-16 rounds gap to 1, where log1p(-1) is a domain error: any
    # log below -745 makes every positive power exactly 0, as rho -> 0 does, and G = I
    log_rho = math.log1p(-gap) if gap < 1.0 else -1e3
    a = -np.expm1(2.0 * log_rho * np.arange(1, n + 1))
    tables = _green_tables(a, s * -math.expm1(2.0 * (n + 1) * log_rho), log_rho)
    triple._resolvents[tau] = tables
    return tables


def _green_tables(a: np.ndarray, den: float, log_rho: float) -> ResolventTables:
    """The blocks of G_ij = G_ji = a_i b_j rho^(j-i) / den for i <= j, where a rises,
    b_j = a_(M-j) falls and rho = exp(log_rho) lies in (0, 1].

    G_ij factors through any point c between i and j as
    (a_i rho^(c-i)) (b_j rho^(j-c)) / den; the carry weights of a block [lo, hi]
    are a_j rho^(hi-j) (lower) and b_j rho^(j-lo) (upper), each times
    sqrt(rho / den), so that a carry read back through the other weights of a
    later (earlier) block is exactly G.  A carry decays by d = rho^B across each
    full block between, and only full blocks lie between two others.
    """
    n = a.shape[0]
    b = a[::-1]
    scale = math.sqrt(math.exp(log_rho) / den)
    count = 1 if n <= _GREEN_BLOCK else -(-n // _GREEN_SPLIT)
    length = -(-n // count)
    powers = np.exp(log_rho * np.arange(length))
    # rho^|i-j| as a view: row i of the windows of (rho^(B-1), .., rho, 1, rho, .., rho^(B-1))
    # starts at rho^(B-1-i), so the windows in reverse order are the Toeplitz matrix
    toeplitz = sliding_window_view(np.concatenate((powers[:0:-1], powers)), length)[::-1]
    # one array for all blocks: as 13 separate heap blocks of 123 KB at n = 1600, they
    # moved the benchmark's peak RSS by up to 13 MB with the heap layout.  With carries,
    # columns B and B + 1 of each block hold its lower and upper carry weights
    blocks = np.zeros((count, length, length + 2 if count > 1 else length))
    weights = np.zeros((count, 2, length))
    # the factors are formed in contiguous scratch: elementwise work on the strided
    # blocks themselves made the tables about 1.4x slower to build at n = 1600
    scratch = np.empty((2, length, length))
    for k, lo in enumerate(range(0, n, length)):
        m = min(length, n - lo)
        # a rises and b falls, so a_min(i,j) b_max(i,j) = min(a_i, a_j) min(b_i, b_j), and
        # g = g.T exactly
        g, bd = scratch[0, :m, :m], b[lo : lo + m] / den
        np.minimum.outer(a[lo : lo + m], a[lo : lo + m], out=g)
        g *= np.minimum.outer(bd, bd, out=scratch[1, :m, :m])
        np.multiply(g, toeplitz[:m, :m], out=blocks[k, :m, :m])
        weights[k, 0, :m] = scale * b[lo : lo + m] * powers[:m]
        weights[k, 1, :m] = scale * a[lo : lo + m] * powers[m - 1 :: -1]
    if count == 1:  # no carries
        return ResolventTables(n, blocks, None, None, blocks[0])
    blocks[:, :, length:] = weights[:, ::-1].transpose(0, 2, 1)
    # a lower carry from block j into block k > j decays by d^(k-j-1) across the full
    # blocks between, a product of factors in [0, 1]: nothing overflows, and an
    # underflow to 0 is the true negligible value.  The upper carry is the transpose
    between = np.subtract.outer(np.arange(count), np.arange(count)) - 1
    powers_d = np.cumprod(np.r_[1.0, np.full(count - 1, math.exp(log_rho * length))])
    lower = np.where(between >= 0, powers_d[between.clip(0)], 0.0)
    return ResolventTables(n, blocks, np.stack((lower, lower.T)), weights, None)


def solve_resolvent(tables: ResolventTables, rows: np.ndarray) -> np.ndarray:
    """Apply (I + tau K)^-1 or K^-1 to nodal rows (batched), from
    :func:`resolvent_tables` or the triple's ``green``.

    Up to 128 points there is one block and no carry, and the solve is
    ``rows @ G``.  Beyond, in blocks of at most 32 points, the rows are
    zero-padded to nb * B points and laid out block axis first, (nb, rows, B),
    and a fixed number of numpy calls, whatever nb, does the solve: one batched
    product with the blocks gives every diagonal block's part and, in its two
    extra columns, every block's partial sums x_k . lower_k and x_k . upper_k;
    one product with the decay products turns them into every lower carry
    l_k = sum_(j<k) d^(k-j-1) x_j . lower_j and the mirrored upper carry; one
    more adds l_k upper_k + u_k lower_k to block k (:class:`BlockSolve`, whose
    buffers this call makes).
    A non-finite entry in a row gives non-finite output in that row only.
    """
    if tables.matrix is not None:
        return rows @ tables.matrix
    solve = BlockSolve(tables, rows.size // tables.points)
    solve.rows[:] = rows.reshape(solve.rows.shape)
    return solve().reshape(rows.shape)


class BlockSolve:
    """The products of one solve with tables that have carries on ``height``
    rows, on buffers made once: write the rows into ``rows``, call, and read the
    solution from the returned ``out``, which the next call overwrites.  The
    rows sit zero-padded to nb * B points, and the parts, the carries and their
    spread into the blocks have buffers of the shapes :func:`solve_resolvent`
    documents.  :func:`row_solver` makes one for a whole sweep of one-row
    solves, so each step runs the products of :func:`solve_resolvent` in the
    same order with no allocation."""

    def __init__(self, tables: ResolventTables, height: int):
        count, length = tables.blocks.shape[:2]
        x, result = np.zeros((height, count * length)), np.empty((height, count * length))
        parts = np.empty((count, height, length + 2))
        carries = np.empty((2, count, height))
        spread = np.empty((count, height, length))
        self._products = (
            (x.reshape(-1, count, length).transpose(1, 0, 2), tables.blocks, parts),
            (tables.decay, parts[..., length:].transpose(2, 0, 1), carries),
            (carries.transpose(1, 2, 0), tables.weights, spread),
        )
        self._sum = (parts[..., :length], spread, result.reshape(-1, count, length).transpose(1, 0, 2))
        self.rows, self.out = x[:, : tables.points], result[:, : tables.points]

    def __call__(self) -> np.ndarray:
        for a, b, out in self._products:
            np.matmul(a, b, out=out)
        np.add(*self._sum)
        return self.out


def row_solver(tables: ResolventTables):
    """The one-row solve of a sweep that makes one per step, as
    :func:`solve_resolvent` makes it: up to 128 points the product with G;
    beyond, one :class:`BlockSolve` of one row whose buffers every call reuses,
    so that a result holds only until the next call."""
    if tables.matrix is not None:
        matrix = tables.matrix
        return lambda row: row @ matrix
    solve = BlockSolve(tables, 1)
    rows, out = solve.rows[0], solve.out[0]

    def step(row):
        rows[:] = row
        solve()
        return out

    return step


def solve_stiffness(triple: DiscreteGelfandTriple, w: np.ndarray) -> np.ndarray:
    """Riesz map V* -> V: K^-1 applied to nodal rows (batched) by the triple's
    Green's matrix."""
    w = np.asarray(w)
    _check_width(triple, w)
    return solve_resolvent(triple.green, w)


def solve_shifted_stiffness(triple: DiscreteGelfandTriple, tau, shift, rhs, step=None):
    """Solve (I + tau*K - diag(shift)) x = rhs for one nodal vector.

    The Thomas algorithm on the tridiagonal matrix, as a plain float loop: at
    every size from a handful of points to thousands it beats assembling the
    matrix for a dense solve.  No pivoting: the shift may be positive, so the
    matrix need not be diagonally dominant, and a zero or non-finite pivot
    raises SolverError carrying ``step`` (the caller's time-step index).
    The sweep and back-substitution overwrite the lists of the diagonal and rhs.
    """
    off = tau / triple.dx**2
    ratios = (1.0 + 2.0 * off - shift).tolist()  # the diagonal, then the ratios
    ys = rhs.tolist()
    ratio = y = pivots = 0.0
    try:
        for i, b in enumerate(ys):
            pivot = ratios[i] - off * ratio
            pivots += pivot  # turns non-finite with the first non-finite pivot
            ratios[i] = ratio = off / pivot
            ys[i] = y = (b + off * y) / pivot
    except ZeroDivisionError:
        pivots = math.nan
    if not math.isfinite(pivots):
        raise SolverError(
            f"zero or non-finite pivot in the tridiagonal solve at time step {step}", step=step
        )
    for i in range(len(ys) - 2, -1, -1):
        ys[i] = y = ys[i] + ratios[i] * y
    return np.array(ys)


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


def check_trajectory(traj, grid: TimeGrid, width: int, name: str) -> Trajectory:
    """traj as a trajectory of ``width`` on ``grid``, or ValidationError."""
    if not (isinstance(traj, Trajectory) and traj.grid == grid and traj.width == width):
        raise ValidationError(f"{name} must be a trajectory of shape {(grid.node_count, width)} on the grid")
    return traj


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
    loads = np.empty((0, triple.interior_points))
    if source is not None:
        check_trajectory(source, grid, triple.interior_points, "source")
        loads = to_modes(triple, source.values[1:])
    c = march_modes(march_tables(triple, grid), to_modes(triple, v0), loads, grid.step_count)
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
    loads = np.empty((0, triple.interior_points))
    if source is not None:
        check_trajectory(source, grid, triple.interior_points, "source")
        loads = to_modes(triple, source.values[-2::-1])
    # the backward march is a forward one on the time-reversed nodes
    tables = march_tables(triple, grid)
    out = march_modes(tables, to_modes(triple, v_final), loads, grid.step_count)[::-1]
    return Trajectory(grid, from_modes(triple, out), "state")


@dataclass(frozen=True)
class MarchTables:
    """What :func:`march_modes` needs of one (triple, grid) pair, tabulated once:
    with d = 1 + tau * lam and B steps per block, ``growth`` holds tau d^(i-1)
    on rows i = 1..B, ``shrink`` d^-k on rows k = 0..B and ``prefix`` the
    (B + 1)-square lower triangle of ones, all C-contiguous.  The tables hold
    no step count: a march reads it from its loads and ``steps``."""

    growth: np.ndarray
    shrink: np.ndarray
    prefix: np.ndarray


# d^-B >= 1e-200 keeps shrink factors normal and scaled loads within 1e200 |l|, about
# 1e100 of headroom for loads.  The cap bounds the O(B^2 n) product: up to n = 236 a
# 64-step block's (B + 1)^2 n stays under OpenBLAS's small-matrix cutoff
# (M * N * K <= 1e6), and N = 100 takes blocks of 64 and 36 steps, about half the
# flops of one 100-step block (42 against 62 us per march at n = 100, one BLAS thread)
_BLOCK_RANGE, _BLOCK_CAP = 1e-200, 64


def march_tables(triple: DiscreteGelfandTriple, grid: TimeGrid) -> MarchTables:
    """Tabulate the blocks of :func:`march_modes`.  B is the largest length up to
    min(N, 64) with d^-B >= 1e-200 for the stiffest mode, and at least 1; powers
    are compared, not logarithms, so a d that rounds to 1 gives the full length.
    At n_x = N = 100 the tables take 0.14 MB (B = 64)."""
    d = 1.0 + grid.tau * triple.eigenvalues
    k = np.arange(min(grid.node_count - 1, _BLOCK_CAP) + 1)[:, None]
    shrink = d ** -k
    length = max(1, np.count_nonzero(shrink[:, -1] >= _BLOCK_RANGE) - 1)
    growth = grid.tau * d ** k[:length]
    return MarchTables(growth, shrink[: length + 1], np.tri(length + 1))


def march_modes(tables: MarchTables, start, loads: np.ndarray, steps=None) -> np.ndarray:
    """Implicit-Euler march in the eigenbasis of K, where every mode decays alone.

    Returns c of shape (steps + 1, width) with c^0 = start and c^k =
    (c^{k-1} + tau * loads[k-1]) / d for k = 1..steps.  ``loads`` is a block of
    S rows, as for :func:`march_nodes`, and zero past them: an empty (0, width)
    block with ``steps`` given is a decay.  steps defaults to S.  start and the
    loads are modal coefficients (:func:`to_modes` of nodal rows).
    ``tables`` comes from :func:`march_tables`: an operator that marches often
    tabulates once, any other caller builds them for the call.
    From the carry c^r a block of B steps is the scaled prefix sum
    c^{r+k} = d^-k (c^r + sum_{i=1..k} tau d^(i-1) loads[r+i-1]), one triangular
    product ``shrink * (prefix @ x)`` with x = (c^r, the scaled loads); its last
    row carries into the next block.  Past the loads a block is the decay
    c^{r+k} = d^-k c^r, one product with ``shrink``.  Loads beyond about 1e100
    can overflow a block, which gives non-finite rows, never finite wrong ones.
    """
    loaded = loads.shape[0]
    steps = loaded if steps is None else steps
    length = tables.growth.shape[0]
    c = np.empty((steps + 1, tables.shrink.shape[1]))
    c[0] = start
    x = np.empty(tables.shrink.shape)
    for r in range(0, loaded, length):
        b = min(length, loaded - r)
        x[0] = c[r]
        np.multiply(tables.growth[:b], loads[r : r + b], out=x[1 : b + 1])
        block = c[r : r + b + 1]
        np.matmul(tables.prefix[: b + 1, : b + 1], x[: b + 1], out=block)
        block *= tables.shrink[: b + 1]
    for r in range(loaded, steps, length):
        b = min(length, steps - r)
        np.multiply(tables.shrink[1 : b + 1], c[r], out=c[r + 1 : r + b + 1])
    return c


def march_nodes(tables: ResolventTables, tau: float, start, loads: np.ndarray, steps=None) -> np.ndarray:
    """The march of :func:`march_modes` on nodal rows, one solve per step with
    ``tables`` from :func:`resolvent_tables`: c^0 = start and
    c^k = (I + tau K)^-1 (c^{k-1} + tau * loads[k-1]) for k = 1..steps, the loads
    zero past their S rows (a decay); steps defaults to S.  The steps share one
    :func:`row_solver`, so beyond 128 points they run in one set of buffers."""
    loaded = loads.shape[0]
    steps = loaded if steps is None else steps
    loads = tau * loads
    c = np.empty((steps + 1, tables.points))
    c[0] = start
    solve = row_solver(tables)
    for k in range(1, steps + 1):
        c[k] = solve(c[k - 1] + loads[k - 1] if k <= loaded else c[k - 1])
    return c


def inner_state_modes(triple: DiscreteGelfandTriple, tau: float, a, b) -> float:
    """:func:`inner_state` of two states given by their modal coefficients c = u q:
    graph rows (c^{n+1} - c^n)/tau + lam c^{n+1} (formed once when b is a), paired
    where K is diagonal, and the initial term dx c^0 . c'^0 (q is orthonormal)."""
    lam = triple.eigenvalues
    rows = [(c[1:] - c[:-1]) / tau + lam * c[1:] for c in ((a,) if b is a else (a, b))]
    pairing = triple.dx * float(np.vdot(rows[0] / lam, rows[-1]))
    return tau * pairing + triple.dx * float(a[0] @ b[0])


def inner_state_nodes(triple: DiscreteGelfandTriple, tau: float, a, b) -> float:
    """:func:`inner_state` of two states given by their nodal rows: the graph rows
    (v^{n+1} - v^n)/tau + K v^{n+1} of b by the stencil, paired with their K^-1
    image for a, K^-1 (u^{n+1} - u^n)/tau + u^{n+1}, in one Green's solve, and the
    initial term dx u^0 . v^0.  K^-1 of a's whole graph rows would cancel K^-1 K u
    in rounding, up to 2.1e-12 relative at n = 896."""
    rows = (b[1:] - b[:-1]) / tau + apply_stiffness(triple, b[1:])
    riesz = solve_resolvent(triple.green, (a[1:] - a[:-1]) / tau) + a[1:]
    pairing = triple.dx * float(np.vdot(riesz, rows))
    return tau * pairing + triple.dx * float(a[0] @ b[0])


def inner_state(triple: DiscreteGelfandTriple, u: Trajectory, v: Trajectory) -> float:
    """Graph inner product on state trajectories.

    Sum of tau * (du + Ku, dv + Kv)_{V*} over steps plus the H product of the
    initial values; this is the Hilbert structure in which the all-at-once
    adjoint is taken (:func:`inner_state_nodes`).
    """
    _same_grid(u, v)
    return inner_state_nodes(triple, u.grid.tau, u.values, v.values)


def inner_dual_load(triple: DiscreteGelfandTriple, w: Trajectory, v: Trajectory) -> float:
    """L2(0,T; V*) inner product, right-endpoint quadrature (node 0 weightless):
    tau * dx * <K^-1 w, v> over nodes 1..N, one Green's solve."""
    _same_grid(w, v)
    pairing = triple.dx * float(np.vdot(solve_resolvent(triple.green, w.values[1:]), v.values[1:]))
    return w.grid.tau * pairing


def inner_observation(triple: DiscreteGelfandTriple, z: Trajectory, y: Trajectory) -> float:
    """L2(0,T; H) inner product, right-endpoint quadrature (node 0 weightless)."""
    _same_grid(z, y)
    tau, dx = z.grid.tau, triple.dx
    return tau * dx * float(np.vdot(z.values[1:], y.values[1:]))


def norm_dual_load(triple, w):
    return float(np.sqrt(max(inner_dual_load(triple, w, w), 0.0)))


def norm_observation(triple, z):
    return float(np.sqrt(max(inner_observation(triple, z, z), 0.0)))


def norm_l2_v(triple: DiscreteGelfandTriple, tau: float, v: np.ndarray) -> float:
    """L2(0,T; V) norm of a state given by its rows v on nodes 1..N, with the same
    right-endpoint quadrature."""
    return math.sqrt(max(tau * triple.dx * float(np.vdot(v, apply_stiffness(triple, v))), 0.0))
