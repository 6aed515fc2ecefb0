"""The six iteration drivers, their inner solvers, and the run loop.

Method tags: aLW / aLWK / aIRGNM operate on the joint (state, parameter)
unknown; rLW / rLWK / rIRGNM operate on the parameter alone.  Both IRGNM
variants solve the regularized normal equations by conjugate gradients with
matrix-free operator applications.  The joint CG holds its state part in the
all-at-once operator's own coordinates, which the operator picks from the size
(:meth:`~dyninv.aao.AllAtOnceOperator.to_nodes`); this module has one path.
One loop runs every tag: :func:`run` checks its inputs and resolves the
formulation and the tag's update before it, and each pass evaluates, records,
tests the stops and times one update.  Each input rule has one owner, which run
calls (:func:`check_prior` owns the IRGNM prior); the public operator methods
also check their theta and state per call, for direct callers.
"""

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .aao import AaoPoint, AllAtOnceOperator, ResidualTriple, zero_point
from .errors import InnerSolveError, SolverError, ValidationError, require_count, require_finite, require_noise_levels
from .grids import KaczmarzPartition, TimeGrid, require_partition
from .problem import SemilinearDiffusion
from .reduced import ReducedOperator
from .spaces import (
    DiscreteGelfandTriple,
    Trajectory,
    check_trajectory,
    norm_l2_v,
    norm_observation,
)

AAO_TAGS = ("aLW", "aLWK", "aIRGNM")
REDUCED_TAGS = ("rLW", "rLWK", "rIRGNM")
METHOD_TAGS = AAO_TAGS + REDUCED_TAGS


@dataclass
class MethodConfig:
    """Knobs shared by all six methods; unused ones are ignored per method."""

    tag: str = "rLW"
    mu: float = 1.0
    stepsize: str = "fixed"  # or "norm": mu = 0.95 / ||derivative||^2 at the start
    alpha0: float = 1.0
    q: float = 2.0 / 3.0
    tau_disc: float = 2.5
    k_max: int = 100
    m: int = 1
    cg_tol: float = 1e-8
    cg_max: int = 500
    k_apriori: int | None = None
    prior_theta: np.ndarray | None = None
    prior_state: np.ndarray | None = None

    def __post_init__(self):
        if self.tag not in METHOD_TAGS:
            raise ValidationError(f"unknown method tag {self.tag!r}")
        require_finite(self, ("mu", "alpha0", "tau_disc", "cg_tol"))
        if not 0.0 < self.q < 1.0:
            raise ValidationError(f"q must lie in (0,1), got {self.q}")
        if not self.tau_disc > 1.0:
            raise ValidationError(f"tau_disc must exceed 1, got {self.tau_disc}")
        for name in ("mu", "alpha0", "cg_tol"):  # cg_tol > 0 ends CG; alpha0 > 0 keeps it SPD
            if not getattr(self, name) > 0.0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.stepsize not in ("fixed", "norm"):
            raise ValidationError(f"unknown stepsize policy {self.stepsize!r}")
        require_count(self.m, "m")
        require_count(self.cg_max, "cg_max")
        require_count(self.k_max, "k_max", least=0)
        if self.k_apriori is not None:
            require_count(self.k_apriori, "k_apriori", least=0)


@dataclass
class IterationRow:
    k: int
    res_total: float
    res_w: float
    res_h: float
    res_y: float
    err_theta: float
    err_u_L2V: float
    step_ms: float = 0.0


@dataclass
class RunRecord:
    """Per-iteration history of a run plus the final iterate."""

    method: str
    rows: list = field(default_factory=list)
    k_star: int = 0
    stop_reason: str = "k_max"
    metadata: dict = field(default_factory=dict)  # what the run resolved: mu and delta
    theta_final: np.ndarray | None = None
    state_final: Trajectory | None = None

    def column(self, name):
        return np.array([getattr(r, name) for r in self.rows])


@dataclass
class ProblemInstance:
    """Discretisation plus the two operator views of one inverse problem."""

    problem: SemilinearDiffusion
    triple: DiscreteGelfandTriple
    grid: TimeGrid
    partition: KaczmarzPartition | None
    aao: AllAtOnceOperator
    reduced: ReducedOperator


# -- generic inner solvers -------------------------------------------------------


def conjugate_gradient(apply_op, rhs, inner, tol=1e-8, max_iter=500):
    """CG for an operator that is SPD with respect to the given inner product.

    Returns (solution, iterations).  Raises InnerSolveError when the cap is
    reached before the relative residual drops below tol.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    rho = inner(r, r)
    rhs_norm = np.sqrt(rho)
    if rhs_norm == 0.0:
        return x, 0
    d = r.copy()
    for it in range(1, max_iter + 1):
        ad = apply_op(d)
        alpha = rho / inner(d, ad)
        x = x + alpha * d
        r = r - alpha * ad
        rho_new = inner(r, r)
        if np.sqrt(rho_new) <= tol * rhs_norm:
            return x, it
        d = r + (rho_new / rho) * d
        rho = rho_new
    raise InnerSolveError(
        f"conjugate gradients did not reach tol {tol} within {max_iter} iterations",
        achieved=float(np.sqrt(rho) / rhs_norm),
    )


def estimate_operator_norm(forward, adjoint, inner, start, trials=50, stall_tol=1e-6):
    """Power iteration on adjoint∘forward; returns the operator-norm estimate.

    Stops after the requested trials or upon relative stagnation of the
    dominant-eigenvalue estimate.
    """
    y = np.asarray(start, dtype=float).copy()
    ny = np.sqrt(inner(y, y))
    if ny == 0.0:
        raise ValidationError("start vector must be nonzero")
    y = y / ny
    lam = 0.0
    for _ in range(max(trials, 1)):
        z = adjoint(forward(y))
        lam_new = inner(y, z)
        nz = np.sqrt(inner(z, z))
        if nz == 0.0:
            return 0.0
        y = z / nz
        if lam > 0.0 and abs(lam_new - lam) <= stall_tol * abs(lam_new):
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(max(lam, 0.0)))


# -- flattening helpers for the joint unknown -------------------------------------


def _flatten(du: np.ndarray, dtheta: np.ndarray) -> np.ndarray:
    return np.concatenate([du.ravel(), dtheta])


def _split(flat, grid, width):
    cut = grid.node_count * width
    return flat[:cut].reshape(grid.node_count, width), flat[cut:]


def _joint_maps(op: AllAtOnceOperator, point: AaoPoint):
    """On flattened joint unknowns: the derivative at point, its adjoint, and
    the inner product (graph product plus parameter product).

    The state part of a joint vector is in the operator's coordinates, which
    :meth:`~dyninv.aao.AllAtOnceOperator.inner_coords` pairs.  The derivative
    takes it to nodes and the adjoint keeps the coordinates it marched in.
    Below the operator's size cut these are modal coefficients c = u q, and a
    CG iteration costs two basis products: the one to nodes and the adjoint's
    stacked product of its loads.  From the cut on they are nodal values, and
    it costs none.
    """
    grid, problem, width = op.grid, op.problem, point.state.width

    def forward(flat):
        c, dtheta = _split(flat, grid, width)
        return op.derivative(point, Trajectory(grid, op.to_nodes(c), "state"), dtheta)

    def adjoint(resid):
        return _flatten(*op.adjoint_coords(point, resid))

    def pair_inner(a, b):
        ca, ta = _split(a, grid, width)
        cb, tb = (ca, ta) if b is a else _split(b, grid, width)
        return op.inner_coords(ca, cb) + problem.inner_theta(ta, tb)

    return forward, adjoint, pair_inner


# -- single steps ------------------------------------------------------------------


def step_aao_landweber(op: AllAtOnceOperator, point, resid, mu):
    """One joint Landweber update from the residual resid = F(point) - data."""
    return _descend(op, point, mu, op.adjoint_coords(point, resid))


def step_aao_landweber_kaczmarz(op, point, resid, mu, k):
    """One cyclic slab update from the full residual; the slab is k mod m."""
    part = require_partition(op.partition)
    return _descend(op, point, mu, op.adjoint_coords(point, resid, part.node_range(part.slab_index(k))))


def _descend(op, point, mu, direction):
    """x - mu * direction, the direction as :meth:`AllAtOnceOperator.adjoint_coords` returns it."""
    dh, dtheta = direction
    du = op.to_nodes(dh)  # a new array on either side of the size cut
    du *= mu
    dtheta *= mu
    state = Trajectory(op.grid, np.subtract(point.state.values, du, out=du), "state")
    return AaoPoint(state, np.subtract(point.theta, dtheta, out=dtheta))


def step_aao_irgnm(op, point, resid, alpha, prior, cg_tol=1e-8, cg_max=500):
    """Regularized Gauss-Newton step from the residual at point via CG on the
    joint normal equations, run in the operator's state coordinates (see
    :func:`_joint_maps`)."""
    grid = op.grid
    forward, adjoint, pair_inner = _joint_maps(op, point)

    def normal_apply(flat):
        return adjoint(forward(flat)) + alpha * flat

    shift_state = Trajectory(grid, point.state.values - prior.state.values, "state")
    shift_theta = point.theta - prior.theta
    lin = op.derivative(point, shift_state, shift_theta)
    rhs_triple = ResidualTriple(
        Trajectory(grid, lin.model.values - resid.model.values, "dual_load"),
        lin.initial - resid.initial,
        Trajectory(grid, lin.observation.values - resid.observation.values, "observation"),
    )
    rhs = adjoint(rhs_triple)
    sol, _ = conjugate_gradient(normal_apply, rhs, pair_inner, tol=cg_tol, max_iter=cg_max)
    c, dtheta = _split(sol, grid, point.state.width)
    du = op.to_nodes(c)
    return AaoPoint(
        Trajectory(grid, prior.state.values + du, "state"), prior.theta + dtheta
    )


def step_reduced_landweber(op: ReducedOperator, theta, z, state, mu):
    """One reduced Landweber update from a precomputed residual z = F - data."""
    return theta - mu * op.adjoint(theta, state, z)


def step_reduced_landweber_kaczmarz(op, theta, z, state, mu, k):
    """One cyclic reduced slab update from the full residual z; the slab is k mod m."""
    j = require_partition(op.partition).slab_index(k)
    return theta - mu * op.slab_adjoint(theta, state, z, j)


def step_reduced_irgnm(op, theta, z, state, alpha, theta_bar, cg_tol=1e-8, cg_max=500):
    """Regularized Gauss-Newton step via CG on the parameter normal equations."""

    def normal_apply(xi):
        out = op.derivative(theta, state, xi)
        return op.adjoint(theta, state, out) + alpha * xi

    lin = op.derivative(theta, state, theta - theta_bar)
    rhs_traj = Trajectory(op.grid, lin.values - z.values, "observation")
    rhs = op.adjoint(theta, state, rhs_traj)
    sol, _ = conjugate_gradient(
        normal_apply, rhs, op.problem.inner_theta, tol=cg_tol, max_iter=cg_max
    )
    return theta_bar + sol


# -- run loop ---------------------------------------------------------------------


def run(
    config: MethodConfig,
    instance: ProblemInstance,
    y_data: Trajectory,
    delta: float,
    truth=None,
    start=None,
) -> RunRecord:
    """Iterate the configured method with discrepancy or iteration-cap stopping.

    Rows are recorded at every visited iterate (k = 0 .. stopping index); the
    terminal row has step_ms = 0.  For the joint methods the recorded residual
    is the full three-channel norm, for the reduced ones the observation norm.
    Kaczmarz variants test the discrepancy once per completed sweep.  A
    non-finite residual ends the run with stop_reason 'diverged' and raises
    SolverError; like an inner-solver failure, ``exc.record`` keeps the rows.

    Inputs are checked here, once, before any iteration (ValidationError):
    ``y_data`` and the states of ``start`` and ``truth`` = (theta, state) are
    trajectories of shape (N + 1, n) on the grid, every theta has n_theta
    entries, ``delta`` is a noise level and the config's prior passes
    :func:`check_prior`.

    Everything about the tag is resolved once, before the loop: the start, the
    evaluation of an iterate (its four residual norms, (theta, state) and what
    its update reads) and the update, which calls its step function by name.
    """
    require_noise_levels(delta)
    tag, sweep_len = config.tag, 1
    if tag in ("aLWK", "rLWK"):
        if instance.partition is None or instance.partition.slab_count != config.m:
            raise ValidationError(
                f"config requests m={config.m} but the instance partition has "
                f"{None if instance.partition is None else instance.partition.slab_count} slabs"
            )
        sweep_len = config.m
    grid, triple, problem = instance.grid, instance.triple, instance.problem
    width = triple.interior_points
    check_trajectory(y_data, grid, width, "observation data")
    if truth is not None:
        truth_theta = problem.check_theta(truth[0], "truth parameter")
        truth_rows = check_trajectory(truth[1], grid, width, "truth state").values[1:]

    if tag in AAO_TAGS:
        op = instance.aao
        if start is not None and not isinstance(start, AaoPoint):
            raise ValidationError(f"{tag} starts from a joint point, got {type(start).__name__}")
        x = zero_point(triple, grid, problem) if start is None else AaoPoint(
            check_trajectory(start.state, grid, width, "start state"),
            problem.check_theta(start.theta, "start parameter"),
        )

        def evaluate(point):
            resid = op.residual(point, y_data)
            return op.residual_norms(resid), point.theta, point.state, resid
    else:
        op = instance.reduced
        x = np.zeros(problem.n_theta) if start is None else problem.check_theta(start, "start").copy()

        def evaluate(theta):
            state = op.solve_state(theta)
            z = Trajectory(grid, state.values - y_data.values, "observation")
            res_y = norm_observation(triple, z)
            return (0.0, 0.0, res_y, res_y), theta, state, (z, state)

    prior_state, prior_theta = check_prior(config, grid.node_count, width)
    prior = AaoPoint(Trajectory(grid, prior_state, "state"), prior_theta)
    evaluated = evaluate(x)
    mu = config.mu if config.stepsize == "fixed" else _norm_stepsize(config, instance, x, evaluated[2])
    cg = (config.cg_tol, config.cg_max)

    def alpha(k):
        return config.alpha0 * config.q**k

    # x -> x_{k+1} from what evaluate(x) returned for the update to read: the
    # joint residual, or the reduced residual z and the state
    step = {
        "aLW": lambda x, k, r: step_aao_landweber(op, x, r, mu),
        "aLWK": lambda x, k, r: step_aao_landweber_kaczmarz(op, x, r, mu, k),
        "aIRGNM": lambda x, k, r: step_aao_irgnm(op, x, r, alpha(k), prior, *cg),
        "rLW": lambda x, k, r: step_reduced_landweber(op, x, *r, mu),
        "rLWK": lambda x, k, r: step_reduced_landweber_kaczmarz(op, x, *r, mu, k),
        "rIRGNM": lambda x, k, r: step_reduced_irgnm(op, x, *r, alpha(k), prior.theta, *cg),
    }[tag]

    record = RunRecord(method=tag, metadata={"mu": mu, "delta": delta})
    tau, bound = grid.tau, config.tau_disc * delta
    k, failure = 0, None
    while True:
        (res_w, res_h, res_y, res_total), theta, state, reads = evaluated
        err_theta = err_u = float("nan")
        if truth is not None:
            err_theta = problem.norm_theta(theta - truth_theta)
            err_u = norm_l2_v(triple, tau, state.values[1:] - truth_rows)
        row = IterationRow(k, res_total, res_w, res_h, res_y, err_theta, err_u)
        record.rows.append(row)

        if not math.isfinite(res_total):
            reason = "diverged"
            failure = SolverError(f"{tag} diverged: residual {res_total} at iteration {k}")
            break
        if k % sweep_len == 0 and res_total <= bound:
            reason = "discrepancy"
            break
        if config.k_apriori is not None and k >= config.k_apriori:
            reason = "a-priori"
            break
        if k >= config.k_max:
            reason = "k_max"
            break

        tic = time.perf_counter()
        try:
            x = step(x, k, reads)
        except SolverError as exc:
            # abort but keep what was measured so far
            reason, failure = "error", exc
            break
        row.step_ms = (time.perf_counter() - tic) * 1e3
        k += 1
        evaluated = evaluate(x)

    record.k_star, record.stop_reason = k, reason
    record.theta_final = theta.copy()
    record.state_final = state
    if failure is not None:
        failure.record = record
        raise failure
    return record


def check_prior(config: MethodConfig, node_count: int, width: int):
    """The IRGNM prior of ``config`` as float arrays (state rows, theta), an unset
    part zero; ValidationError unless each set part is finite, of shape
    (node_count, width) and (width,)."""
    parts = []
    for name, shape in (("prior_state", (node_count, width)), ("prior_theta", (width,))):
        value = getattr(config, name)
        if value is not None and (np.shape(value) != shape or not np.all(np.isfinite(value))):
            raise ValidationError(f"{name} must be finite of shape {shape}, got {np.shape(value)}")
        parts.append(np.zeros(shape) if value is None else np.asarray(value, dtype=float))
    return parts


def _norm_stepsize(config, instance, start, state):
    """mu = 0.95 / ||derivative at the start point||^2, estimated by power iteration;
    the reduced maps read ``state``, which run's first evaluation solved for."""
    rng = np.random.default_rng(12345)
    if config.tag in AAO_TAGS:
        fwd, adj, inner = _joint_maps(instance.aao, start)
        # the nodal random start, mapped once to the state coordinates of the
        # joint maps
        size = start.state.values.size + start.theta.size
        u, t = _split(rng.standard_normal(size), instance.grid, start.state.width)
        y0 = _flatten(instance.aao.from_nodes(u), t)
    else:
        op = instance.reduced
        fwd, adj = partial(op.derivative, start, state), partial(op.adjoint, start, state)
        inner, y0 = op.problem.inner_theta, rng.standard_normal(start.size)
    est = estimate_operator_norm(fwd, adj, inner, y0)
    if est == 0.0:
        return config.mu
    return 0.95 / est**2
