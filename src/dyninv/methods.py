"""The six iteration drivers, their inner solvers, and the run loop.

Method tags: aLW / aLWK / aIRGNM operate on the joint (state, parameter)
unknown; rLW / rLWK / rIRGNM operate on the parameter alone.  Both IRGNM
variants solve the regularized normal equations by conjugate gradients with
matrix-free operator applications.  The joint CG holds its state part in the
all-at-once operator's own coordinates, which the operator picks from the size
(:meth:`~dyninv.aao.AllAtOnceOperator.to_nodes`); this module has one path.
One loop runs every tag: :func:`run` checks its inputs and resolves the
formulation and the tag's update before it, and each pass evaluates, records,
tests the stops and times one update; the operators and hooks check no shapes.
"""

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .aao import AaoPoint, AllAtOnceOperator, ResidualTriple, zero_point
from .errors import InnerSolveError, SolverError, ValidationError, require_finite
from .grids import KaczmarzPartition, TimeGrid, require_partition
from .problem import SemilinearDiffusion
from .reduced import ReducedOperator
from .spaces import (
    DiscreteGelfandTriple,
    Trajectory,
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
        if self.m < 1 or self.k_max < 0 or self.cg_max < 1:
            raise ValidationError("m and cg_max must be >= 1 and k_max >= 0")
        if self.k_apriori is not None and self.k_apriori < 0:
            raise ValidationError(f"k_apriori must be >= 0, got {self.k_apriori}")


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


def step_aao_landweber(op: AllAtOnceOperator, point, y, mu, resid=None):
    """One joint Landweber update; reuses a precomputed residual if given."""
    if resid is None:
        resid = op.residual(point, y)
    return _descend(op, point, mu, op.adjoint_coords(point, resid))


def step_aao_landweber_kaczmarz(op, point, y, mu, k, resid=None):
    """One cyclic slab update; the slab is k mod m, the residual the full one."""
    if resid is None:
        resid = op.residual(point, y)
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


def step_aao_irgnm(op, point, y, alpha, prior, cg_tol=1e-8, cg_max=500, resid=None):
    """Regularized Gauss-Newton step via CG on the joint normal equations,
    run in the operator's state coordinates (see :func:`_joint_maps`)."""
    grid = op.grid
    forward, adjoint, pair_inner = _joint_maps(op, point)

    def normal_apply(flat):
        return adjoint(forward(flat)) + alpha * flat

    if resid is None:
        resid = op.residual(point, y)
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
    trajectories of shape (N + 1, n) on the grid; every theta has n_theta entries.

    Everything about the tag is resolved once, before the loop: the start, the
    evaluation of an iterate (its four residual norms, (theta, state) and what
    its update reads) and the update, which calls its step function by name.
    """
    if not 0 <= delta < math.inf:
        raise ValidationError(f"noise level must be finite and nonnegative, got {delta}")
    tag, sweep_len = config.tag, 1
    if tag in ("aLWK", "rLWK"):
        if instance.partition is None or instance.partition.slab_count != config.m:
            raise ValidationError(
                f"config requests m={config.m} but the instance partition has "
                f"{None if instance.partition is None else instance.partition.slab_count} slabs"
            )
        sweep_len = config.m
    grid, triple, problem = instance.grid, instance.triple, instance.problem
    _check_trajectory(y_data, grid, triple, "observation data")
    if truth is not None:
        truth_theta = _check_theta(truth[0], problem, "truth parameter")
        truth_rows = _check_trajectory(truth[1], grid, triple, "truth state").values[1:]

    if tag in AAO_TAGS:
        op = instance.aao
        if start is not None and not isinstance(start, AaoPoint):
            raise ValidationError(f"{tag} starts from a joint point, got {type(start).__name__}")
        x = zero_point(triple, grid, problem) if start is None else AaoPoint(
            _check_trajectory(start.state, grid, triple, "start state"),
            _check_theta(start.theta, problem, "start parameter"),
        )

        def evaluate(point):
            resid = op.residual(point, y_data)
            return op.residual_norms(resid), point.theta, point.state, resid
    else:
        op = instance.reduced
        x = np.zeros(problem.n_theta) if start is None else _check_theta(start, problem, "start").copy()

        def evaluate(theta):
            y_pred, state = op.forward(theta)
            z = Trajectory(grid, y_pred.values - y_data.values, "observation")
            res_y = norm_observation(triple, z)
            return (0.0, 0.0, res_y, res_y), theta, state, (z, state)

    prior = _resolve_prior(config, triple, grid, problem)
    evaluated = evaluate(x)
    mu = config.mu if config.stepsize == "fixed" else _norm_stepsize(config, instance, x, evaluated[2])
    cg = (config.cg_tol, config.cg_max)

    def alpha(k):
        return config.alpha0 * config.q**k

    # x -> x_{k+1} from what evaluate(x) returned for the update to read: the
    # joint residual, or the reduced residual z and the state
    step = {
        "aLW": lambda x, k, r: step_aao_landweber(op, x, y_data, mu, resid=r),
        "aLWK": lambda x, k, r: step_aao_landweber_kaczmarz(op, x, y_data, mu, k, resid=r),
        "aIRGNM": lambda x, k, r: step_aao_irgnm(op, x, y_data, alpha(k), prior, *cg, resid=r),
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


def _check_trajectory(traj, grid, triple, name):
    shape = (grid.node_count, triple.interior_points)
    if not (isinstance(traj, Trajectory) and traj.grid == grid and traj.values.shape == shape):
        raise ValidationError(f"{name} must be a trajectory of shape {shape} on the run's grid")
    return traj


def _check_theta(theta, problem, name):
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (problem.n_theta,):
        raise ValidationError(f"{name} must have shape ({problem.n_theta},), got {theta.shape}")
    return theta


def _resolve_prior(config, triple, grid, problem):
    """The IRGNM prior as a joint point; an unset part is zero."""
    state, theta = config.prior_state, config.prior_theta
    state = np.zeros((grid.node_count, triple.interior_points)) if state is None else state
    theta = np.zeros(problem.n_theta) if theta is None else theta
    return AaoPoint(Trajectory(grid, state, "state"), np.asarray(theta, dtype=float))


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
