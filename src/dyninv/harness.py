"""Experiment orchestration: truth synthesis, seeded noise, oracles, reports.

The dense oracle assembles every operator and Gram matrix explicitly at tiny
sizes and is the instrument that certifies the matrix-free adjoints; the
orchestration functions wire configs to runs and emit plot-ready CSV files
plus JSON summaries.
"""

import csv
import json
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import get_args

import numpy as np

from .aao import AaoPoint, AllAtOnceOperator, ResidualTriple
from .errors import SelfTestError, ValidationError, require_finite
from .grids import make_partition, make_time_grid
from .methods import AAO_TAGS, IterationRow, MethodConfig, ProblemInstance, RunRecord, run
from .problem import SemilinearDiffusion
from .reduced import ReducedOperator, check_policy
from .spaces import Trajectory, build_triple, norm_dual_load, norm_observation

RECONSTRUCTION_HEADER = ["x", "theta_true", "theta_rec", "u_err_final"]
TRUTH_KINDS = ("sine",)


# -- configuration ------------------------------------------------------------------


# The config file's layout: each JSON section maps its keys to ExperimentConfig
# attributes, and a top-level key names its attribute directly.  The "method"
# section holds MethodConfig's fields by name, except the stepsize policy,
# which "mu": "norm" selects.
CONFIG_LAYOUT = {
    "instance": {"n_x": "n_x", "n_t": "n_t", "T": "horizon", "gain": "gain", "policy": "policy"},
    "truth": {"kind": "truth_kind", "amplitude": "truth_amplitude"},
    "method": {f.name: f.name for f in fields(MethodConfig) if f.name != "stepsize"},
    "noise": {"delta_w": "delta_w", "delta_z": "delta_z", "seed": "seed"},
    "output_dir": "output_dir",
    "start_at_truth": "start_at_truth",
}


@dataclass
class ExperimentConfig:
    """Full description of one experiment; its config file is laid out by ``CONFIG_LAYOUT``."""

    n_x: int = 100
    n_t: int = 100
    horizon: float = 0.1
    gain: float = 10.0
    truth_kind: str = "sine"
    truth_amplitude: float = 0.1
    method: MethodConfig = field(default_factory=MethodConfig)
    delta_w: float = 0.0
    delta_z: float = 0.0
    seed: int = 0
    output_dir: str = "out"
    policy: str = "imex"
    start_at_truth: bool = False

    def __post_init__(self):
        require_finite(self, ("gain", "truth_amplitude", "delta_w", "delta_z"))
        if self.delta_w < 0 or self.delta_z < 0:
            raise ValidationError("noise levels must be nonnegative")
        if self.n_x < 1 or self.n_t < 1 or self.seed < 0:
            raise ValidationError(
                f"need n_x >= 1, n_t >= 1 and seed >= 0, got {self.n_x}, {self.n_t}, {self.seed}"
            )
        check_truth_kind(self.truth_kind)
        check_policy(self.policy)
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValidationError(f"horizon T must be finite and positive, got {self.horizon}")
        if self.n_t % self.method.m:
            raise ValidationError(
                f"slab count m = {self.method.m} does not divide n_t = {self.n_t}"
            )
        shapes = {"prior_theta": (self.n_x,), "prior_state": (self.n_t + 1, self.n_x)}
        for name, shape in shapes.items():
            value = getattr(self.method, name)
            if value is not None and (np.shape(value) != shape or not np.all(np.isfinite(value))):
                raise ValidationError(f"{name} must be finite of shape {shape}, got {np.shape(value)}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`: a key outside ``CONFIG_LAYOUT`` is rejected,
        and a missing one takes its dataclass default."""
        _check_keys(raw, CONFIG_LAYOUT, "config")
        values, method = {}, {}
        for key, attr in CONFIG_LAYOUT.items():
            if key not in raw:
                continue
            if isinstance(attr, str):
                values[attr] = raw[key]
            else:
                _check_keys(raw[key], attr, f"config section {key!r}")
                into = method if key == "method" else values
                into.update((attr[k], v) for k, v in raw[key].items())
        try:
            if method.get("mu") == "norm":
                del method["mu"]
                method["stepsize"] = "norm"
            return cls(method=MethodConfig(**_load(MethodConfig, method)), **_load(cls, values))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"bad config: {exc}") from exc

    def to_dict(self) -> dict:
        """The config file for this experiment, in plain JSON values."""
        out = {}
        for key, attr in CONFIG_LAYOUT.items():
            if isinstance(attr, str):
                out[key] = _plain(getattr(self, attr))
            else:
                owner = self.method if key == "method" else self
                out[key] = {k: _plain(getattr(owner, a)) for k, a in attr.items()}
        if self.method.stepsize == "norm":
            out["method"]["mu"] = "norm"
        return out


def _load(cls, values: dict) -> dict:
    """``values`` converted by the type of each named field of ``cls``: int,
    float, str and bool through :func:`_typed`, arrays through
    :func:`_number_array`, and None (JSON null) kept for an ``X | None``."""
    kinds = {f.name: f.type for f in fields(cls)}
    out = {}
    for name, value in values.items():
        kind, *rest = get_args(kinds[name]) or (kinds[name],)
        if value is None and rest:
            out[name] = None
        else:
            out[name] = _number_array(value) if kind is np.ndarray else _typed(kind, value)
    return out


def _plain(value):
    """``value`` as plain JSON: numpy scalars as Python numbers, arrays as float lists."""
    if isinstance(value, np.ndarray):
        return value.astype(float).tolist()
    return value.item() if isinstance(value, np.generic) else value


def _typed(kind, value):
    """``kind(value)`` for a JSON value of that kind: a str is a string and a
    bool is true/false; an int or a float is any other real number (numpy
    scalars included, numeric strings not), and an int has no fractional part."""
    if kind in (str, bool):
        ok = isinstance(value, kind)
    else:
        ok = _is_number(value) and (kind is float or float(value).is_integer())
    if not ok:
        raise ValidationError(f"expected {kind.__name__}, got {value!r}")
    return kind(value)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number_array(value):
    """A JSON array of numbers as a float array; strings and booleans are rejected."""
    entries = np.asarray(value, dtype=object)
    for entry in entries.flat:
        if not _is_number(entry):
            raise ValidationError(f"expected an array of numbers, found {entry!r}")
    return entries.astype(float)


def _check_keys(raw, known, where):
    if not isinstance(raw, dict):
        raise ValidationError(f"{where} must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ValidationError(f"unknown key(s) in {where}: {', '.join(map(str, unknown))}")


def make_instance(n_x, n_t, horizon, gain, m=1, policy="imex") -> ProblemInstance:
    """Assemble the benchmark instance with both operator views."""
    triple = build_triple(n_x)
    grid = make_time_grid(horizon, n_t)
    partition = make_partition(grid, m)
    problem = SemilinearDiffusion(triple, gain=gain)
    aao = AllAtOnceOperator(problem, triple, grid, partition)
    red = ReducedOperator(problem, triple, grid, partition, policy=policy)
    return ProblemInstance(problem, triple, grid, partition, aao, red)


# -- truth and noise ------------------------------------------------------------------


def synthesize_truth(instance: ProblemInstance, kind="sine", amplitude=0.1):
    """Exact parameter on the interior nodes plus its state and observation.

    The state is marched with the fully implicit solver so the pair satisfies
    the discrete model equation to Newton tolerance; this makes the truth an
    exact zero of the joint residual regardless of the inversion policy.
    """
    triple, grid = instance.triple, instance.grid
    check_truth_kind(kind)
    x = truth_nodes(triple)
    theta = amplitude * np.sin(2.0 * np.pi * x)
    solver = ReducedOperator(instance.problem, triple, grid, policy="newton")
    state = solver.solve_state(theta)
    y = solver.observe(state)
    return theta, state, y


def check_truth_kind(kind):
    if kind not in TRUTH_KINDS:
        raise ValidationError(f"unknown truth kind {kind!r}")


def truth_nodes(triple) -> np.ndarray:
    return triple.dx * np.arange(1, triple.interior_points + 1)


@dataclass
class NoisyDataset:
    """Perturbations with exactly rescaled norms and the resulting noisy data."""

    model_noise: Trajectory
    obs_noise: Trajectory
    y_noisy: Trajectory
    y_exact: Trajectory
    achieved_delta: float
    bound_delta: float
    c_estimate: float
    seed: int


def add_noise(instance: ProblemInstance, y: Trajectory, theta_truth, delta_w, delta_z, seed) -> NoisyDataset:
    """Gaussian nodal noise in both channels, rescaled exactly to the targets.

    ``y`` is the exact observation of ``theta_truth`` (as returned by
    :func:`synthesize_truth`).  The model perturbation re-enters through a
    perturbed state solve, run only when delta_w > 0; with no model noise the
    observation noise is added to ``y`` itself.  The achieved noise level is
    the measured observation-space distance, which the discrepancy principle
    consumes.  The analytic bound c*delta_w + delta_z is reported alongside
    with c estimated from the current draw.
    """
    if not (0 <= delta_w < math.inf and 0 <= delta_z < math.inf):
        raise ValidationError(
            f"noise levels must be finite and nonnegative, got {delta_w}, {delta_z}"
        )
    triple, grid = instance.triple, instance.grid
    rng = np.random.default_rng(seed)
    w_noise = _scaled_noise(rng, instance, delta_w, "dual_load", norm_dual_load)
    z_noise = _scaled_noise(rng, instance, delta_z, "observation", norm_observation)

    y_pert, c_est = y, 0.0
    if delta_w > 0:
        solver = ReducedOperator(instance.problem, triple, grid, policy="newton")
        y_pert = solver.observe(solver.solve_state(theta_truth, perturbation=w_noise))
        shift = Trajectory(grid, y.values - y_pert.values, "observation")
        c_est = norm_observation(triple, shift) / delta_w
    y_noisy = Trajectory(grid, y_pert.values + z_noise.values, "observation")

    diff = Trajectory(grid, y_noisy.values - y.values, "observation")
    achieved = norm_observation(triple, diff)
    return NoisyDataset(
        w_noise, z_noise, y_noisy, y, achieved, c_est * delta_w + delta_z, c_est, seed
    )


def _scaled_noise(rng, instance, delta, space_tag, norm):
    """Standard normal rows 1..N rescaled to norm delta; all zero, with no draw, for delta 0."""
    grid, n = instance.grid, instance.triple.interior_points
    vals = np.zeros((grid.node_count, n))
    if delta > 0:
        vals[1:] = rng.standard_normal((grid.step_count, n))
        vals = vals * (delta / norm(instance.triple, Trajectory(grid, vals, space_tag)))
    return Trajectory(grid, vals, space_tag)


# -- dense oracle ---------------------------------------------------------------------


class DenseOracle:
    """Explicit matrices for every operator and inner product at tiny sizes.

    Column-by-column assembly through the matrix-free forward applications;
    adjoints follow as Gram-weighted transposes, so any matrix-free adjoint
    can be checked against an independent dense realization.
    """

    MAX_NX = 12
    MAX_STEPS = 8

    def __init__(self, instance: ProblemInstance):
        triple, grid = instance.triple, instance.grid
        if triple.interior_points > self.MAX_NX or grid.step_count > self.MAX_STEPS:
            raise ValidationError(
                f"dense oracle limited to n_x <= {self.MAX_NX}, steps <= {self.MAX_STEPS}"
            )
        self.instance = instance
        self.triple = triple
        self.grid = grid
        self.width = triple.interior_points
        self.n_theta = instance.problem.n_theta
        self.dom_dim = grid.node_count * self.width + self.n_theta
        self.cod_dim = 2 * grid.step_count * self.width + self.width
        self.gram_theta = self._assemble_gram_theta()
        self.gram_domain = self._assemble_gram_domain()
        self.gram_codomain = self._assemble_gram_codomain()
        self.gram_obs = self._assemble_gram_obs()

    # flat layouts: domain = (state nodes 0..N, theta); codomain = (model rows
    # 1..N, initial row, observation rows 1..N); observation node 0 carries no
    # quadrature weight and is dropped.

    def unflatten_point(self, flat) -> AaoPoint:
        cut = self.grid.node_count * self.width
        state = Trajectory(self.grid, flat[:cut].reshape(-1, self.width), "state")
        return AaoPoint(state, flat[cut:].copy())

    def flatten_triple(self, resid: ResidualTriple) -> np.ndarray:
        return np.concatenate(
            [resid.model.values[1:].ravel(), resid.initial, resid.observation.values[1:].ravel()]
        )

    def unflatten_triple(self, flat) -> ResidualTriple:
        steps, width = self.grid.step_count, self.width
        cut = steps * width
        w = np.zeros((steps + 1, width))
        w[1:] = flat[:cut].reshape(steps, width)
        h = flat[cut : cut + width].copy()
        z = np.zeros((steps + 1, width))
        z[1:] = flat[cut + width :].reshape(steps, width)
        return ResidualTriple(
            Trajectory(self.grid, w, "dual_load"), h, Trajectory(self.grid, z, "observation")
        )

    def flatten_obs(self, traj: Trajectory) -> np.ndarray:
        return traj.values[1:].ravel()

    def unflatten_obs(self, flat) -> Trajectory:
        z = np.zeros((self.grid.step_count + 1, self.width))
        z[1:] = flat.reshape(self.grid.step_count, self.width)
        return Trajectory(self.grid, z, "observation")

    def _assemble_gram_domain(self):
        triple, grid = self.triple, self.grid
        steps, width = grid.step_count, self.width
        tau, dx = grid.tau, triple.dx
        a_inv = np.linalg.inv(triple.stiffness)
        e = np.zeros((steps * width, grid.node_count * width))
        for n in range(steps):
            rows = slice(n * width, (n + 1) * width)
            e[rows, n * width : (n + 1) * width] = -np.eye(width) / tau
            e[rows, (n + 1) * width : (n + 2) * width] = np.eye(width) / tau + triple.stiffness
        w_gram = tau * dx * np.kron(np.eye(steps), a_inv)
        g_state = e.T @ w_gram @ e
        g_state[:width, :width] += dx * np.eye(width)
        out = np.zeros((self.dom_dim, self.dom_dim))
        cut = grid.node_count * width
        out[:cut, :cut] = g_state
        out[cut:, cut:] = self.gram_theta
        return out

    def _assemble_gram_codomain(self):
        triple, grid = self.triple, self.grid
        steps, width = grid.step_count, self.width
        tau, dx = grid.tau, triple.dx
        a_inv = np.linalg.inv(triple.stiffness)
        blocks = [tau * dx * np.kron(np.eye(steps), a_inv), dx * np.eye(width),
                  tau * dx * np.eye(steps * width)]
        out = np.zeros((self.cod_dim, self.cod_dim))
        pos = 0
        for b in blocks:
            out[pos : pos + b.shape[0], pos : pos + b.shape[0]] = b
            pos += b.shape[0]
        return out

    def _assemble_gram_theta(self):
        n = self.n_theta
        g = np.empty((n, n))
        basis = np.eye(n)
        for i in range(n):
            for j in range(n):
                g[i, j] = self.instance.problem.inner_theta(basis[i], basis[j])
        return g

    def _assemble_gram_obs(self):
        steps, width = self.grid.step_count, self.width
        return self.grid.tau * self.triple.dx * np.eye(steps * width)

    # -- joint operator matrices --------------------------------------------------

    def aao_derivative_matrix(self, point: AaoPoint, slab=None) -> np.ndarray:
        op = self.instance.aao
        cols = np.empty((self.cod_dim, self.dom_dim))
        for i in range(self.dom_dim):
            unit = np.zeros(self.dom_dim)
            unit[i] = 1.0
            probe = self.unflatten_point(unit)
            if slab is None:
                out = op.derivative(point, probe.state, probe.theta)
            else:
                out = op.slab_derivative(point, slab, probe.state, probe.theta)
            cols[:, i] = self.flatten_triple(out)
        return cols

    def aao_adjoint_matrix(self, point: AaoPoint, slab=None, jac=None) -> np.ndarray:
        """Gram-weighted transpose of ``jac``, the derivative matrix (assembled if not given)."""
        if jac is None:
            jac = self.aao_derivative_matrix(point, slab=slab)
        return np.linalg.solve(self.gram_domain, jac.T @ self.gram_codomain)

    # -- reduced operator matrices --------------------------------------------------

    def reduced_derivative_matrix(self, theta, state, slab=None, op=None) -> np.ndarray:
        """Columns of the reduced derivative of ``op`` (default: the instance's)."""
        op = self.instance.reduced if op is None else op
        cols = np.empty((self.grid.step_count * self.width, self.n_theta))
        for i in range(self.n_theta):
            unit = np.zeros(self.n_theta)
            unit[i] = 1.0
            if slab is None:
                out = op.derivative(theta, state, unit)
            else:
                out = op.slab_derivative(theta, state, unit, slab)
            cols[:, i] = self.flatten_obs(out)
        return cols

    def reduced_adjoint_matrix(self, theta, state, slab=None, op=None) -> np.ndarray:
        jac = self.reduced_derivative_matrix(theta, state, slab=slab, op=op)
        return np.linalg.solve(self.gram_theta, jac.T @ self.gram_obs)


# -- self-test gate -----------------------------------------------------------------


def selftest(verbose=True) -> bool:
    """Adjoint, Taylor and oracle checks at small scale; True when all pass."""
    checks = []
    rng = np.random.default_rng(7)

    inst = make_instance(6, 6, 0.05, gain=4.0, m=2)
    oracle = DenseOracle(inst)
    theta0 = 0.4 + 0.2 * np.sin(2 * np.pi * truth_nodes(inst.triple))
    point = AaoPoint(
        Trajectory(inst.grid, 0.3 + 0.1 * rng.standard_normal((inst.grid.node_count, 6)), "state"),
        theta0.copy(),
    )

    jac = oracle.aao_derivative_matrix(point)
    adj = oracle.aao_adjoint_matrix(point, jac=jac)
    gap = 0.0
    for _ in range(5):
        xf = rng.standard_normal(oracle.dom_dim)
        probe = oracle.unflatten_point(xf)
        out = inst.aao.derivative(point, probe.state, probe.theta)
        gap = max(gap, _relerr(oracle.flatten_triple(out), jac @ xf))
        rf = rng.standard_normal(oracle.cod_dim)
        ds, dt = inst.aao.adjoint(point, oracle.unflatten_triple(rf))
        gap = max(gap, _relerr(np.concatenate([ds.values.ravel(), dt]), adj @ rf))
    checks.append(("joint derivative/adjoint vs dense", gap, 1e-11))

    for j in range(2):
        jac_j = oracle.aao_derivative_matrix(point, slab=j)
        adj_j = oracle.aao_adjoint_matrix(point, slab=j, jac=jac_j)
        rf = rng.standard_normal(oracle.cod_dim)
        ds, dt = inst.aao.slab_adjoint(point, j, oracle.unflatten_triple(rf))
        gap = _relerr(np.concatenate([ds.values.ravel(), dt]), adj_j @ rf)
        checks.append((f"slab {j} adjoint vs dense", gap, 1e-11))

    newton = ReducedOperator(inst.problem, inst.triple, inst.grid, inst.partition, policy="newton")
    for op in (inst.reduced, newton):
        state = op.solve_state(theta0)
        adj_r = oracle.reduced_adjoint_matrix(theta0, state, op=op)
        zf = rng.standard_normal(oracle.grid.step_count * oracle.width)
        gap = _relerr(op.adjoint(theta0, state, oracle.unflatten_obs(zf)), adj_r @ zf)
        checks.append((f"reduced adjoint vs dense ({op.policy})", gap, 1e-11))

    xi = 0.1 * rng.standard_normal(inst.problem.n_theta)
    y0, s0 = newton.forward(theta0)
    lin = newton.derivative(theta0, s0, xi)
    errs = []
    for eps in (1e-1, 1e-2, 1e-3):
        y1, _ = newton.forward(theta0 + eps * xi)
        diff = Trajectory(inst.grid, y1.values - y0.values - eps * lin.values, "observation")
        errs.append(norm_observation(inst.triple, diff))
    order = min(np.log10(errs[i] / errs[i + 1]) for i in range(2))
    checks.append(("reduced Taylor order", -order, -1.9))

    ok = True
    for name, value, bound in checks:
        passed = value <= bound
        ok = ok and passed
        if verbose:
            print(f"{'PASS' if passed else 'FAIL'}  {name}: {value:.3e} (bound {bound:.1e})")
    return ok


def _relerr(a, b):
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


# -- experiment drivers ----------------------------------------------------------------


@dataclass
class ExperimentData:
    """One synthesized experiment: the instance, the exact pair and the noisy data."""

    instance: ProblemInstance
    theta_true: np.ndarray
    state_true: Trajectory
    dataset: NoisyDataset


def prepare_exact(config: ExperimentConfig):
    """The noise-free part of :func:`prepare_data`: a tiny oracle gate first
    (SelfTestError when it fails), then ``(instance, (theta, state, y))``.  Of
    the method settings only the slab count m enters."""
    if not selftest(verbose=False):
        raise SelfTestError("oracle self-test failed; refusing to run the benchmark")
    instance = make_instance(
        config.n_x, config.n_t, config.horizon, config.gain,
        m=config.method.m, policy=config.policy,
    )
    return instance, synthesize_truth(instance, config.truth_kind, config.truth_amplitude)


def prepare_data(config: ExperimentConfig, exact=None) -> ExperimentData:
    """The data part of :func:`run_experiment`: the config's noise added to
    ``exact`` from :func:`prepare_exact` (made here when not given)."""
    instance, (theta_true, state_true, y) = prepare_exact(config) if exact is None else exact
    dataset = add_noise(instance, y, theta_true, config.delta_w, config.delta_z, config.seed)
    return ExperimentData(instance, theta_true, state_true, dataset)


def run_experiment(config: ExperimentConfig, exact=None):
    """Synthesize data, run the configured method, and write report files.

    Returns a summary dict including the emitted paths.  Without ``exact``
    (from :func:`prepare_exact`) a tiny oracle gate runs first; SelfTestError
    when it fails.
    """
    return run_on_data(config, prepare_data(config, exact))


def run_on_data(config: ExperimentConfig, data: ExperimentData):
    """The run part of :func:`run_experiment`, on data from :func:`prepare_data`."""
    instance, theta_true, state_true = data.instance, data.theta_true, data.state_true
    dataset = data.dataset
    start = None
    if config.start_at_truth:
        if config.method.tag in AAO_TAGS:
            start = AaoPoint(state_true.copy(), theta_true.copy())
        else:
            start = theta_true.copy()
    wall0 = time.perf_counter()
    record = run(
        config.method,
        instance,
        dataset.y_noisy,
        dataset.achieved_delta,
        truth=(theta_true, state_true),
        start=start,
    )
    wall_total = time.perf_counter() - wall0

    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    tag = config.method.tag
    it_path = outdir / f"{tag}_iterations.csv"
    rec_path = outdir / f"{tag}_reconstruction.csv"
    sum_path = outdir / f"{tag}_summary.json"
    write_iterations_csv(it_path, record)
    write_reconstruction_csv(rec_path, instance, theta_true, state_true, record)
    summary = summarize(config, dataset, record, wall_total)
    sum_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    summary["paths"] = {
        "iterations": str(it_path),
        "reconstruction": str(rec_path),
        "summary": str(sum_path),
    }
    return summary


def summarize(config, dataset, record: RunRecord, wall_total):
    step_ms = record.column("step_ms")
    final = record.rows[-1]
    return {
        "config": config.to_dict(),
        "method": record.method,
        "k_star": record.k_star,
        "stop_reason": record.stop_reason,
        "mu": float(record.metadata["mu"]),  # the resolved stepsize, also under "norm"
        "rows": len(record.rows),
        "achieved_delta": dataset.achieved_delta,
        "bound_delta": dataset.bound_delta,
        "final_res_total": final.res_total,
        "final_err_theta": final.err_theta,
        "timing": {
            "wall_s": wall_total,
            "step_ms_total": float(step_ms.sum()),
            "step_ms_mean": float(step_ms[:-1].mean()) if len(step_ms) > 1 else 0.0,
        },
    }


def write_iterations_csv(path, record: RunRecord):
    names = [f.name for f in fields(IterationRow)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for r in record.rows:
            writer.writerow([r.k] + [_fmt(getattr(r, name)) for name in names[1:]])


def write_reconstruction_csv(path, instance, theta_true, state_true, record: RunRecord):
    x = truth_nodes(instance.triple)
    theta_rec = record.theta_final
    u_err = record.state_final.values[-1] - state_true.values[-1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECONSTRUCTION_HEADER)
        for i in range(x.size):
            writer.writerow([_fmt(x[i]), _fmt(theta_true[i]), _fmt(theta_rec[i]), _fmt(u_err[i])])


def _fmt(v):
    return repr(float(v))


def compare(config: ExperimentConfig, tags):
    """Run several methods against one shared dataset; returns the comparison.

    The self-test, the instance, the truth and the noise are made once, for
    all tags.  A repeated tag, whose run would overwrite the first one's files,
    is a ValidationError before any work."""
    if len(set(tags)) < len(tags):
        raise ValidationError(f"method tags {list(tags)} name one method twice")
    data = prepare_data(config)
    summaries = {}
    for tag in tags:
        summaries[tag] = run_on_data(replace(config, method=replace(config.method, tag=tag)), data)
    means = {tag: s["timing"]["step_ms_mean"] for tag, s in summaries.items()}
    ratios = {
        f"{a}/{b}": (means[a] / means[b] if means[b] > 0 else None)
        for a in tags
        for b in tags
        if a != b
    }
    out = {"methods": {t: _strip_paths(s) for t, s in summaries.items()}, "step_ms_mean_ratios": ratios}
    path = Path(config.output_dir) / "comparison.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    out["paths"] = {"comparison": str(path)}
    return out


def _strip_paths(summary):
    return {k: v for k, v in summary.items() if k != "paths"}


def sweep(config: ExperimentConfig, deltas, seeds, relative=False, workers=1):
    """Noise-level sweep: one run per (delta_z, seed) pair plus an aggregation.

    The self-test gate, the instance and the truth are made once, for all
    runs; each run only draws its noise.  With ``relative`` the deltas are
    interpreted as fractions of the exact data norm.  Workers fan out over
    independent processes, and every worker owns its output directory.  Fewer
    than one worker, two equal noise levels (0 and -0 among them, which would
    share one median), two runs sharing a directory (noise levels equal in
    their ``:g`` form, or repeated seeds), or a run config that does not
    validate (a negative level or seed) is a ValidationError before any work.
    """
    if workers < 1:
        raise ValidationError(f"a sweep needs at least 1 worker, got {workers}")
    if len(set(map(float, deltas))) < len(deltas):
        raise ValidationError(f"noise levels {list(deltas)} repeat one level")
    runs = [
        (delta, seed, Path(config.output_dir) / f"delta_{delta:g}" / f"seed_{seed}")
        for delta in deltas
        for seed in seeds
    ]
    if len({path for *_, path in runs}) < len(runs):
        raise ValidationError(
            f"noise levels {list(deltas)} and seeds {list(seeds)} give two runs one directory"
        )
    jobs = [
        replace(config, delta_z=float(delta), seed=int(seed), output_dir=str(path))
        for delta, seed, path in runs
    ]
    exact = prepare_exact(config)
    if relative:
        instance, (_, _, y) = exact
        scale = norm_observation(instance.triple, y)
        jobs = [replace(job, delta_z=job.delta_z * scale) for job in jobs]

    # more processes than jobs or CPUs only add start-up cost and memory
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    run_job = partial(run_experiment, exact=exact)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_job, jobs))
    else:
        results = [run_job(job) for job in jobs]

    kept = ("k_star", "stop_reason", "final_res_total", "final_err_theta", "achieved_delta")
    table = [
        {"delta_z": job.delta_z, "seed": job.seed, **{key: summary[key] for key in kept}}
        for job, summary in zip(jobs, results)
    ]
    by_delta = {}
    for row in table:
        by_delta.setdefault(row["delta_z"], []).append(row["final_err_theta"])
    medians = {str(d): float(np.median(v)) for d, v in sorted(by_delta.items())}
    out = {"runs": table, "median_err_theta_by_delta": medians}
    path = Path(config.output_dir) / "sweep.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    out["paths"] = {"sweep": str(path)}
    return out
