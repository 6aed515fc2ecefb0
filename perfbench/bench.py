"""One dyninv benchmark workload, run in a fresh process by ``run.py``.

Untraced (``--trace 0``): warm up, time the set-up (everything
``harness.run_experiment`` does before ``methods.run``) several times, then
time ``methods.run`` for each of the six method tags until the run's time
budget is spent, and check every output.  Traced (``--trace 1``): one
untraced pass and one traced pass over the same work; the traced pass gives
the per-layer metrics and must reproduce the untraced outputs exactly.

The library is driven only through its public functions.  The workload seed
is turned into the noise seed and the probe vectors here; the library never
sees it.  The last line of standard output is the JSON result.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

from dyninv import harness, methods, spaces
from dyninv.aao import AaoPoint, ResidualTriple
from dyninv.errors import SolverError, ValidationError
from dyninv.spaces import Trajectory
from tracer import Tracer, span_labels

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

GAIN, AMPLITUDE, TAU_DISC = 10.0, 0.1, 2.5
IRGNM = {"alpha0": 1.0, "q": 0.4, "cg_max": 2000}  # criterion 8's schedule
REL_ERR_MARGIN = 1.15  # criterion 1's margin over the reference error
DOT_TOL = 1e-10  # adjoint dot-product gap
SELF_GAP_TOL = 0.02  # share of the traced wall time left outside every span
MIN_ROUNDS = 3
# size of the calibration kernel (see Clock)
CAL_LOOP, CAL_CALLS, CAL_N, CAL_SOLVES, CAL_MATMULS = 30000, 1000, 300, 4, 8
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Run:
    """One method tag of a workload: ``methods.run`` for ``k_max`` iterations,
    or to the discrepancy stop when ``to_stop``."""

    tag: str
    k_max: int
    options: dict = field(default_factory=dict)
    to_stop: bool = False
    chunk: int = 0  # iterations per methods.run of a chunked run; 0 = whole runs


@dataclass(frozen=True)
class Workload:
    n_x: int
    n_t: int
    horizon: float
    m: int  # slab count of the Kaczmarz tags
    rel_noise: float  # observation noise delta_z as a share of ||y||
    runs: tuple
    cal_ref_s: float  # calibration kernel time at the reference speed
    max_setups: int = 15
    probes: int = 0  # adjoint dot-product probes per formulation


WORKLOADS = {
    # the paper's benchmark: per-iteration cost of all six methods
    "paper_nx100": Workload(100, 100, 0.1, m=4, rel_noise=0.0, cal_ref_s=0.008, probes=5, runs=(
        Run("aLW", 100), Run("aLWK", 100), Run("aIRGNM", 6, IRGNM),
        Run("rLW", 20), Run("rLWK", 20), Run("rIRGNM", 4, IRGNM),
    )),
    # criterion 6's instance: time to the discrepancy stop, interpreter-bound
    "noise_stop_nx30": Workload(30, 50, 0.5, m=5, rel_noise=2e-3, cal_ref_s=0.0075, runs=(
        Run("aLW", 80000, to_stop=True, chunk=1000),
        Run("rLW", 80000, {"stepsize": "norm"}, to_stop=True),
        Run("aLWK", 200), Run("aIRGNM", 8, IRGNM),
        Run("rLWK", 50), Run("rIRGNM", 8, IRGNM),
    )),
    # the paper's instance at n_x = 1600 on N = 8 steps: dense O(n^2)-O(n^3) work
    "scale_nx1600": Workload(1600, 8, 0.1, m=4, rel_noise=0.0, cal_ref_s=0.095, max_setups=3, runs=(
        Run("aLW", 10), Run("aLWK", 10), Run("aIRGNM", 1, IRGNM),
        Run("rLW", 1), Run("rLWK", 1), Run("rIRGNM", 1, IRGNM),
    )),
}


# -- bookkeeping ---------------------------------------------------------------------


class Tally:
    """Operations attempted and failed: method runs and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lines = []

    def operation(self, ok):
        self.attempted += 1
        self.failed += not ok

    def check(self, name, ok, detail=""):
        self.operation(bool(ok))
        self.lines.append(f"check {'PASS' if ok else 'FAIL'}  {name}  {detail}".rstrip())


def median(values):
    return statistics.median(values) if values else None


def tail(values):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    for q in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return f"p{q:g} {float(np.percentile(values, q)):.6g}"
    return "no percentile with 10 samples beyond it"


# -- set-up and method runs ----------------------------------------------------------


@dataclass
class Setup:
    instance: methods.ProblemInstance
    theta: np.ndarray
    state: Trajectory
    data: harness.NoisyDataset
    gate_ok: bool


def set_up(wl, noise_seed):
    """What ``harness.run_experiment`` does before ``methods.run``."""
    gate_ok = harness.selftest(verbose=False)
    inst = harness.make_instance(wl.n_x, wl.n_t, wl.horizon, GAIN, m=wl.m)
    theta, state, y = harness.synthesize_truth(inst, "sine", AMPLITUDE)
    delta_z = wl.rel_noise * spaces.norm_observation(inst.triple, y)
    data = harness.add_noise(inst, y, theta, 0.0, delta_z, noise_seed)
    return Setup(inst, theta, state, data, gate_ok)


def run_method(wl, run, setup, k_max, start=None):
    """Wall time and record of one ``methods.run``; record is None on failure."""
    cfg = methods.MethodConfig(
        tag=run.tag, mu=1.0, tau_disc=TAU_DISC, k_max=k_max,
        m=wl.m if run.tag.endswith("LWK") else 1, **run.options,
    )
    tic = time.perf_counter()
    try:
        rec = methods.run(
            cfg, setup.instance, setup.data.y_noisy, setup.data.achieved_delta,
            truth=(setup.theta, setup.state), start=start,
        )
    except (SolverError, ValidationError):
        return time.perf_counter() - tic, None
    return time.perf_counter() - tic, rec


def same_outputs(a, b):
    """Equality of (k*, stop reason, residual rows, error rows)."""
    if a is None or b is None:
        return a is b
    return a[:2] == b[:2] and np.array_equal(a[2], b[2]) and np.array_equal(a[3], b[3])


@dataclass
class Outcome:
    """Samples of one tag.  A sample is one ``methods.run``: a whole run, or
    one chunk of a chunked run to the discrepancy stop."""

    walls: list = field(default_factory=list)  # seconds per successful sample, at reference speed
    raw_walls: list = field(default_factory=list)  # the same, as measured
    ks: list = field(default_factory=list)  # iterations per successful sample
    step_ms: list = field(default_factory=list)  # update time of every iteration
    first: tuple | None = None  # outputs of the first complete run
    repeatable: bool = True
    done: bool = False  # a chunked run has stopped or failed
    start: object = None  # start of the next chunk
    k_done: int = 0  # iterations of the chunks so far
    res_rows: list = field(default_factory=list)  # residual rows of the chunks so far
    err_rows: list = field(default_factory=list)

    def sample(self, wl, run, setup, clock=None):
        """Run one more sample; returns False when it failed."""
        k_max = min(run.chunk, run.k_max - self.k_done) if run.chunk else run.k_max
        wall, rec = run_method(wl, run, setup, k_max, self.start)
        factor = clock.factor() if clock else 1.0
        if rec is None:
            self.done = True
            return False
        self.walls.append(wall * factor)
        self.raw_walls.append(wall)
        self.ks.append(rec.k_star)
        self.step_ms += list(rec.column("step_ms")[:-1])
        res, err = rec.column("res_total"), rec.column("err_theta")
        if not run.chunk:
            got = (rec.k_star, rec.stop_reason, res, err)
            if self.first is None:
                self.first = got
            else:
                self.repeatable = self.repeatable and same_outputs(self.first, got)
            return True
        # the next chunk starts where this one ended; its row 0 repeats this
        # chunk's last row, so the chunks together are one uninterrupted run
        skip = 1 if self.res_rows else 0
        self.res_rows += list(res[skip:])
        self.err_rows += list(err[skip:])
        self.k_done += rec.k_star
        if rec.method in methods.AAO_TAGS:
            self.start = AaoPoint(rec.state_final, rec.theta_final)
        else:
            self.start = rec.theta_final
        if rec.stop_reason != "k_max" or self.k_done >= run.k_max:
            self.done = True
            self.first = (self.k_done, rec.stop_reason, np.array(self.res_rows), np.array(self.err_rows))
        return True

    def wants(self, run):
        return not (run.chunk and self.done)


class Clock:
    """The machine's current speed, from a calibration kernel run between samples.

    On a shared machine the CPU itself runs faster or slower for seconds at a
    time.  The kernel is written with numpy alone, so a change to dyninv
    cannot move it: an interpreter loop, many numpy calls on short vectors and
    a few mid-size dense solves, then the workload's own dense work, one
    n_x x n_x solve and a few products of an (N+1) x n_x block with an
    n_x x n_x matrix.  Each sample's wall time
    is rescaled to the reference speed by the mean of the calibrations just
    before and just after it.
    """

    def __init__(self, wl):
        rng = np.random.default_rng(0)
        self.ref = wl.cal_ref_s
        self.short = rng.standard_normal(30)
        self.mid = rng.standard_normal((CAL_N, CAL_N)) + CAL_N * np.eye(CAL_N)
        self.a = rng.standard_normal((wl.n_x, wl.n_x)) + wl.n_x * np.eye(wl.n_x)
        self.v = rng.standard_normal((wl.n_t + 1, wl.n_x))
        self.times = [self.calibrate()]

    def calibrate(self):
        tic = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i
        for _ in range(CAL_CALLS):
            np.sqrt(self.short * self.short + 1.0).sum()
        for _ in range(CAL_SOLVES):
            np.linalg.solve(self.mid, self.mid[0])
        np.linalg.solve(self.a, self.v[0])
        for _ in range(CAL_MATMULS):
            self.v @ self.a
        return time.perf_counter() - tic

    def factor(self):
        """Reference time over current time, for the sample that just ended."""
        self.times.append(self.calibrate())
        return self.ref / (0.5 * (self.times[-2] + self.times[-1]))


def complete(wl, run, setup, tally):
    """Outputs of one complete run of the tag (all chunks of a chunked run)."""
    out = Outcome()
    while True:
        tally.operation(out.sample(wl, run, setup))
        if not run.chunk or out.done:
            return out.first


def warm_up(wl):
    """Imports are done; fill caches and lazy set-up before anything is timed."""
    harness.selftest(verbose=False)
    harness.make_instance(wl.n_x, wl.n_t, wl.horizon, GAIN, m=wl.m)


def seeds(seed):
    """Noise seed and probe generator, both derived from the workload seed."""
    noise_ss, probe_ss = np.random.SeedSequence(seed).spawn(2)
    return int(noise_ss.generate_state(1)[0]), np.random.default_rng(probe_ss)


# -- correctness ---------------------------------------------------------------------


def check_run(name, wl, run, first, setup, reference, tally):
    """Correctness of one tag's outputs (see DESIGN.md, "Correctness gate")."""
    if first is None:
        tally.check(f"{name} {run.tag} ran", False, "every run failed")
        return
    k_star, stop, res, err = first
    tag = run.tag
    if run.to_stop:
        bound = TAU_DISC * setup.data.achieved_delta
        tally.check(f"{name} {tag} discrepancy stop", stop == "discrepancy", f"stop={stop} k*={k_star}")
        tally.check(f"{name} {tag} residual <= 2.5 delta", res[-1] <= bound, f"{res[-1]:.6e} <= {bound:.6e}")
    elif tag.endswith("IRGNM"):
        tally.check(f"{name} {tag} residual reduced", res[-1] < res[0], f"{res[0]:.3e} -> {res[-1]:.3e}")
    else:
        if tag in ("aLW", "rLW"):
            # the first joint step cannot move theta from the zero start
            row = 1 if tag == "aLW" else 0
            tally.check(
                f"{name} {tag} error strictly decreasing", np.all(np.diff(err[row:]) < 0.0),
                f"over rows {row}..{len(err) - 1}",
            )
        tally.check(f"{name} {tag} error reduced", err[-1] < err[0], f"{err[0]:.6e} -> {err[-1]:.6e}")
        if name in reference:
            rel = err[-1] / setup.instance.problem.norm_theta(setup.theta)
            limit = REL_ERR_MARGIN * reference[name][tag]
            tally.check(f"{name} {tag} relative error <= 1.15 x reference", rel <= limit, f"{rel:.6f} <= {limit:.6f}")


def dot_gaps(setup, rng, probes):
    """Worst AAO and reduced adjoint dot-product gaps over random probes."""
    inst = setup.instance
    grid, triple, problem = inst.grid, inst.triple, inst.problem
    shape = (grid.node_count, triple.interior_points)
    point = AaoPoint(
        Trajectory(grid, setup.state.values + 0.1 * rng.standard_normal(shape), "state"),
        setup.theta + 0.1 * rng.standard_normal(problem.n_theta),
    )
    theta = setup.theta
    state = inst.reduced.solve_state(theta)

    def obs():
        z = np.zeros(shape)
        z[1:] = rng.standard_normal((grid.step_count, shape[1]))
        return z

    def gap(lhs, rhs):
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)

    worst_aao = worst_red = 0.0
    for _ in range(probes):
        dstate = Trajectory(grid, rng.standard_normal(shape), "state")
        dtheta = rng.standard_normal(problem.n_theta)
        resid = ResidualTriple(
            Trajectory(grid, obs(), "dual_load"), rng.standard_normal(shape[1]),
            Trajectory(grid, obs(), "observation"),
        )
        lhs = inst.aao.inner_residual(inst.aao.derivative(point, dstate, dtheta), resid)
        astate, atheta = inst.aao.adjoint(point, resid)
        rhs = spaces.inner_state(triple, dstate, astate) + problem.inner_theta(dtheta, atheta)
        worst_aao = max(worst_aao, gap(lhs, rhs))

        xi = rng.standard_normal(problem.n_theta)
        z = Trajectory(grid, obs(), "observation")
        lhs = spaces.inner_observation(triple, inst.reduced.derivative(theta, state, xi), z)
        rhs = problem.inner_theta(xi, inst.reduced.adjoint(theta, state, z))
        worst_red = max(worst_red, gap(lhs, rhs))
    return worst_aao, worst_red


def check_dot_gaps(name, wl, setup, rng, tally):
    if not wl.probes:
        return
    g_aao, g_red = dot_gaps(setup, rng, wl.probes)
    tally.check(f"{name} AAO adjoint dot-product gap", g_aao <= DOT_TOL, f"{g_aao:.2e} <= {DOT_TOL:.0e}")
    tally.check(f"{name} reduced adjoint dot-product gap", g_red <= DOT_TOL, f"{g_red:.2e} <= {DOT_TOL:.0e}")


# -- the two kinds of run ------------------------------------------------------------


def measure(name, wl, seed, seconds, reference, tally):
    """Untraced run: end-to-end metrics as {name: (value, note)}."""
    noise_seed, rng = seeds(seed)
    warm_up(wl)
    # rounds of one set-up and one run per tag, so that every sample of every
    # metric is spread over the whole run and meets the same machine load
    setup_walls, raw_setup_walls, gates = [], [], []
    got = {run.tag: Outcome() for run in wl.runs}
    clock = Clock(wl)
    t0 = time.perf_counter()
    rounds = 0
    chunked = [got[run.tag] for run in wl.runs if run.chunk]
    while (
        rounds < MIN_ROUNDS or time.perf_counter() - t0 < seconds
        or not all(out.done for out in chunked)
    ):
        if len(setup_walls) < wl.max_setups:
            tic = time.perf_counter()
            setup = set_up(wl, noise_seed)
            raw_setup_walls.append(time.perf_counter() - tic)
            setup_walls.append(raw_setup_walls[-1] * clock.factor())
            gates.append(setup.gate_ok)
        for run in wl.runs:
            if got[run.tag].wants(run):
                tally.operation(got[run.tag].sample(wl, run, setup, clock))
        rounds += 1

    tally.check(f"{name} selftest gate", all(gates), f"{len(gates)} set-ups")
    for run in wl.runs:
        out = got[run.tag]
        check_run(name, wl, run, out.first, setup, reference, tally)
        if not run.chunk:
            tally.check(f"{name} {run.tag} repetitions identical", out.repeatable, f"{len(out.walls)} runs")
    check_dot_gaps(name, wl, setup, rng, tally)

    n = len(setup_walls)
    metrics = {"setup_s": (
        median(setup_walls),
        f"median of {n} set-ups; {tail(setup_walls)}; as measured {median(raw_setup_walls):.6g}",
    )}
    for run in wl.runs:
        out = got[run.tag]
        per_iter = [1e3 * w / k for w, k in zip(out.walls, out.ks) if k > 0]
        raw_per_iter = [1e3 * w / k for w, k in zip(out.raw_walls, out.ks) if k > 0]
        it_ms = median(per_iter)
        k = out.first[0] if out.first else None
        metrics[f"iter_ms.{run.tag}"] = (
            it_ms,
            f"median of {len(per_iter)} {'chunks' if run.chunk else 'runs'}; "
            f"as measured {median(raw_per_iter):.6g}; "
            f"update step_ms {tail(out.step_ms)} over {len(out.step_ms)} iterations",
        )
        # the median wall time of a complete run; for a chunked run, k* times
        # the median per-iteration time of its chunks
        metrics[f"solve_s.{run.tag}"] = (
            k * it_ms / 1e3 if k and it_ms else None,
            f"k* = {k}; the chunks took {sum(out.raw_walls):.4f} s in all" if run.chunk else f"k* = {k}",
        )
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss, "ru_maxrss of this process")
    k_star = " ".join(f"{r.tag}={got[r.tag].first[0] if got[r.tag].first else None}" for r in wl.runs)
    cal = 1e3 * np.array(clock.times)
    return metrics, (
        f"k_star {k_star}; {rounds} rounds\n"
        f"calibration ms: median {np.median(cal):.4g}, min {cal.min():.4g}, max {cal.max():.4g} "
        f"over {cal.size} runs (reference {1e3 * wl.cal_ref_s:g})"
    )


def single_pass(wl, noise_seed, tally):
    """One set-up and one complete run per tag; the outputs of each tag."""
    setup = set_up(wl, noise_seed)
    tally.check("selftest gate", setup.gate_ok)
    return setup, {run.tag: complete(wl, run, setup, tally) for run in wl.runs}


def trace(name, wl, seed, reference, tally):
    """Traced run: per-layer metrics as {name: (value, note)}."""
    noise_seed, _ = seeds(seed)
    warm_up(wl)
    tic = time.perf_counter()
    setup, plain = single_pass(wl, noise_seed, tally)
    wall_plain = time.perf_counter() - tic

    tracer = Tracer()
    tracer.install()
    try:
        tic = time.perf_counter()
        _, traced = single_pass(wl, noise_seed, tally)
        wall_traced = time.perf_counter() - tic
    finally:
        removed = tracer.uninstall()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{name}.npz")

    tally.check("tracer wrappers removed", removed)
    for run in wl.runs:
        a = plain[run.tag]
        tally.check(f"{name} {run.tag} traced outputs equal untraced", same_outputs(a, traced[run.tag]))
        check_run(name, wl, run, a, setup, reference, tally)
    self_sum = sum(tracer.self_time.values())
    gap = 1.0 - self_sum / wall_traced
    tally.check(
        "self times sum to the traced wall time", abs(gap) <= SELF_GAP_TOL,
        f"sum {self_sum:.4f} s, wall {wall_traced:.4f} s, gap {gap:.2%} (tolerance {SELF_GAP_TOL:.0%})",
    )

    metrics = {}
    for label in span_labels():
        metrics[f"{label}.calls"] = (tracer.calls[label], "")
        metrics[f"{label}.ms"] = (1e3 * tracer.total[label], "inclusive")
        metrics[f"{label}.self_ms"] = (1e3 * tracer.self_time[label], "minus child spans")
    cg_iters = tracer.counts["cg_iters"]
    irgnm_steps = tracer.calls["methods.step.aIRGNM"] + tracer.calls["methods.step.rIRGNM"]
    metrics["methods.conjugate_gradient.iters"] = (cg_iters, "from its return value")
    metrics["methods.cg_iters_per_step"] = (cg_iters / irgnm_steps if irgnm_steps else 0.0, f"{irgnm_steps} IRGNM steps")
    newton_steps = tracer.counts["newton_steps"]
    metrics["reduced.newton_iters_per_step"] = (
        tracer.counts["newton_f_u_matrix"] / newton_steps if newton_steps else 0.0,
        f"f_u_matrix calls inside Newton solve_state over {newton_steps} steps",
    )
    for tag in ("aLW", "rLW"):
        metrics[f"methods.k_star.{tag}"] = (plain[tag][0] if plain[tag] else -1, "")
    metrics["trace.overhead_s"] = (wall_traced - wall_plain, f"traced {wall_traced:.4f} s - untraced {wall_plain:.4f} s")
    metrics["trace.self_gap"] = (gap, "1 - sum(self times) / traced wall")
    return metrics, f"spans {len(tracer.start)} written to {out_dir.name}/spans-{name}.npz"


# -- environment and output ----------------------------------------------------------


def fingerprint():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_id,
        "cpu_count": os.cpu_count(),
        "usable_cpus": sorted(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": commit,
    }


def to_json_number(value):
    if isinstance(value, (int, np.integer)):
        return int(value)
    if value is None or not math.isfinite(value):
        return None
    return float(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    wl = WORKLOADS[args.workload]
    tally = Tally()
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    if args.trace:
        computed, note = trace(args.workload, wl, args.seed, reference, tally)
        listed = spec["per_layer"]
    else:
        computed, note = measure(args.workload, wl, args.seed, args.seconds, reference, tally)
        listed = spec["end_to_end"]

    metrics = {}
    for item in listed:
        value, detail = computed[item["name"]]
        metrics[item["name"]] = {"value": to_json_number(value), "unit": item["unit"]}
        print(f"{item['name']:<40} {value!s:>24} {item['unit']:<6} {detail}".rstrip())
    print(note)
    for line in tally.lines:
        print(line)
    print(f"fail_rate {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6g} [1]")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
