import csv
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from dyninv import harness
from dyninv.cli import main as cli_main
from dyninv.errors import ValidationError
from dyninv.harness import (
    DenseOracle,
    ExperimentConfig,
    add_noise,
    compare,
    make_instance,
    run_experiment,
    selftest,
    synthesize_truth,
    truth_nodes,
    sweep,
)
from dyninv.methods import MethodConfig
from dyninv.spaces import norm_dual_load, norm_observation

from conftest import positive_theta


# -- truth synthesis -----------------------------------------------------------------


def test_truth_formula_values():
    x = np.array([0.25, 0.5, 0.75])
    vals = 0.1 * np.sin(2 * np.pi * x)
    np.testing.assert_allclose(vals, [0.1, 0.0, -0.1], atol=1e-16)


def test_truth_nodal_field(tiny_instance):
    theta, state, y = synthesize_truth(tiny_instance, "sine", 0.1)
    x = truth_nodes(tiny_instance.triple)
    np.testing.assert_allclose(theta, 0.1 * np.sin(2 * np.pi * x), atol=1e-15)
    interp = np.interp(0.25, x, theta)
    assert interp == pytest.approx(0.1, abs=5e-3)
    np.testing.assert_array_equal(state.values[0], 0.0)


def test_truth_unknown_kind(tiny_instance):
    with pytest.raises(ValidationError):
        synthesize_truth(tiny_instance, "boxcar", 0.1)


# -- noise ------------------------------------------------------------------------------


def test_noise_zero_levels(tiny_instance, tiny_truth):
    theta, state, y = tiny_truth
    ds = add_noise(tiny_instance, y, theta, 0.0, 0.0, seed=1)
    np.testing.assert_array_equal(ds.y_noisy.values, y.values)
    assert ds.achieved_delta == 0.0
    assert ds.bound_delta == 0.0


def test_noise_observation_only_exact(tiny_instance, tiny_truth):
    theta, state, y = tiny_truth
    ds = add_noise(tiny_instance, y, theta, 0.0, 3e-3, seed=2)
    assert ds.achieved_delta == pytest.approx(3e-3, rel=1e-12)
    assert norm_observation(tiny_instance.triple, ds.obs_noise) == pytest.approx(3e-3, rel=1e-12)


def test_noise_norm_targets_hit(tiny_instance, tiny_truth):
    theta, state, y = tiny_truth
    ds = add_noise(tiny_instance, y, theta, 2e-3, 4e-3, seed=3)
    assert norm_dual_load(tiny_instance.triple, ds.model_noise) == pytest.approx(2e-3, rel=1e-12)
    assert norm_observation(tiny_instance.triple, ds.obs_noise) == pytest.approx(4e-3, rel=1e-12)
    assert ds.achieved_delta > 0.0
    assert ds.bound_delta == pytest.approx(ds.c_estimate * 2e-3 + 4e-3)


def test_noise_deterministic(tiny_instance, tiny_truth):
    theta, state, y = tiny_truth
    a = add_noise(tiny_instance, y, theta, 1e-3, 1e-3, seed=7)
    b = add_noise(tiny_instance, y, theta, 1e-3, 1e-3, seed=7)
    np.testing.assert_array_equal(a.y_noisy.values, b.y_noisy.values)
    np.testing.assert_array_equal(a.model_noise.values, b.model_noise.values)
    c = add_noise(tiny_instance, y, theta, 1e-3, 1e-3, seed=8)
    assert np.max(np.abs(c.y_noisy.values - a.y_noisy.values)) > 0


def test_noise_positive_when_any_level_positive(tiny_instance, tiny_truth):
    theta, state, y = tiny_truth
    for seed in range(10):
        ds = add_noise(tiny_instance, y, theta, 5e-4, 0.0, seed=seed)
        assert ds.achieved_delta > 0.0


@pytest.mark.parametrize("delta_w, marches", [(0.0, 0), (1e-3, 1)])
def test_noise_marches_truth_only_for_model_noise(tiny_instance, tiny_truth, monkeypatch,
                                                  delta_w, marches):
    """y is the exact observation of the truth, so only model noise needs a
    perturbed state solve."""
    theta, state, y = tiny_truth
    calls = []
    solve_state = harness.ReducedOperator.solve_state

    def counted(self, *args, **kwargs):
        calls.append(self.policy)
        return solve_state(self, *args, **kwargs)

    monkeypatch.setattr(harness.ReducedOperator, "solve_state", counted)
    ds = add_noise(tiny_instance, y, theta, delta_w, 3e-3, seed=4)
    assert calls == ["newton"] * marches
    assert ds.achieved_delta > 0.0


@pytest.mark.parametrize("delta_w, delta_z", [(float("nan"), 0.0), (float("inf"), 0.0),
                                             (0.0, float("nan")), (0.0, float("inf"))])
def test_noise_rejects_non_finite_levels(tiny_instance, tiny_truth, delta_w, delta_z):
    """NaN gave zero noise with a NaN bound, and inf a Newton divergence (a solver failure)."""
    theta, state, y = tiny_truth
    with pytest.raises(ValidationError):
        add_noise(tiny_instance, y, theta, delta_w, delta_z, seed=1)


# -- dense oracle ---------------------------------------------------------------------------


def test_dense_oracle_size_guard():
    big = make_instance(20, 6, 0.05, gain=10.0)
    with pytest.raises(ValidationError):
        DenseOracle(big)
    long = make_instance(6, 20, 0.05, gain=10.0)
    with pytest.raises(ValidationError):
        DenseOracle(long)


def test_dense_oracle_forward_agreement(tiny_instance, rng):
    from dyninv.aao import AaoPoint
    from dyninv.spaces import Trajectory

    oracle = DenseOracle(tiny_instance)
    op = tiny_instance.aao
    grid = tiny_instance.grid
    point = AaoPoint(
        Trajectory(grid, 0.2 * rng.standard_normal((grid.node_count, 8)), "state"),
        0.2 * rng.standard_normal(8),
    )
    jac = oracle.aao_derivative_matrix(point)
    for _ in range(20):
        flat = rng.standard_normal(oracle.dom_dim)
        probe = oracle.unflatten_point(flat)
        out = op.derivative(point, probe.state, probe.theta)
        got = oracle.flatten_triple(out)
        want = jac @ flat
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-12)


def test_dense_reduced_rank_bound(tiny_instance):
    oracle = DenseOracle(tiny_instance)
    op = tiny_instance.reduced
    theta = positive_theta(tiny_instance.triple)
    state = op.solve_state(theta)
    jac = oracle.reduced_derivative_matrix(theta, state)
    assert np.linalg.matrix_rank(jac) <= tiny_instance.problem.n_theta


# -- selftest and experiment drivers ----------------------------------------------------------


def test_selftest_passes():
    assert selftest(verbose=False)


def small_config(tmp_path, tag="rLW", k_max=5, **kw):
    return ExperimentConfig(
        n_x=8,
        n_t=6,
        horizon=0.05,
        gain=10.0,
        method=MethodConfig(tag=tag, k_max=k_max, m=kw.pop("m", 1)),
        output_dir=str(tmp_path),
        **kw,
    )


def test_run_experiment_writes_files(tmp_path):
    summary = run_experiment(small_config(tmp_path))
    assert (tmp_path / "rLW_iterations.csv").exists()
    assert (tmp_path / "rLW_reconstruction.csv").exists()
    assert (tmp_path / "rLW_summary.json").exists()
    with open(summary["paths"]["iterations"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "res_total", "res_w", "res_h", "res_y", "err_theta", "err_u_L2V", "step_ms"]
    assert len(rows) == 1 + 6  # header + k_max+1 visited iterates
    with open(summary["paths"]["reconstruction"]) as fh:
        rec = list(csv.reader(fh))
    assert rec[0] == ["x", "theta_true", "theta_rec", "u_err_final"]
    assert len(rec) == 1 + 8
    loaded = json.loads((tmp_path / "rLW_summary.json").read_text())
    assert loaded["k_star"] == 5
    assert loaded["stop_reason"] == "k_max"


@pytest.mark.parametrize("tag", ["rLW", "aLW"])
def test_summary_writes_the_resolved_stepsize(tmp_path, monkeypatch, tag):
    """With mu = "norm" the config echoes the policy and the summary gives the
    stepsize the power iteration chose, the run record's value."""
    records = []
    real_run = harness.run
    monkeypatch.setattr(harness, "run", lambda *a, **kw: records.append(real_run(*a, **kw)) or records[-1])
    cfg = small_config(tmp_path, tag=tag, k_max=2)
    summary = run_experiment(replace(cfg, method=replace(cfg.method, stepsize="norm")))
    loaded = json.loads((tmp_path / f"{tag}_summary.json").read_text())
    assert loaded["config"]["method"]["mu"] == "norm"
    assert loaded["mu"] == summary["mu"] == records[0].metadata["mu"] != MethodConfig.mu
    assert type(loaded["mu"]) is float


def test_run_experiment_start_at_truth_zero_residual(tmp_path):
    cfg = small_config(tmp_path, start_at_truth=True, policy="newton")
    summary = run_experiment(cfg)
    with open(summary["paths"]["iterations"]) as fh:
        rows = list(csv.DictReader(fh))
    # noiseless data synthesized by the same solver: residual column identically 0
    assert all(float(r["res_total"]) == 0.0 for r in rows)


def test_run_experiment_deterministic_outputs(tmp_path):
    cfg_a = small_config(tmp_path / "a", delta_z=1e-3, seed=5)
    cfg_b = small_config(tmp_path / "b", delta_z=1e-3, seed=5)
    sa = run_experiment(cfg_a)
    sb = run_experiment(cfg_b)
    rec_a = (tmp_path / "a" / "rLW_reconstruction.csv").read_bytes()
    rec_b = (tmp_path / "b" / "rLW_reconstruction.csv").read_bytes()
    assert rec_a == rec_b
    # iteration data identical apart from wall-clock timings
    def strip_timing(path):
        with open(path) as fh:
            return [row[:-1] for row in csv.reader(fh)]

    assert strip_timing(tmp_path / "a" / "rLW_iterations.csv") == strip_timing(
        tmp_path / "b" / "rLW_iterations.csv"
    )
    assert sa["final_err_theta"] == sb["final_err_theta"]


def test_compare_reports_ratios(tmp_path):
    cfg = small_config(tmp_path, k_max=3)
    out = compare(cfg, ["aLW", "rLW"])
    assert "rLW/aLW" in out["step_ms_mean_ratios"]
    assert (tmp_path / "comparison.json").exists()
    # with k_max 0 no step is timed: every ratio is 0/0, written as strict JSON null
    compare(small_config(tmp_path, k_max=0), ["aLW", "rLW"])
    text = (tmp_path / "comparison.json").read_text()
    out = json.loads(text, parse_constant=lambda name: pytest.fail(f"non-standard JSON {name}"))
    assert out["step_ms_mean_ratios"] == {"aLW/rLW": None, "rLW/aLW": None}


def test_compare_makes_one_dataset_for_all_tags(tmp_path, monkeypatch):
    """The self-test, the truth march and the noise run once for three tags."""
    calls = {}
    for name in ("selftest", "synthesize_truth", "add_noise"):
        def counted(*args, _wrapped=getattr(harness, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    compare(small_config(tmp_path, k_max=2, delta_z=1e-3), ["aLW", "rLW", "aIRGNM"])
    assert calls == {"selftest": 1, "synthesize_truth": 1, "add_noise": 1}


def test_compare_writes_what_separate_runs_write(tmp_path):
    """Sharing the dataset changes no output byte except the timings."""
    cfg = small_config(tmp_path / "shared", k_max=3, m=2, delta_z=1e-3, seed=4)
    tags = ["aLW", "aLWK", "rLW"]
    compare(cfg, tags)
    for tag in tags:
        run_experiment(replace(cfg, output_dir=str(tmp_path / tag), method=replace(cfg.method, tag=tag)))

    def untimed_summary(summary):
        summary = {k: v for k, v in summary.items() if k not in ("timing", "paths")}
        summary["config"] = {k: v for k, v in summary["config"].items() if k != "output_dir"}
        return summary

    shared = json.loads((tmp_path / "shared" / "comparison.json").read_text())["methods"]
    for tag in tags:
        alone = tmp_path / tag
        for name in ("iterations.csv", "reconstruction.csv"):
            with open(tmp_path / "shared" / f"{tag}_{name}") as fa, open(alone / f"{tag}_{name}") as fb:
                # the iterations CSV ends in the step_ms timing column
                cut = -1 if name == "iterations.csv" else None
                assert [r[:cut] for r in csv.reader(fa)] == [r[:cut] for r in csv.reader(fb)]
        summary = json.loads((alone / f"{tag}_summary.json").read_text())
        shared_summary = json.loads((tmp_path / "shared" / f"{tag}_summary.json").read_text())
        assert untimed_summary(shared_summary) == untimed_summary(summary)
        assert untimed_summary(shared[tag]) == untimed_summary(summary)


def test_sweep_aggregates_medians(tmp_path):
    cfg = small_config(tmp_path, k_max=3)
    out = sweep(cfg, deltas=[1e-3, 5e-4], seeds=[0, 1], relative=True)
    assert len(out["runs"]) == 4
    assert len(out["median_err_theta_by_delta"]) == 2
    assert (tmp_path / "sweep.json").exists()


def test_sweep_gates_and_marches_the_truth_once(tmp_path, monkeypatch):
    """2 relative levels x 3 seeds: one self-test and one truth march, and
    each run, which only draws its noise, is the run made on its own."""
    calls = {}
    for name in ("selftest", "synthesize_truth", "add_noise"):
        def counted(*args, _wrapped=getattr(harness, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    cfg = small_config(tmp_path / "sweep", k_max=2, delta_w=1e-4)
    out = sweep(cfg, deltas=[1e-3, 5e-4], seeds=[0, 1, 2], relative=True)
    assert calls == {"selftest": 1, "synthesize_truth": 1, "add_noise": 6}
    last = out["runs"][-1]
    alone = run_experiment(replace(cfg, delta_z=last["delta_z"], seed=2, output_dir=str(tmp_path)))
    assert {key: alone[key] for key in last if key not in ("delta_z", "seed")} == {
        key: last[key] for key in last if key not in ("delta_z", "seed")
    }


@pytest.mark.parametrize(
    "deltas, seeds",
    [([1e-3, -1e-3], [0]), ([1e-3], [0, -1]), ([], range(3)), ([1e-3], []), ([1e-3], [1.2, 1.7])],
)
def test_sweep_rejects_a_bad_run_before_any_work(tmp_path, monkeypatch, deltas, seeds):
    """A negative level or seed, a fractional seed, or no level or no seed,
    from a Python caller fails before the gate and the truth march, and no
    directory is written."""
    for name in ("selftest", "synthesize_truth"):
        monkeypatch.setattr(harness, name, lambda *args, _name=name, **kw: pytest.fail(_name))
    with pytest.raises(ValidationError):
        sweep(small_config(tmp_path / "out"), deltas=deltas, seeds=seeds, relative=True)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tags", [["aLW", "rLW", "bogus"], []], ids=["unknown-tag", "no-tag"])
def test_compare_rejects_bad_tags_before_any_work(tmp_path, monkeypatch, tags):
    """An unknown tag after good ones, or no tag, fails before the gate and
    the truth march, and no method runs or writes a file."""
    for name in ("selftest", "synthesize_truth"):
        monkeypatch.setattr(harness, name, lambda *args, _name=name, **kw: pytest.fail(_name))
    with pytest.raises(ValidationError):
        compare(small_config(tmp_path / "out"), tags)
    assert list(tmp_path.iterdir()) == []


def test_config_round_trips_through_dict(tmp_path):
    """A config file written from to_dict loads back as the same config."""
    for stepsize, mu in (("fixed", 0.5), ("norm", 1.0)):
        cfg = ExperimentConfig(
            n_x=12, n_t=8, horizon=0.2, gain=5.0, truth_amplitude=0.3,
            method=MethodConfig(
                tag="aLWK", mu=mu, stepsize=stepsize, alpha0=2.0, q=0.5, tau_disc=3.0,
                k_max=7, m=4, cg_tol=1e-6, cg_max=50,
            ),
            delta_w=1e-3, delta_z=2e-3, seed=9, output_dir=str(tmp_path), policy="newton",
            start_at_truth=True,
        )
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_config_round_trips_apriori_stop_and_prior(tmp_path):
    """The a-priori stop and the IRGNM prior survive the config file's round trip."""
    prior_state = np.arange(28.0).reshape(7, 4)
    cfg = ExperimentConfig(
        n_x=4, n_t=6, output_dir=str(tmp_path),
        method=MethodConfig(
            tag="aIRGNM", k_apriori=3, prior_theta=np.array([0.5, -1.0, 2.0, 0.25]),
            prior_state=prior_state,
        ),
    )
    raw = json.loads(json.dumps(cfg.to_dict()))
    assert raw["method"]["prior_theta"] == [0.5, -1.0, 2.0, 0.25]
    back = ExperimentConfig.from_dict(raw).method
    assert back.k_apriori == 3
    np.testing.assert_array_equal(back.prior_theta, cfg.method.prior_theta)
    np.testing.assert_array_equal(back.prior_state, prior_state)
    unset = json.loads(json.dumps(ExperimentConfig().to_dict()))["method"]
    assert unset["k_apriori"] is None and unset["prior_theta"] is None
    assert unset["prior_state"] is None
    back = ExperimentConfig.from_dict({"method": unset}).method
    assert back.k_apriori is None and back.prior_theta is None and back.prior_state is None


def test_config_from_empty_dict_is_the_default_config():
    """Every omitted key falls back to its dataclass default, the method's included."""
    got, want = ExperimentConfig.from_dict({}), ExperimentConfig()
    for f in fields(ExperimentConfig):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    for f in fields(MethodConfig):
        assert getattr(got.method, f.name) == getattr(want.method, f.name), f.name


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs jobs here."""

    requested = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize(
    "workers, seeds, cpus, expected",
    [(64, [0, 1, 2], 8, [3]), (64, [0, 1, 2], 2, [2]), (2, [0, 1, 2], 8, [2]), (8, [0], 8, []),
     (np.int64(2), np.arange(2), 8, [2])],  # numpy counts run, and sweep.json reads them as plain ints
)
def test_sweep_clamps_workers(tmp_path, monkeypatch, workers, seeds, cpus, expected):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InProcessPool, "requested", [])
    cfg = small_config(tmp_path, k_max=1)
    out = sweep(cfg, deltas=[1e-3], seeds=seeds, workers=workers)
    assert _InProcessPool.requested == expected
    assert len(out["runs"]) == len(seeds)


def test_selftest_assembles_each_derivative_matrix_once(monkeypatch):
    calls = []
    assemble = DenseOracle.aao_derivative_matrix

    def counted(self, point, slab=None):
        calls.append(slab)
        return assemble(self, point, slab=slab)

    monkeypatch.setattr(DenseOracle, "aao_derivative_matrix", counted)
    assert selftest(verbose=False)
    assert calls == [None, 0, 1]


@pytest.mark.parametrize(
    "raw",
    [
        {"instance": {"nx": 7}},
        {"method": {"k_mx": 5}},
        {"noise": {"delta": 1e-3}},
        {"truth": {"knd": "sine"}},
        {"outputdir": "out"},
        {"instance": 5},
        {"instance": {"T": float("inf")}},
        {"instance": {"T": float("nan")}},
        {"instance": {"T": 0.0}},
        {"instance": {"T": -0.1}},
        {"instance": {"n_t": 6}, "method": {"tag": "rLWK", "m": 4}},
        {"instance": {"n_x": 6}, "method": {"prior_theta": [1.0, 2.0]}},
        {"instance": {"n_x": 2, "n_t": 2}, "method": {"prior_state": [[0.0, 1.0]]}},
        {"method": {"k_apriori": "three"}},
        {"method": {"k_apriori": -2}},
        {"method": {"tag": "rIRGNM", "cg_max": 0}},
        {"method": {"cg_max": -1}},
        {"start_at_truth": "false"},
        {"start_at_truth": 0},
        {"method": {"k_max": 2.7}},
        {"method": {"k_max": float("inf")}},
        {"noise": {"seed": 0.5}},
        {"method": {"m": True}},
        {"method": {"mu": True}},
        {"instance": {"T": True}},
        {"instance": {"n_x": "8"}},
        {"output_dir": 5},
        {"instance": {"n_x": 3}, "method": {"prior_theta": [True, False, 1.0]}},
        {"truth": {"kind": "sin"}},
        {"instance": {"policy": "imx"}},
        {"truth": {"kind": ["sine"]}},
        {"instance": {"policy": None}},
        {"noise": {"delta_z": float("nan")}},
        {"noise": {"delta_z": float("inf")}},
        {"noise": {"delta_w": float("nan")}},
        {"instance": {"gain": float("inf")}},
        {"truth": {"amplitude": float("nan")}},
        {"method": {"mu": float("inf")}},
        {"method": {"alpha0": float("inf")}},
        {"method": {"tau_disc": float("inf")}},
        {"method": {"cg_tol": float("nan")}},
        {"method": {"cg_tol": -1.0}},
        {"method": {"cg_tol": 0.0}},
        {"method": {"alpha0": -1.0}},
        {"method": {"alpha0": 0.0}},
        {"instance": {"n_x": 2}, "method": {"prior_theta": [0.0, float("nan")]}},
        {"instance": {"n_x": 0}},
        {"instance": {"n_t": 0, "T": 0.1}},
        {"noise": {"seed": -1}},
    ],
)
def test_config_rejects_malformed_input_at_load(raw):
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("cls", [MethodConfig, ExperimentConfig])
def test_every_count_field_is_checked_at_construction(cls):
    """Every field typed int or int | None rejects a fractional or bool count
    and accepts a numpy integer, so a count field added without its check fails here."""
    counts = [f.name for f in fields(cls) if f.type in (int, int | None)]
    assert counts
    for name in counts:
        for bad in (2.5, True):
            with pytest.raises(ValidationError):
                cls(**{name: bad})
        assert getattr(cls(**{name: np.int64(3)}), name) == 3


def test_config_loads_numpy_scalars():
    """A config built from numpy scalars writes and loads as plain numbers."""
    raw = ExperimentConfig(n_x=np.int64(8), horizon=np.float64(0.2)).to_dict()
    got = ExperimentConfig.from_dict(raw)
    assert got.n_x == 8 and type(got.n_x) is int
    assert got.horizon == 0.2 and type(got.horizon) is float


def test_reports_write_configs_holding_numpy_scalars(tmp_path):
    """summary.json and comparison.json echo the config as plain JSON, and a
    config that holds numpy scalars loads as plain numbers."""
    cfg = replace(small_config(tmp_path, k_max=2), n_x=np.int64(6), n_t=np.int64(4),
                  horizon=np.float64(0.05), seed=np.int64(3), start_at_truth=np.bool_(False))
    run_experiment(cfg)
    compare(cfg, ["rLW", "aLW"])
    for name in ("rLW_summary.json", "comparison.json"):
        assert json.loads((tmp_path / name).read_text())
    echo = json.loads((tmp_path / "rLW_summary.json").read_text())["config"]
    assert echo["instance"]["n_x"] == 6 and echo["noise"]["seed"] == 3
    got = ExperimentConfig.from_dict({"instance": {"n_x": np.int64(6), "T": np.float64(0.05)}})
    assert type(got.n_x) is int and type(got.horizon) is float


def test_readme_config_schema_lists_every_key():
    """The README's config block loads, and names every key to_dict writes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Config file schema (JSON):", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    raw = json.loads(block)
    ExperimentConfig.from_dict(raw)
    want = ExperimentConfig().to_dict()
    assert raw.keys() == want.keys()
    for section, keys in want.items():
        if isinstance(keys, dict):
            assert raw[section].keys() == keys.keys(), section


# -- CLI ----------------------------------------------------------------------------------


def write_config(tmp_path, **overrides):
    raw = {
        "instance": {"n_x": 8, "n_t": 6, "T": 0.05, "gain": 10.0},
        "truth": {"kind": "sine", "amplitude": 0.1},
        "method": {"tag": "rLW", "mu": 1.0, "k_max": 3, "m": 1},
        "noise": {"delta_w": 0.0, "delta_z": 0.0, "seed": 0},
        "output_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_run(tmp_path, capsys):
    rc = cli_main(["run", "--config", write_config(tmp_path)])
    assert rc == 0
    assert (tmp_path / "out" / "rLW_iterations.csv").exists()


def test_cli_selftest(capsys):
    assert cli_main(["selftest", "--quiet"]) == 0


def test_cli_bad_config_exits_1(tmp_path, monkeypatch):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli_main(["run", "--config", str(path)]) == 1
    ok = write_config(tmp_path, method={"tag": "noSuchMethod", "k_max": 2})
    assert cli_main(["run", "--config", ok]) == 1
    # JSON that Python's json module reads as NaN
    path.write_text('{"noise": {"delta_z": NaN}}')
    assert cli_main(["run", "--config", str(path)]) == 1
    # 1e-3 and 1.0000001e-3 name the directory delta_0.001 twice, and so do 1e-3 and 1e-3;
    # 0 and -0 name two directories but one noise level, which would share one median
    for deltas in ("1e-3,abc", "1e-3,nan", "inf", "1e-3,1.0000001e-3", "1e-3,1e-3", "0,-0"):
        assert cli_main(["sweep", "--config", write_config(tmp_path), "--deltas", deltas]) == 1
    # a repeated tag would overwrite the first run's files
    for tags in ("aLW,aLW", "rLW,aLW,rLW"):
        assert cli_main(["compare", "--config", write_config(tmp_path), "--methods", tags]) == 1
    for seeds in ("0", "-1"):  # a sweep of no runs
        assert cli_main(["sweep", "--config", write_config(tmp_path), "--deltas", "1e-3", "--seeds", seeds]) == 1
    for workers in ("0", "-3"):
        assert cli_main(["sweep", "--config", write_config(tmp_path), "--deltas", "1e-3", "--seeds", "1",
                         "--workers", workers]) == 1
    assert not (tmp_path / "out").exists()
    # a non-positive CG tolerance, regularization parameter or CG cap, or a negative
    # a-priori stop, rejected before any solve
    for method in ({"tag": "rIRGNM", "cg_tol": -1.0, "k_max": 2},
                   {"tag": "rIRGNM", "alpha0": -1.0, "k_max": 3},
                   {"tag": "aIRGNM", "alpha0": 0.0, "k_max": 3},
                   {"tag": "rIRGNM", "cg_max": 0, "k_max": 2},
                   {"tag": "rLW", "k_apriori": -2, "k_max": 3}):
        assert cli_main(["run", "--config", write_config(tmp_path, method=method)]) == 1
    # sizes below 1 and a negative seed, rejected at load: the self-test gate never runs
    gate = []
    monkeypatch.setattr(harness, "selftest", lambda verbose=True: gate.append(verbose) or True)
    for instance, noise in (({"n_x": 0, "n_t": 6, "T": 0.05}, {}),
                            ({"n_x": 8, "n_t": 0, "T": 0.05}, {}),
                            ({"n_x": 8, "n_t": 6, "T": 0.05}, {"seed": -1, "delta_z": 1e-3})):
        assert cli_main(["run", "--config", write_config(tmp_path, instance=instance, noise=noise)]) == 1
    assert gate == []
    assert not (tmp_path / "out").exists()


def test_cli_solver_failure_exits_2(tmp_path):
    # CG cannot reach 1e-14 in a single iteration: the inner solve must abort
    cfg = write_config(
        tmp_path,
        method={"tag": "rIRGNM", "k_max": 2, "cg_tol": 1e-14, "cg_max": 1},
    )
    assert cli_main(["run", "--config", cfg]) == 2


def test_cli_selftest_failure_exits_3(monkeypatch, capsys):
    import dyninv.cli as cli_mod

    monkeypatch.setattr(cli_mod, "selftest", lambda verbose: False)
    assert cli_main(["selftest", "--quiet"]) == 3


@pytest.mark.parametrize(
    "args",
    [["run"], ["compare", "--methods", "aLW,rLW"], ["sweep", "--deltas", "1e-3", "--seeds", "1"]],
)
def test_cli_failed_selftest_gate_exits_3(tmp_path, monkeypatch, capsys, args):
    """run, compare and sweep refuse to run after a failed gate, with the self-test exit code."""
    monkeypatch.setattr(harness, "selftest", lambda verbose=True: False)
    command, *rest = args
    assert cli_main([command, "--config", write_config(tmp_path), *rest]) == 3
    assert "self-test" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_compare_with_an_unknown_tag_runs_nothing(tmp_path):
    """aLW is a good tag, but the run of a list with a bad one starts no method."""
    out = tmp_path / "out"
    out.mkdir()
    assert cli_main(["compare", "--config", write_config(tmp_path), "--methods", "aLW,bogus"]) == 1
    assert list(out.iterdir()) == []


def test_cli_compare(tmp_path, capsys):
    rc = cli_main(["compare", "--config", write_config(tmp_path), "--methods", "aLW,rLW"])
    assert rc == 0


def test_cli_sweep(tmp_path, capsys):
    rc = cli_main(
        ["sweep", "--config", write_config(tmp_path), "--deltas", "1e-3", "--seeds", "2", "--relative"]
    )
    assert rc == 0


@pytest.mark.parametrize(
    "args", [[], ["run"], ["run", "--config"], ["sweep", "--deltas", "1e-3", "--seeds", "abc"]]
)
def test_cli_usage_errors_exit_1(tmp_path, capsys, args):
    """argparse's usage errors are validation errors: exit 2 is kept for solver failures."""
    if "sweep" in args:
        args = [*args, "--config", write_config(tmp_path)]
    assert cli_main(args) == 1
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_unknown_config_key_exits_1(tmp_path):
    assert cli_main(["run", "--config", write_config(tmp_path, instance={"nx": 7})]) == 1


def test_cli_divergence_exits_2(tmp_path):
    cfg = write_config(tmp_path, method={"tag": "aLW", "mu": 1e6, "k_max": 20})
    assert cli_main(["run", "--config", cfg]) == 2
