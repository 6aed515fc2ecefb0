"""Digests of what the six methods return on three benchmark-sized instances.

The runs use dyninv's public functions only: ``harness.make_instance``,
``synthesize_truth`` and ``add_noise`` set up the data, and ``methods.run``
iterates each tag for a few steps; aLW and rLW on the noisy instance run to
their discrepancy stop.  The instances are
(n_x, N) = (30, 50) with noisy data, (100, 100) and (896, 8), on the nodal
side of the all-at-once operator's size cut.  The reduced
tags run under both solve policies, imex and newton.

For every run the record keeps k*, the stop reason, a SHA-256 digest of each
non-timing row column, of ``theta_final`` and of ``state_final``, and a few
summary values.  Digests of the synthesized data are kept too, and so are
the six values of the self-test gate (``harness.selftest_checks``) at full
precision.  Bit-identity
holds only at a fixed BLAS thread count, so the script runs with one thread.

    python tests/bit_identity.py            # print the record as JSON
    python tests/bit_identity.py --write    # rewrite tests/bit_identity.json
    python tests/bit_identity.py --npz A.npz         # save every run's arrays
    python tests/bit_identity.py --diff A.npz B.npz  # compare two saved sets

``tests/test_bit_identity.py`` runs it in a child process and compares the
output with the committed reference.  A change that moves bits saves the
arrays of both trees with ``--npz`` and reports ``--diff``: per cell and
column, the largest absolute difference and that difference relative to the
largest magnitude in the first file's column, or "equal" where the arrays are
equal byte for byte (so -0.0 and +0.0 differ and NaNs with the same bits are
equal).  ``--diff`` exits 1 when any array differs or is in one file only.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # before numpy loads its BLAS
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
from dataclasses import fields, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dyninv import harness, methods  # noqa: E402
from dyninv.methods import IterationRow, MethodConfig  # noqa: E402
from dyninv.reduced import ReducedOperator  # noqa: E402
from dyninv.spaces import norm_observation  # noqa: E402

REFERENCE = HERE / "bit_identity.json"
IRGNM = {"alpha0": 1.0, "q": 0.4, "cg_max": 2000}
COLUMNS = tuple(f.name for f in fields(IterationRow) if f.name != "step_ms")

# name: (n_x, N, horizon, m, observation noise as a share of ||y||, {tag: (k_max, options)});
# aLW and rLW on nx30 run to their discrepancy stop
INSTANCES = {
    "nx30": (30, 50, 0.5, 5, 2e-3, {
        "aLW": (80000, {}), "aLWK": (200, {}), "aIRGNM": (8, IRGNM),
        "rLW": (80000, {"stepsize": "norm"}), "rLWK": (50, {}), "rIRGNM": (8, IRGNM),
    }),
    "nx100": (100, 100, 0.1, 4, 0.0, {
        "aLW": (20, {}), "aLWK": (20, {}), "aIRGNM": (2, IRGNM),
        "rLW": (4, {}), "rLWK": (8, {}), "rIRGNM": (2, IRGNM),
    }),
    "nx896": (896, 8, 0.1, 4, 0.0, {
        "aLW": (4, {}), "aLWK": (4, {}), "aIRGNM": (1, IRGNM),
        "rLW": (2, {}), "rLWK": (4, {}), "rIRGNM": (1, IRGNM),
    }),
}
GAIN, AMPLITUDE, TAU_DISC, NOISE_SEED = 10.0, 0.1, 2.5, 41
# the model-noise path of add_noise (a perturbed Newton state solve), on nx30
MODEL_NOISE = 1e-3


def digest(a) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def fingerprint() -> dict:
    """What decides the bits besides the code: versions, BLAS and CPU features."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "simd": config["SIMD Extensions"]["found"],
    }


def run_arrays(rec) -> dict:
    """The arrays a run's digests cover: every non-timing column and the finals."""
    cols = {name: rec.column(name) for name in COLUMNS}
    return {**cols, "theta_final": rec.theta_final, "state_final": rec.state_final.values}


def record_run(rec, arrays) -> dict:
    """k*, the stop reason, the digests of :func:`run_arrays` and a few summary values."""
    return {
        "k_star": rec.k_star,
        "stop_reason": rec.stop_reason,
        "digests": {name: digest(a) for name, a in arrays.items()},
        "summary": {
            "mu": rec.metadata["mu"],
            "res_total": float(arrays["res_total"][-1]),
            "err_theta": float(arrays["err_theta"][-1]),
            "theta_norm": float(np.linalg.norm(rec.theta_final)),
            "state_norm": float(np.linalg.norm(rec.state_final.values)),
        },
    }


def compute(arrays=None) -> dict:
    """The record; with a dict ``arrays``, also every run's and dataset's arrays,
    keyed "cell/column"."""
    arrays = {} if arrays is None else arrays
    out = {"fingerprint": fingerprint(), "data": {}, "runs": {}}
    out["selftest"] = {name: float(value) for name, value, _ in harness.selftest_checks()}
    for name, (n_x, n_t, horizon, m, rel_noise, runs) in INSTANCES.items():
        inst = harness.make_instance(n_x, n_t, horizon, GAIN, m=m)
        theta, state, y = harness.synthesize_truth(inst, "sine", AMPLITUDE)
        delta_z = rel_noise * norm_observation(inst.triple, y)
        data = harness.add_noise(inst, y, theta, 0.0, delta_z, NOISE_SEED)
        for key, a in (("theta", theta), ("state", state.values), ("y_noisy", data.y_noisy.values)):
            arrays[f"{name}/{key}"] = a
        out["data"][name] = {
            "theta": digest(theta),
            "state": digest(state.values),
            "y": digest(y.values),
            "y_noisy": digest(data.y_noisy.values),
            "achieved_delta": data.achieved_delta,
        }
        if name == "nx30":
            noisy = harness.add_noise(inst, y, theta, MODEL_NOISE, delta_z, NOISE_SEED)
            out["data"]["nx30_model_noise"] = {
                "y_noisy": digest(noisy.y_noisy.values),
                "achieved_delta": noisy.achieved_delta,
                "c_estimate": noisy.c_estimate,
            }
        newton = replace(
            inst, reduced=ReducedOperator(inst.problem, inst.triple, inst.grid, inst.partition, policy="newton")
        )
        for tag, (k_max, options) in runs.items():
            for policy, instance in (("imex", inst), ("newton", newton)):
                if tag in methods.AAO_TAGS and policy == "newton":
                    continue
                cfg = MethodConfig(
                    tag=tag, mu=1.0, tau_disc=TAU_DISC, k_max=k_max,
                    m=m if tag.endswith("LWK") else 1, **options,
                )
                rec = methods.run(cfg, instance, data.y_noisy, data.achieved_delta, truth=(theta, state))
                key = f"{name}/{tag}" if tag in methods.AAO_TAGS else f"{name}/{tag}/{policy}"
                run = run_arrays(rec)
                out["runs"][key] = record_run(rec, run)
                arrays.update({f"{key}/{col}": a for col, a in run.items()})
    return out


def diff(path_a, path_b) -> tuple[list[str], bool]:
    """Lines "cell column abs rel" for every array of two ``--npz`` files, or
    "equal" where the bytes match, and whether every array matched; arrays of
    different shapes (a moved k*) are compared on their common leading rows,
    their shapes are named, and they count as different."""
    a, b = np.load(path_a), np.load(path_b)
    lines = [f"only in {path}: {key}" for path, mine, other in ((path_a, a, b), (path_b, b, a))
             for key in sorted(set(mine.files) - set(other.files))]
    equal = not lines
    for key in sorted(set(a.files) & set(b.files)):
        x, y = a[key], b[key]
        cell, col = key.rsplit("/", 1)
        shapes = "" if x.shape == y.shape else f" shapes {x.shape} {y.shape}"
        equal &= not shapes
        rows = min(len(x), len(y))
        x, y = x[:rows], y[:rows]
        if x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes():
            lines.append(f"{cell} {col} {'leading rows equal' if shapes else 'equal'}{shapes}")
            continue
        equal = False
        x, y = x.astype(float), y.astype(float)
        gaps = np.abs(x - y)
        gaps[np.isnan(x) & np.isnan(y)] = 0.0
        gap = float(np.max(gaps, initial=0.0))
        scale = float(np.max(np.abs(x), initial=0.0))
        rel = gap / scale if scale else float("inf")
        lines.append(f"{cell} {col} {gap:.2e} {rel:.2e}{shapes}")
    return lines, equal


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--diff":
        lines, equal = diff(*argv[1:])
        print("\n".join(lines))
        sys.exit(0 if equal else 1)
    if len(argv) == 2 and argv[0] == "--npz":
        arrays = {}
        compute(arrays)
        np.savez(argv[1], **arrays)
        print(f"wrote {argv[1]}")
        return
    text = json.dumps(compute(), indent=1, sort_keys=True) + "\n"
    if argv == ["--write"]:
        REFERENCE.write_text(text)
        print(f"wrote {REFERENCE}")
    elif argv:
        raise SystemExit(
            "usage: python tests/bit_identity.py [--write | --npz FILE | --diff FILE FILE]"
        )
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
