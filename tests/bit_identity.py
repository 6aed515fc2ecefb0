"""Digests of what the six methods return on three benchmark-sized instances.

The runs use dyninv's public functions only: ``harness.make_instance``,
``synthesize_truth`` and ``add_noise`` set up the data, and ``methods.run``
iterates each tag for a few steps; aLW and rLW on the noisy instance run to
their discrepancy stop.  The instances are
(n_x, N) = (30, 50) with noisy data, (100, 100) and (896, 8), the smallest
size on the nodal side of the all-at-once operator's size cut.  The reduced
tags run under both solve policies, imex and newton.

For every run the record keeps k*, the stop reason, a SHA-256 digest of each
non-timing row column, of ``theta_final`` and of ``state_final``, and a few
summary values.  Digests of the synthesized data are kept too.  Bit-identity
holds only at a fixed BLAS thread count, so the script runs with one thread.

    python tests/bit_identity.py            # print the record as JSON
    python tests/bit_identity.py --write    # rewrite tests/bit_identity.json

``tests/test_bit_identity.py`` runs it in a child process and compares the
output with the committed reference.
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


def record_run(rec) -> dict:
    cols = {name: rec.column(name) for name in COLUMNS}
    return {
        "k_star": rec.k_star,
        "stop_reason": rec.stop_reason,
        "digests": {
            **{name: digest(col) for name, col in cols.items()},
            "theta_final": digest(rec.theta_final),
            "state_final": digest(rec.state_final.values),
        },
        "summary": {
            "mu": rec.metadata["mu"],
            "res_total": float(cols["res_total"][-1]),
            "err_theta": float(cols["err_theta"][-1]),
            "theta_norm": float(np.linalg.norm(rec.theta_final)),
            "state_norm": float(np.linalg.norm(rec.state_final.values)),
        },
    }


def compute() -> dict:
    out = {"fingerprint": fingerprint(), "data": {}, "runs": {}}
    for name, (n_x, n_t, horizon, m, rel_noise, runs) in INSTANCES.items():
        inst = harness.make_instance(n_x, n_t, horizon, GAIN, m=m)
        theta, state, y = harness.synthesize_truth(inst, "sine", AMPLITUDE)
        delta_z = rel_noise * norm_observation(inst.triple, y)
        data = harness.add_noise(inst, y, theta, 0.0, delta_z, NOISE_SEED)
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
                out["runs"][key] = record_run(rec)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    text = json.dumps(compute(), indent=1, sort_keys=True) + "\n"
    if argv == ["--write"]:
        REFERENCE.write_text(text)
        print(f"wrote {REFERENCE}")
    elif argv:
        raise SystemExit("usage: python tests/bit_identity.py [--write]")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
