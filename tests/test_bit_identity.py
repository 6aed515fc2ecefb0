"""The six methods return the committed bits (``tests/bit_identity.json``).

``tests/bit_identity.py`` reruns the reference's runs in one child process with
one BLAS thread, since bit-identity holds only at a fixed thread count.  On the
reference's fingerprint every digest, k*, stop reason and self-test gate value
must match.  On a different fingerprint (another numpy, BLAS or CPU) the bits
may differ, so the test compares the stop reasons, k* to within K_STAR_RTOL (a discrepancy stop
may move by an iteration) and, where k* is equal, the summary values at a
relative tolerance of SUMMARY_RTOL instead, and warns that it did.

A change that moves bits on purpose rewrites the reference with
``python tests/bit_identity.py --write`` and reports its largest difference.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SCRIPT = HERE / "bit_identity.py"
REFERENCE = HERE / "bit_identity.json"
SUMMARY_RTOL = 1e-6
K_STAR_RTOL = 1e-3


def _recompute():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_runs_match_the_committed_reference():
    want = json.loads(REFERENCE.read_text())
    got = _recompute()
    assert sorted(got["runs"]) == sorted(want["runs"])
    if got["fingerprint"] == want["fingerprint"]:
        moved = [f"data {name}" for name in want["data"] if got["data"][name] != want["data"][name]]
        gate = want["selftest"].items()
        moved += [f"selftest {name}" for name, value in gate if got["selftest"][name] != value]
        for name, ref in want["runs"].items():
            run = got["runs"][name]
            moved += [f"{name} {key}" for key in ("k_star", "stop_reason") if run[key] != ref[key]]
            moved += [f"{name} {key}" for key, value in ref["digests"].items() if run["digests"][key] != value]
        assert moved == []
        return
    warnings.warn(
        f"fingerprint {got['fingerprint']} differs from the reference's {want['fingerprint']}: "
        f"comparing stop reasons, k* to within {K_STAR_RTOL:.1%} and, at an equal k*, the "
        f"summary values at rtol {SUMMARY_RTOL}"
    )
    for name, ref in want["runs"].items():
        run = got["runs"][name]
        assert run["stop_reason"] == ref["stop_reason"], name
        assert abs(run["k_star"] - ref["k_star"]) <= K_STAR_RTOL * ref["k_star"], name
        if run["k_star"] == ref["k_star"]:
            for key, value in ref["summary"].items():
                assert run["summary"][key] == pytest.approx(value, rel=SUMMARY_RTOL), f"{name} {key}"
