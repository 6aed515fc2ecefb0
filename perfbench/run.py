"""Run dyninv benchmark workloads, each in a fresh process, and print the results.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_nx100 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
library is imported from ``src/`` of the checkout; this script caps the BLAS
threads of the workload process itself and does not inherit the cap.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# one BLAS thread: on a small shared machine a second BLAS thread made
# dense solves stall whenever either CPU was busy elsewhere
BLAS_THREADS = "1"
TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_workload(name, seed, seconds, trace):
    """Output lines of one workload process; raises RuntimeError if it fails."""
    cmd = [
        sys.executable, str(HERE / "bench.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"workload {name} exceeded {TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"workload {name} exited with {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return proc.stdout.splitlines()


def main():
    if not (ROOT / "src" / "dyninv" / "__init__.py").is_file():
        sys.exit(f"no dyninv sources under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    chosen = names if args.workload == "all" else [args.workload]
    results, report = {}, []
    try:
        for name in chosen:
            lines = run_workload(name, args.seed, args.seconds, args.trace)
            results[name] = json.loads(lines[-1])
            report += lines
    except RuntimeError as exc:
        sys.exit(str(exc))
    print("\n".join(report))
    if args.workload == "all":
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))


if __name__ == "__main__":
    main()
