"""The benchmark's tracer (``perfbench/tracer.py``) wraps dyninv functions and
methods by name, so renaming one of them breaks ``perfbench/run.py --trace 1``.
This installs every wrapper, runs the self-test through them and removes them.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from dyninv import harness  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_tracer_finds_and_removes_every_wrapped_name():
    tracer = Tracer()
    try:
        tracer.install()
        assert harness.selftest(verbose=False)
    finally:
        assert tracer.uninstall()
    assert tracer.calls["harness.selftest"] == 1
    assert tracer.calls["aao.adjoint"] > 0
    # the problem's hooks are wrapped on the class: the all-at-once residual
    # reads the reaction through one
    assert tracer.calls["problem.reaction"] > 0
