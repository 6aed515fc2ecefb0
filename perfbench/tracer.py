"""In-memory span tracer that wraps dyninv's public functions from outside.

``Tracer.install`` replaces each listed function in every ``dyninv`` namespace
that binds it (``dyninv.spaces.evolve_backward`` and the copy imported into
``dyninv.aao`` alike) and each listed method on its class with a wrapper that
records a span: name, parent span, start and end.  ``Tracer.uninstall`` puts
every original back.  A span's self time is its duration minus the time its
child spans cover; calls are synchronous, so children never overlap.
"""

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from dyninv import aao, harness, methods, problem, reduced, spaces

STEP_TAGS = {
    "step_aao_landweber": "aLW",
    "step_aao_landweber_kaczmarz": "aLWK",
    "step_aao_irgnm": "aIRGNM",
    "step_reduced_landweber": "rLW",
    "step_reduced_landweber_kaczmarz": "rLWK",
    "step_reduced_irgnm": "rIRGNM",
}

# module-level functions, wrapped wherever a dyninv module binds them
FUNCTIONS = (
    (spaces, (
        "build_triple", "evolve_forward", "evolve_backward", "solve_stiffness",
        "apply_stiffness", "inner_state", "inner_dual_load", "inner_observation", "norm_l2_v",
    )),
    (methods, ("run", "conjugate_gradient", "estimate_operator_norm", *STEP_TAGS)),
    (harness, ("selftest", "make_instance", "synthesize_truth", "add_noise")),
)

# methods, wrapped on their class
METHODS = (
    ("problem", problem.SemilinearDiffusion, ("f", "reaction", "apply_jac", "f_u_matrix")),
    ("aao", aao.AllAtOnceOperator, ("residual", "derivative", "adjoint", "slab_adjoint", "residual_norms")),
    ("reduced", reduced.ReducedOperator, (
        "solve_state", "solve_sensitivity", "solve_adjoint", "adjoint", "slab_adjoint",
    )),
)

NEWTON_STATE = "reduced.solve_state.newton"


def _label(short, name):
    if name in STEP_TAGS:
        return f"methods.step.{STEP_TAGS[name]}"
    return f"{short}.{name}"


def span_labels():
    """Every span name the tracer can record, in a fixed order."""
    out = []
    for module, names in FUNCTIONS:
        out += [_label(module.__name__.rsplit(".", 1)[1], n) for n in names]
    for short, _, names in METHODS:
        for n in names:
            if n == "solve_state":
                out += [f"{short}.solve_state.imex", NEWTON_STATE]
            else:
                out.append(_label(short, n))
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = []  # [span index, time covered by its children so far]
        self.depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._restore = []

    # -- spans ---------------------------------------------------------------------

    def enter(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(self._open[-1][0] if self._open else -1)
        self._open.append([len(self.start), 0.0])
        self.depth[name] += 1
        self.end.append(0.0)
        self.start.append(perf_counter())

    def exit(self):
        t = perf_counter()
        idx, covered = self._open.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        name = self.names[self.name_id[idx]]
        self.depth[name] -= 1
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - covered
        if self._open:
            self._open[-1][1] += dur

    def save(self, path):
        """Write every recorded span (times in seconds from the first span)."""
        start = np.frombuffer(self.start, dtype=float)
        t0 = start[0] if start.size else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=start - t0,
            end=np.frombuffer(self.end, dtype=float) - t0,
        )

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, fn, label, after=None):
        dynamic = callable(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(label(args) if dynamic else label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(args, result)
            return result

        traced.__perfbench_traced__ = True
        return traced

    def _after_solve_state(self, args, result):
        op = args[0]
        if op.policy == "newton":
            self.counts["newton_steps"] += op.grid.step_count

    def _after_f_u_matrix(self, args, result):
        if self.depth[NEWTON_STATE]:
            self.counts["newton_f_u_matrix"] += 1

    def _after_cg(self, args, result):
        self.counts["cg_iters"] += result[1]

    def install(self):
        after = {
            "solve_state": self._after_solve_state,
            "f_u_matrix": self._after_f_u_matrix,
            "conjugate_gradient": self._after_cg,
        }
        namespaces = [m for k, m in sys.modules.items() if k == "dyninv" or k.startswith("dyninv.")]
        for module, names in FUNCTIONS:
            short = module.__name__.rsplit(".", 1)[1]
            for name in names:
                fn = getattr(module, name)
                wrapper = self._wrap(fn, _label(short, name), after.get(name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._restore.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)
        for short, cls, names in METHODS:
            for name in names:
                fn = cls.__dict__[name]
                if name == "solve_state":
                    label = lambda args: f"reduced.solve_state.{args[0].policy}"  # noqa: E731
                else:
                    label = _label(short, name)
                self._restore.append((cls, name, fn))
                setattr(cls, name, self._wrap(fn, label, after.get(name)))

    def uninstall(self):
        """Put every original back; True when no wrapper is left anywhere."""
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)
        holders = [m for k, m in sys.modules.items() if k == "dyninv" or k.startswith("dyninv.")]
        holders += [cls for _, cls, _ in METHODS]
        return not any(
            getattr(v, "__perfbench_traced__", False) for h in holders for v in vars(h).values()
        )
