"""Every function and method defined in ``src/dyninv`` is referenced there, and
reads every parameter it takes; every name a module imports is read in it.

A reference is a name or an attribute read anywhere in the package outside the
definition itself; imports do not count, so a re-export in ``__init__`` keeps
nothing alive.  A parameter is read when its body loads the name, passing it on
included.  What only callers outside the package read is named below, and
what is allowed for the benchmark's sake stays allowed only while the benchmark
names it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dyninv"
PERFBENCH = SRC.parents[1] / "perfbench"

# the console entry and the argparse hook
ENTRY_POINTS = {"cli.main", "cli._Parser.error"}

# read only from outside the package, one reason each
ALLOWED = {
    "evolve_backward": "perfbench/ wraps it by name (spaces layer)",
    "solve_stiffness": "perfbench/ wraps it by name (spaces layer)",
    "f_u_matrix": "perfbench/ wraps it by name; tests assemble f_u densely with it",
    "apply_jac": "perfbench/ wraps it by name; tests check f_u against it",
    "inner_residual": "perfbench/ checks the adjoint identity with it",
    "inner_state": "perfbench/ wraps it by name and checks the adjoint identity with it",
    "slab_derivative": "tests check the slab maps and the dense oracle's slab rows against it",
}

# parameters left unread, one reason each
UNREAD = {
    ("reduced.ReducedOperator.derivative", "theta"): "perfbench/ calls derivative(theta, state, xi) positionally",
    ("reduced.ReducedOperator.adjoint", "theta"): "perfbench/ calls adjoint(theta, state, z) positionally",
}


def _reads(tree):
    """Names and attributes read under ``tree``."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
    return out


def _loaded_names(tree):
    """The bare names loaded under ``tree``."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _definitions(tree, prefix):
    """(qualified name, node) of every function and method, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            if not isinstance(node, ast.ClassDef):
                yield name, node
            yield from _definitions(node, name)
        else:
            yield from _definitions(node, prefix)


def _package_definitions():
    """{qualified name: node} of every function and method in the package."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        out.update(_definitions(ast.parse(path.read_text()), path.stem))
    return out


def _parameters(node):
    """The parameters of a function, a method's self or cls left out."""
    args = node.args
    every = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
    return [a.arg for a in every if a is not None and a.arg not in ("self", "cls")]


def _perfbench_trees():
    return [ast.parse((PERFBENCH / name).read_text()) for name in ("tracer.py", "bench.py")]


def test_every_function_in_the_package_is_referenced():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unread, defined = [], set()
    for module, tree in trees.items():
        for qualname, node in _definitions(tree, module):
            name = node.name
            defined.add(name)
            dunder = name.startswith("__") and name.endswith("__")
            if dunder or qualname in ENTRY_POINTS or name in ALLOWED:
                continue
            if reads[name] - _reads(node)[name] <= 0:
                unread.append(qualname)
    assert unread == []
    # an allowed name that is gone, or now read inside the package, leaves the list
    assert sorted(name for name in ALLOWED if name not in defined or reads[name] > 0) == []


def test_every_perfbench_allowance_names_what_perfbench_still_reads():
    """An entry whose reason is perfbench/ names a function that the tracer or
    the benchmark still names: a string the tracer wraps by, or a name or an
    attribute read.  When the benchmark drops one, its entry and the function go."""
    named = Counter()
    for tree in _perfbench_trees():
        named += _reads(tree)
        named.update(n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str))
    assert sorted(name for name, why in ALLOWED.items() if "perfbench" in why and not named[name]) == []


def test_every_parameter_of_a_package_function_is_read():
    """A parameter no body reads is a contract the code does not keep: a hook
    that takes a time the model never reads.  Lambdas are not checked, as a
    dispatch table fixes their one signature."""
    unread = set()
    for qualname, node in _package_definitions().items():
        loads = _loaded_names(ast.Module(node.body, []))
        unread.update((qualname, name) for name in _parameters(node) if name not in loads)
    assert sorted(unread - UNREAD.keys()) == []
    # an allowance whose parameter is read again, or gone, leaves the list
    assert sorted(UNREAD.keys() - unread) == []


def test_every_name_a_package_module_imports_is_read():
    """An import its module never reads is left over from a use that moved
    away, as ``import math`` is once its last caller calls a helper instead.
    ``__init__`` imports to re-export, so it is left out."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        loads = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loads:
                        unread.append(f"{path.stem}: {name}")
    assert unread == []


def test_every_unread_parameter_allowance_names_a_call_perfbench_still_makes():
    """An unread parameter kept for perfbench/ is one the benchmark fills by
    position: it calls the method by name with an argument there.  When it
    stops, the allowance and the parameter go."""
    filled = Counter()  # the most positional arguments of a call by attribute name
    for tree in _perfbench_trees():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
                filled[n.func.attr] = max(filled[n.func.attr], len(n.args))
    defined = _package_definitions()
    stale = []
    for (qualname, name), why in UNREAD.items():
        node = defined[qualname]
        if "perfbench" in why and filled[node.name] <= _parameters(node).index(name):
            stale.append((qualname, name))
    assert stale == []


def test_every_docstring_cross_reference_names_a_package_definition():
    """A ``:func:``, ``:meth:``, ``:class:``, ``:data:`` or ``:attr:`` reference
    in the package names a function, method, class or module-level name the
    package defines, by the last part of its dotted path (``~`` ignored): a
    reference to a name that was deleted or renamed is stale."""
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    stale = []
    for path in sorted(SRC.glob("*.py")):
        for ref in re.findall(r":(?:func|meth|class|data|attr):`~?([^`]+)`", path.read_text()):
            if ref.split(".")[-1] not in defined:
                stale.append(f"{path.stem}: {ref}")
    assert stale == []
