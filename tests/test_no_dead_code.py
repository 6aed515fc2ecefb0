"""Every function and method defined in ``src/dyninv`` is referenced there.

A reference is a name or an attribute read anywhere in the package outside the
definition itself; imports do not count, so a re-export in ``__init__`` keeps
nothing alive.  What only callers outside the package read is named below.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dyninv"

# the console entry and the argparse hook
ENTRY_POINTS = {"cli.main", "cli._Parser.error"}

# read only from outside the package, one reason each
ALLOWED = {
    "evolve_forward": "perfbench/ wraps it by name (spaces layer)",
    "evolve_backward": "perfbench/ wraps it by name (spaces layer)",
    "solve_stiffness": "perfbench/ wraps it by name (spaces layer)",
    "f_u_matrix": "perfbench/ wraps it by name; tests assemble f_u densely with it",
    "inner_residual": "perfbench/ checks the adjoint identity with it",
    "inner_state": "perfbench/ wraps it by name and checks the adjoint identity with it",
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
