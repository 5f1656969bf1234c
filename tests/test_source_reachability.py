"""No code path that only tests can reach.

Every function, method and class defined in `src/ratar` must be referenced
by name somewhere in `src/ratar` (imports do not count).  Matching is by
bare name, so a method counts as referenced when any attribute of that
name is read; the test catches definitions nothing in the package names.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ratar"

# Definitions the package itself does not call, kept on purpose.
ALLOWED = {
    # the gradient verification harness
    "numcore.grad_check",
    # read by the benchmark's tracer (perfbench/tracer.py)
    "RefinedSampleSet.n_refined",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name) of every module-level and class-level def."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_is_referenced_in_src():
    trees = _trees()
    referenced = {name for tree in trees.values() for name in _references(tree)}
    unreferenced = [
        qualified
        for module, tree in trees.items()
        for qualified, name in _definitions(module, tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in referenced and qualified not in ALLOWED
    ]
    assert unreferenced == [], f"defined in src/ratar but never referenced there: {unreferenced}"


def test_allowlist_names_existing_definitions():
    trees = _trees()
    defined = {qualified for module, tree in trees.items()
               for qualified, _name in _definitions(module, tree)}
    assert ALLOWED <= defined, f"stale allowlist entries: {sorted(ALLOWED - defined)}"
