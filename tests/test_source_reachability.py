"""No code path that only tests can reach.

Every function, method and class defined in `src/ratar` must be referenced
somewhere in `src/ratar` outside its own body (imports do not count).  A
method counts as referenced only through an attribute access of its name
(`x.name`), so a local variable that shares a method's name is no call of
it; a module-level definition counts through its bare name or an attribute
of that name.  Matching is still by name, not by type: the test catches
definitions nothing else in the package names.
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
    # used by demos/03_backbone_walkthrough.py
    "Dataset.row",
    # read by the benchmark's worker (perfbench/worker.py), with the
    # has_label of each record it gives
    "Dataset.records",
    "CountyYearRecord.has_label",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(module: str, tree: ast.Module):
    """(qualified name, node, is a method) of every module-level and class-level def."""
    for node in tree.body:
        if isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            yield f"{module}.{node.name}", node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTIONS):
                    yield f"{node.name}.{item.name}", item, True


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _references(trees):
    """name -> the nodes reading it: (by attribute access, by bare name)."""
    attributes, names = {}, {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.Name):
                names.setdefault(node.id, []).append(node)
    return attributes, names


def _unreferenced(trees):
    attributes, names = _references(trees)
    out = []
    for module, tree in trees.items():
        for qualified, node, is_method in _definitions(module, tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            uses = attributes.get(name, []) + ([] if is_method else names.get(name, []))
            own = {id(inner) for inner in ast.walk(node)}
            if all(id(use) in own for use in uses):
                out.append(qualified)
    return out


def test_every_definition_is_referenced_in_src():
    unreferenced = [q for q in _unreferenced(_trees()) if q not in ALLOWED]
    assert unreferenced == [], f"defined in src/ratar but never referenced there: {unreferenced}"


def test_allowlist_names_existing_definitions():
    """No stale entry: each names a definition that exists and that
    nothing in the package reaches."""
    assert sorted(_unreferenced(_trees())) == sorted(ALLOWED)


def test_methods_need_an_attribute_access_outside_their_body():
    tree = ast.parse(
        "class A:\n"
        "    def used(self):\n"
        "        return 1\n"
        "    def recursive(self):\n"
        "        return self.recursive()\n"
        "    def shadowed(self):\n"
        "        return 0\n"
        "def f(shadowed):\n"
        "    return A().used(), shadowed, f\n"
        "def g():\n"
        "    return f\n")
    assert _unreferenced({"m": tree}) == ["A.recursive", "A.shadowed", "m.g"]
