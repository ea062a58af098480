"""The package exports no public API that only tests use.

Every public top-level function and class of src/robustroa must be named
by the program (src/), its demos (demos/) or its benchmark (perfbench/)
somewhere outside its own definition and outside a type annotation: a name
that only annotates (`arg: T`, `-> T`, `x: T = ...`) is used by no code.
The sources are read with ast alone, so this runs without numpy.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "robustroa"
USERS = ("src", "demos", "perfbench")


def public_definitions(tree):
    """The module's top-level public function and class nodes."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def annotation_nodes(node):
    """The ids of every node inside a type annotation under `node`: of an
    argument, a return or an annotated assignment."""
    roots = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.arg):
            roots.append(sub.annotation)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(sub.returns)
        elif isinstance(sub, ast.AnnAssign):
            roots.append(sub.annotation)
    return {id(n) for root in roots if root is not None for n in ast.walk(root)}


def names_in(node):
    """Counter of the identifiers `node` names outside its annotations:
    names, attributes, imported names, and strings that are a whole
    identifier (a getattr target)."""
    found = Counter()
    skip = annotation_nodes(node)
    for sub in ast.walk(node):
        if id(sub) in skip:
            continue
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            found[sub.value] += 1
    return found


def test_every_public_name_has_a_user_outside_tests():
    trees = [(path, ast.parse(path.read_text(), filename=str(path)))
             for folder in USERS for path in sorted((ROOT / folder).rglob("*.py"))]
    named = sum((names_in(tree) for _, tree in trees), Counter())
    defined = [(path, node) for path, tree in trees if path.is_relative_to(PACKAGE)
               for node in public_definitions(tree)]
    assert len(defined) > 30  # the scan found the package
    # a name used only inside its own definition (recursion) has no user
    unused = [f"{path.relative_to(ROOT)}: {node.name}" for path, node in defined
              if named[node.name] <= names_in(node)[node.name]]
    assert unused == []
