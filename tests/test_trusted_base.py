"""The trusted base: the code a reader must trust to trust a certificate.

Every first-principles check lives in circarc/check.py, which imports only
the standard library, numpy and circarc/graph.py.  The reader of certificate
documents, circarc/formats.py, imports nothing of the recognizer's routes.
"""

import ast
from pathlib import Path

import pytest

from circarc import arcs, check, edgetypes, knotting, recognizer

SRC = Path(check.__file__).resolve().parent

CHECK_IMPORTS = {"__future__", "dataclasses", "enum", "hashlib", "json", "typing",
                 "numpy", ".graph"}
ROUTES = {"recognizer", "knotting", "delta", "intervals"}
CHECKS = {
    "write_graph6", "graph_digest", "G6_MAX_N",
    "EdgeType", "TypedGraph", "UnreducedGraphError", "InternalError",
    "classify_all", "typed_graph", "_matrices", "circular_pairs",
    "representation_error", "avoids", "completion_error", "walk_pair_error",
    "_vertex_set_error",
    "Arcs", "Certificate", "POSITIVE", "NEGATIVE", "AvoidWalkPair",
    "positive_error", "negative_error", "verify_positive", "verify_negative",
}
OLD_HOMES = [(knotting, "walk_pair_error"), (recognizer, "verify_positive"),
             (recognizer, "verify_negative"), (recognizer, "negative_error"),
             (arcs, "representation_error"), (edgetypes, "classify_all"),
             (edgetypes, "circular_pairs")]


def tree(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def imports(module):
    """The modules an ast imports from, relative ones with their dots."""
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def defined(module):
    """The names an ast binds other than by import."""
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
    for node in module.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_check_imports_only_stdlib_numpy_and_graph():
    assert set(imports(tree("check.py"))) <= CHECK_IMPORTS


def test_formats_imports_no_route():
    got = {name.lstrip(".").removeprefix("circarc.") for name in imports(tree("formats.py"))}
    assert not got & ROUTES


def test_checks_are_defined_in_check_only():
    assert CHECKS <= set(defined(tree("check.py")))
    for path in sorted(SRC.glob("*.py")):
        if path.name != "check.py":
            assert not CHECKS & set(defined(tree(path.name))), path.name


@pytest.mark.parametrize("module,name", OLD_HOMES,
                         ids=[f"{m.__name__}.{n}" for m, n in OLD_HOMES])
def test_old_homes_bind_the_same_objects(module, name):
    assert getattr(module, name) is getattr(check, name)
