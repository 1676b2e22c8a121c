"""Source hygiene: no module imports a name at top level that it never uses,
no private module-level function or class of the package goes unused, and
the package has no floating point."""

import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SOURCES = sorted(
    os.path.join(dirpath, name)
    for top in ("src", "tests")
    for dirpath, _, names in os.walk(os.path.join(ROOT, top))
    for name in names if name.endswith(".py"))
PACKAGE = [path for path in SOURCES if os.path.relpath(path, ROOT).split(os.sep)[0] == "src"]


def _imported(tree):
    """(bound name, line) for each top-level import, __future__ excepted."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Names read anywhere, including string annotations and ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                used.add(base.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                         if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: os.path.relpath(p, ROOT))
def test_no_unused_top_level_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    used = _used(tree)
    unused = ["%s (line %d)" % (name, line) for name, line in _imported(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_private_definitions_are_referenced():
    """Every module-level ``_name`` function or class in the package is read
    somewhere in ``src/``, so a helper orphaned by a refactor fails here."""
    defined, referenced = {}, set()
    for path in PACKAGE:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined[node.name] = "%s (line %d)" % (os.path.relpath(path, ROOT), node.lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined
    orphans = ["%s %s" % (name, where) for name, where in sorted(defined.items())
               if name not in referenced]
    assert not orphans, "unreferenced private definitions: " + ", ".join(orphans)


def test_package_has_no_floating_point():
    """No float literal, no ``float`` name and no true division ``/`` in the
    package: coefficients are ``int`` or ``Fraction``, and an exact quotient
    is written ``Fraction(a, b)``."""
    assert PACKAGE
    hits = []
    for path in PACKAGE:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                what = "float literal %r" % node.value
            elif isinstance(node, ast.Name) and node.id == "float":
                what = "the name float"
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                what = "true division"
            else:
                continue
            hits.append("%s (line %d): %s" % (os.path.relpath(path, ROOT), node.lineno, what))
    assert not hits, "floating point in the package: " + ", ".join(hits)
