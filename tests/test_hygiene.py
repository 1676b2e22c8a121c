"""Source hygiene: no module imports a name at top level that it never uses,
no module-level function or class and no public method of the package goes
unused, the package has no floating point, and the README's library quick
tour runs."""

import ast
import os
import re

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


def _package_definitions():
    """({name: (node, where)} for each module-level function and class of the
    package, the names ``src/`` reads: loaded names, attributes and
    ``__all__`` entries)."""
    defined, read = {}, set()
    for path in PACKAGE:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where = "%s (line %d)" % (os.path.relpath(path, ROOT), node.lineno)
                defined[node.name] = node, where
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return defined, read


def test_private_definitions_are_referenced():
    """Every module-level ``_name`` function or class in the package is read
    somewhere in ``src/``, so a helper orphaned by a refactor fails here."""
    defined, read = _package_definitions()
    private = {name: where for name, (_, where) in defined.items()
               if name.startswith("_") and not name.startswith("__")}
    assert private
    orphans = ["%s %s" % (name, where) for name, where in sorted(private.items())
               if name not in read]
    assert not orphans, "unreferenced private definitions: " + ", ".join(orphans)


def _attributes(node, skip=()):
    """The attribute names read under ``node``, not looking inside ``skip``."""
    names, todo = set(), [node]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        todo.extend(child for child in ast.iter_child_nodes(node) if child not in skip)
    return names


def _unreached_methods(bench):
    """The public, non-dunder methods of the package's classes that nothing
    reaches: ``src/`` reads no attribute of that name outside the bodies of
    such methods (a method read only by unreached ones is unreached too), and
    ``perfbench/`` never writes ``.name``.  Names are matched, not receivers,
    so a method that shares its name with one the engine calls counts as
    reached."""
    methods, read = {}, set()  # name -> [(where, attributes its body reads)]
    for path in PACKAGE:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        bodies = set()
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not node.name.startswith("_"):
                    where = "%s.%s %s (line %d)" % (cls.name, node.name,
                                                    os.path.relpath(path, ROOT), node.lineno)
                    methods.setdefault(node.name, []).append((where, _attributes(node)))
                    bodies.add(node)
        read |= _attributes(tree, skip=bodies)
    assert methods
    reached = set()
    todo = list(read) + [name for name in methods if re.search(r"\.%s\b" % name, bench)]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(attr for _, attrs in methods.get(name, ()) for attr in attrs)
    return sorted(where for name, defs in methods.items() if name not in reached
                  for where, _ in defs)


def test_public_functions_have_a_caller():
    """Every public module-level function in the package is read somewhere
    in ``src/``, named in ``perfbench/``, or listed in ``__all__``, and every
    public method is reached from ``src/`` or ``perfbench/``
    (:func:`_unreached_methods`), so library code that only tests call fails
    here."""
    bench = ""
    for name in sorted(os.listdir(os.path.join(ROOT, "perfbench"))):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "perfbench", name)) as fh:
                bench += fh.read()
    defined, read = _package_definitions()
    public = {name: where for name, (node, where) in defined.items()
              if not name.startswith("_") and not isinstance(node, ast.ClassDef)}
    assert public
    orphans = ["%s %s" % (name, where) for name, where in sorted(public.items())
               if name not in read and not re.search(r"\b%s\b" % name, bench)]
    orphans += _unreached_methods(bench)
    assert not orphans, "public functions and methods nothing in src/ or perfbench/ " \
        "reaches: " + ", ".join(orphans)


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


def test_readme_quick_tour_runs():
    """The ``python`` block under "Library quick tour" in README.md runs as
    written, so the documented public API cannot drift unnoticed."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    section = readme.split("\n## Library quick tour\n")[1].split("\n## ")[0]
    tour = re.search(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert tour, "README.md has no python block under '## Library quick tour'"
    exec(compile(tour.group(1), "README.md quick tour", "exec"), {})
