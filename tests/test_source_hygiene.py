"""Static checks on the package source, with the standard library's ast.

Every name a module imports is used there or re-exported through its
__all__, and every private function or method is referenced somewhere in
the package.  Every local name a function assigns, other than _, is read
in that function.  The import and local checks cover the test files too.
__init__.py imports only to re-export, so it is not checked for unused
imports.  The site's types are constructed only in words.py, so the
trusted construction of the site stays in one module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "xmodp"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
TEST_TREES = {
    f"tests/{path.name}": ast.parse(path.read_text(), filename=str(path))
    for path in sorted(Path(__file__).resolve().parent.glob("*.py"))
}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _referenced(tree):
    """Names read in the module, as bare names or as attributes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_package_modules_are_found():
    assert {"__init__.py", "groups.py", "xmod.py", "limits.py", "cli.py"} <= set(TREES)


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}) + sorted(TEST_TREES))
def test_no_unused_imports(module):
    tree = {**TREES, **TEST_TREES}[module]
    used = _referenced(tree) | _exported(tree)
    assert [name for name in _imported(tree) if name not in used] == []


def test_every_private_function_is_referenced():
    referenced = set().union(*(_referenced(tree) for tree in TREES.values()))
    unreferenced = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and node.name not in referenced
    ]
    assert unreferenced == []


SITE_TYPES = {"FreeObject", "Word", "Symbol", "SiteMorphism"}


def test_site_types_are_constructed_only_in_words():
    calls = [
        f"{module}:{node.lineno} {name}"
        for module, tree in TREES.items()
        if module != "words.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
        if name in SITE_TYPES
    ]
    assert calls == []
    assert {
        node.func.id
        for node in ast.walk(TREES["words.py"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    } >= SITE_TYPES


def _own_nodes(function):
    """The nodes of a function's own scope: nested functions, lambdas and classes are left out."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_every_assigned_local_is_read():
    # A nested function may read its enclosing function's locals, so reads
    # are collected over the whole function, nested scopes included.
    unread = []
    for module, tree in {**TREES, **TEST_TREES}.items():
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = list(_own_nodes(function))
            declared = {
                name for node in own if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names
            }
            read = {
                node.id
                for node in ast.walk(function)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unread += [
                f"{module}:{node.lineno} {function.name}: {node.id}"
                for node in own
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                and node.id != "_" and node.id not in read | declared
            ]
    assert unread == []
