"""Static checks on the package source, with the standard library's ast.

Every name a module imports is used there or re-exported through its
__all__, and every private function or method is referenced somewhere in
the package.  Every name in a module's __all__ that the package does not
re-export is read somewhere in the package, outside its own definition
and __all__, or is named, with its reason, in UNREAD_PUBLIC.  Every local
name a function assigns, other than _, is read in that function.  The
import and local checks cover the test files too.
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


def _reexported():
    """The names the package __init__ imports, a star import bringing its
    module's whole __all__."""
    out = set()
    for node in TREES["__init__.py"].body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                out |= _exported(TREES[f"{node.module}.py"]) if alias.name == "*" else {alias.asname or alias.name}
    return out


def _reads(node):
    """What a node reads: name loads, attributes, names imported from
    another module, and string constants (session dispatches on names)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _defines(node):
    """The module-level names a statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


# Public names with no reader in the package, each kept for a reason.  A
# local variable of the same name reads as a use, so the gate can miss a
# name, never flag a read one.
UNREAD_PUBLIC = {
    "normal_subgroups": "the candidates for enumerating the internal equivalence relations of XMod/P",
    "conjugacy_class": "normal closures of conjugacy classes build those candidates on a large M",
    "presheaf_action": "the word action of any site morphism, the oracle every closed-form map is compared with",
}


def test_every_public_name_not_reexported_is_read():
    statements = [
        (module, _defines(node), set(_reads(node)))
        for module, tree in TREES.items()
        for node in tree.body
        if "__all__" not in _defines(node)
    ]
    reexported = _reexported()
    unread = [
        name
        for module, tree in TREES.items()
        for name in _exported(tree) - reexported
        if not any(
            name in reads and not (where == module and name in defined) for where, defined, reads in statements
        )
    ]
    assert sorted(unread) == sorted(UNREAD_PUBLIC)


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
