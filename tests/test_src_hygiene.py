"""No dead import or dead private name in the package's modules.

No linter ships with the test toolchain, so this reads each module with
``ast``: every module-level import must be read in its module, listed in
``__all__`` or marked ``# noqa: F401`` (a re-import kept for a caller that
looks it up by name), and every module-level function, class or constant
whose name starts with ``_`` must be read in its module.  Only ``core``
imports the thread modules: ``core.helper`` is the one place that starts
a second thread.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "sim2spec")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def _parse(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        text = fh.read()
    return ast.parse(text), text.splitlines()


def _reads(tree) -> set:
    """Every name the module reads: a loaded bare name, or the string
    entries of ``__all__``."""
    names = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names |= {e.value for e in node.value.elts
                      if isinstance(e, ast.Constant)}
    return names


def _bound(node) -> list:
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_read(name):
    tree, lines = _parse(name)
    reads = _reads(tree)
    dead = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in reads:
                dead.append(f"line {node.lineno}: {bound}")
    assert not dead, f"{name}: unread imports {dead}"


@pytest.mark.parametrize("name", MODULES)
def test_every_private_name_is_read(name):
    tree, _ = _parse(name)
    reads = _reads(tree)
    dead = [f"line {node.lineno}: {bound}"
            for node in tree.body for bound in _bound(node)
            if bound.startswith("_") and not bound.startswith("__")
            and bound not in reads]
    assert not dead, f"{name}: unread private names {dead}"


THREAD_MODULES = {"concurrent", "contextvars"}


@pytest.mark.parametrize("name", [m for m in MODULES if m != "core.py"])
def test_only_core_imports_thread_modules(name):
    tree, _ = _parse(name)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.append(node.module)
    found = [mod for mod in imported if mod.split(".")[0] in THREAD_MODULES]
    assert not found, f"{name} imports {found}; use core.helper"
