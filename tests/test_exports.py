import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import criticalbranch

MODULES = ["criticalbranch"] + [f"criticalbranch.{m.name}" for m in pkgutil.iter_modules(criticalbranch.__path__)]
ROOT = Path(__file__).resolve().parents[1]
# code that counts as reaching a name: the package itself, the scripts and the benchmark
TREES = {p.resolve(): ast.parse(p.read_text()) for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _used_names(tree, skip=()):
    """Names read, taken as an attribute or imported anywhere in ``tree`` outside the ``skip`` nodes."""
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if any(node is s for s in skip):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _binds(stmt, name):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name == name
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return any(isinstance(t, ast.Name) and t.id == name for t in targets)
    if isinstance(stmt, ast.ImportFrom):
        return any((a.asname or a.name) == name for a in stmt.names)
    return False


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_reached(name):
    module = importlib.import_module(name)
    own = Path(module.__file__).resolve()
    assert own in TREES
    elsewhere = set().union(*(_used_names(tree) for path, tree in TREES.items() if path != own))
    unreached = []
    for export in module.__all__:
        if export in elsewhere:
            continue
        definitions = [stmt for stmt in TREES[own].body if _binds(stmt, export)]
        if export not in _used_names(TREES[own], definitions):
            unreached.append(export)
    assert unreached == []


def _reads(tree, skip=()):
    """Attribute loads and string constants anywhere in ``tree`` outside the ``skip`` nodes."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if any(node is s for s in skip):
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)  # getattr(obj, name) over a tuple of names
        stack.extend(ast.iter_child_nodes(node))
    return found


def _members(cls):
    """Public fields, properties and methods declared in a class body, and attributes its __init__ sets."""
    names = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, ast.Assign):
            names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
        elif isinstance(stmt, ast.FunctionDef):
            names.add(stmt.name)
            if stmt.name == "__init__":
                names.update(node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)
                             and isinstance(node.ctx, ast.Store) and isinstance(node.value, ast.Name)
                             and node.value.id == "self")
    return {n for n in names if not n.startswith("_")}


# members nothing reads yet, each with the reason it stays
MEMBER_EXEMPTIONS = {}


@pytest.mark.parametrize("name", MODULES)
def test_every_public_member_of_an_exported_class_is_read(name):
    module = importlib.import_module(name)
    own = Path(module.__file__).resolve()
    unread = []
    for cls in TREES[own].body:
        if not (isinstance(cls, ast.ClassDef) and cls.name in module.__all__):
            continue
        read = set().union(*(_reads(tree, (cls,) if path == own else ()) for path, tree in TREES.items()))
        unread += [f"{cls.name}.{m}" for m in sorted(_members(cls) - read) if f"{cls.name}.{m}" not in MEMBER_EXEMPTIONS]
    assert unread == []


def test_importing_cli_loads_every_module():
    # so code that imports cli sees the same modules whatever else it imported first
    probe = (
        "import pkgutil, sys, criticalbranch.cli; "
        "print([m.name for m in pkgutil.iter_modules(criticalbranch.__path__) "
        "if 'criticalbranch.' + m.name not in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert result.stdout == "[]\n"


def test_nothing_imports_cli_and_cli_imports_at_module_level():
    cli = (ROOT / "src" / "criticalbranch" / "cli.py").resolve()
    imports = [(path, node) for path, tree in TREES.items() if "src" in path.parts
               for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    importers = [path.name for path, node in imports
                 if "cli" in (getattr(node, "module", None) or "").split(".") + [a.name.split(".")[-1] for a in node.names]]
    assert importers == []
    nested = [node.lineno for fn in ast.walk(TREES[cli]) if isinstance(fn, ast.FunctionDef)
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []
