"""Import layering of the package.

Modules import only from lower layers, in the order

    errors < modp < field < mpoly < exprs < arrangement < multinet
           < {fibration, aomoto} < cli

(__init__ re-exports from all of them).  No module imports a private name
of another, and every import sits at module level, not in a function.
Nothing is dead: every module-level import is used in its module, and
every private module-level def or class is used in the package.
"""

import ast
from pathlib import Path

import pytest

import starnet

SRC = Path(starnet.__file__).parent
LAYER = {"errors": 0, "modp": 1, "field": 2, "mpoly": 3, "exprs": 4,
         "arrangement": 5, "multinet": 6, "fibration": 7, "aomoto": 7,
         "cli": 8}


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(LAYER) | {"__init__"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_imports_follow_the_layers(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                assert not isinstance(node, (ast.Import, ast.ImportFrom)), \
                    f"{path.name}:{node.lineno}: import inside {func.name}"
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        where = f"{path.name}:{node.lineno}"
        targets = ([node.module] if node.module
                   else [alias.name for alias in node.names])
        for target in targets:
            assert path.stem == "__init__" or \
                LAYER[target] < LAYER[path.stem], \
                f"{where}: {path.stem} imports the higher layer {target}"
        for alias in node.names:
            assert not alias.name.startswith("_"), \
                f"{where}: imports the private name {alias.name}"


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for p in sorted(SRC.glob("*.py"))}


def _names_used(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("module", sorted(LAYER))
def test_every_import_is_used(module):
    tree = _trees()[module]
    used = _names_used(tree)
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                assert name in used, \
                    f"{module}.py:{node.lineno}: {name} is imported, not used"


def test_every_private_definition_is_used():
    """A private module-level def or class is named by code outside its own
    body, in its module or another one of the package."""
    tops = [(module, node, _names_used(node))
            for module, tree in _trees().items() for node in tree.body]
    for module, node, _ in tops:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.name.startswith("_"):
            assert any(node.name in names
                       for _, other, names in tops if other is not node), \
                f"{module}.py:{node.lineno}: nothing uses {node.name}"
