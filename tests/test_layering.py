"""Import layering of the package.

Modules import only from lower layers, in the order

    errors < field < mpoly < exprs < arrangement < multinet
           < {fibration, aomoto} < cli

(__init__ re-exports from all of them).  No module imports a private name
of another, and every import sits at module level, not in a function.
"""

import ast
from pathlib import Path

import pytest

import starnet

SRC = Path(starnet.__file__).parent
LAYER = {"errors": 0, "field": 1, "mpoly": 2, "exprs": 3, "arrangement": 4,
         "multinet": 5, "fibration": 6, "aomoto": 6, "cli": 7}


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
