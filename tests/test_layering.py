"""Import layering of the package.

Modules import only from lower layers, in the order

    errors < field < mpoly < exprs < arrangement < multinet
           < {fibration, aomoto} < cli

(__init__ re-exports from all of them).  No module imports a private name
of another, and every import sits at module level, not in a function.
Nothing is dead: every module-level import is used in its module, every
private module-level def, class or assigned name is used in the package,
and every public module-level def or class is used in the package or
re-exported by __init__, so the package holds no code that only tests
call.  Every absolute import is of the standard library: the package has
no runtime dependency.  The sources parse with Python 3.10's grammar, the
floor pyproject.toml declares.  The tests' reference arithmetic for K,
perfbench/tower.py, loads no module of the package.
"""

import ast
import os
from pathlib import Path
import subprocess
import sys

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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_absolute_imports_are_of_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, \
                f"{path.name}:{node.lineno}: {name} is not of the stdlib"


def test_sources_parse_as_python_3_10():
    """Every module of the package, and perfbench/tower.py, which the tests
    import, parses with feature_version (3, 10).  This checks syntax only,
    not the library calls the code makes."""
    tower = Path(__file__).resolve().parents[1] / "perfbench" / "tower.py"
    for path in sorted(SRC.glob("*.py")) + [tower]:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


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


def _defined(node):
    """The names a module-level statement defines: a def's or class's, or
    the names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name)]


def _tops():
    """(module, statement, the names it uses or imports) for each
    module-level statement of the package."""
    return [(module, node, _names_used(node) | {
                alias.name for n in ast.walk(node)
                if isinstance(n, ast.ImportFrom) for alias in n.names})
            for module, tree in _trees().items() for node in tree.body]


def _named_elsewhere(name, node, tops):
    return any(name in names for _, other, names in tops if other is not node)


def test_every_private_definition_is_used():
    """A private module-level def, class or assigned name is named by code
    outside its own statement, in its module or another one of the
    package."""
    tops = _tops()
    for module, node, _ in tops:
        for name in _defined(node):
            if name.startswith("_") and not name.startswith("__"):
                assert _named_elsewhere(name, node, tops), \
                    f"{module}.py:{node.lineno}: nothing uses {name}"


def test_every_public_definition_is_reached():
    """A public module-level def or class is named by package code outside
    its own statement: in its module, in another module, or in __init__'s
    re-exports.  cli's cmd_* are exempt, as main looks them up by name."""
    tops = _tops()
    for module, node, _ in tops:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                not node.name.startswith("_") and \
                not (module == "cli" and node.name.startswith("cmd_")):
            assert _named_elsewhere(node.name, node, tops), \
                f"{module}.py:{node.lineno}: nothing reaches {node.name}"


def test_tower_loads_no_starnet_module():
    """The oracles check starnet against tower, so tower shares no code
    with it: in a fresh interpreter that can import both, importing tower
    leaves no starnet module in sys.modules."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(root / d) for d in ("perfbench", "src")))
    script = ("import sys\n"
              "import tower\n"
              "loaded = [m for m in sys.modules\n"
              "          if m.partition('.')[0] == 'starnet']\n"
              "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
