"""Source hygiene: every name a package module imports is used in it, every
import sits at module level, so no import cost hides inside a call, the
descent loop imports nothing from the package, neither importing the package
nor an eigensolve loads any scipy module, and the package draws no random
numbers."""

import ast
import os
import subprocess
import sys

import pytest

from conftest import SRC_DIR

# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC_DIR.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def _function_imports(tree: ast.Module) -> list[str]:
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.add(f"{fn.name} (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert _function_imports(ast.parse(path.read_text(), str(path))) == []


def test_function_imports_are_found():
    tree = ast.parse("import os\ndef f():\n    if True:\n        import json\n")
    assert _function_imports(tree) == ["f (line 4)"]


def _package_imports(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "fermivar"):
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "fermivar"]
    return found


def test_optim_imports_nothing_from_the_package():
    # the descent loop sees frames only through copy(), .values and the
    # problem's methods, so it runs on any element type, not only fields
    path = SRC_DIR / "optim.py"
    assert _package_imports(ast.parse(path.read_text(), str(path))) == []
    tree = ast.parse("from .grid import inner\nimport fermivar.frames\nimport math\n")
    assert _package_imports(tree) == [".grid", "fermivar.frames"]


_SCIPY_PROBE = """
import sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import fermivar, fermivar.cli
assert scipy_modules() == [], scipy_modules()
from fermivar.grid import BoxGrid
from fermivar.solvers import lowest_eigenpairs
g = BoxGrid(8, 2.0)
assert lowest_eigenpairs(g.zeros(), g.zeros(), 0.0, 2, 1e-6).converged
assert scipy_modules() == [], scipy_modules()
"""


def test_package_import_and_eigensolve_leave_scipy_unloaded():
    # the eigensolver and the spline resampling weights are numpy code;
    # with scipy.linalg and scipy.sparse.linalg the package import loaded
    # 675 modules instead of 295 and cost every process about 0.3 s and
    # 26 MB more before any work.
    # The child imports this checkout's package, with or without PYTHONPATH
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC_DIR.parent), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", _SCIPY_PROBE], env=env, check=True, timeout=120)


# the program is deterministic by construction: no module may draw from a
# random generator, seeded or not
RANDOM_NAMES = ("np.random", "default_rng", "SeedSequence")


@pytest.mark.parametrize("path", sorted(SRC_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_random_numbers(path):
    text = path.read_text()
    assert [name for name in RANDOM_NAMES if name in text] == []
