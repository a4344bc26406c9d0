"""Source hygiene: every name a package module imports is used in it, every
import sits at module level, so no import cost hides inside a call, and the
package draws no random numbers."""

import ast

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


# the program is deterministic by construction: no module may draw from a
# random generator, seeded or not
RANDOM_NAMES = ("np.random", "default_rng", "SeedSequence")


@pytest.mark.parametrize("path", sorted(SRC_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_random_numbers(path):
    text = path.read_text()
    assert [name for name in RANDOM_NAMES if name in text] == []
