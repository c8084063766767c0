"""Source checks on the imports of src/reachdl: the library is stdlib-only,
and no module keeps an import it never reads."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "reachdl"
MODULES = sorted(SRC.rglob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imports(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_modules_found():
    assert SRC / "models.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_reachdl(path):
    for node in _imports(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                continue
            names = [node.module]
        else:
            names = [alias.name for alias in node.names]
        for name in names:
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names or top == "reachdl", \
                f"{path.name}:{node.lineno} imports {name}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = _tree(path)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in _imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            assert bound in read, f"{path.name}:{node.lineno} imports {bound}, never read"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_relative_import_inside_a_function(path):
    """Library modules import each other at the top only: an import put off
    into a function body hides an import cycle.  Lazy stdlib imports stay
    allowed."""
    lazy = [f"{path.name}:{node.lineno} imports .{node.module or ''} inside {func.name}"
            for func in ast.walk(_tree(path))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, ast.ImportFrom) and node.level]
    assert not lazy
