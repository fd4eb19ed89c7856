"""The runtime is pure standard library, and no module keeps an import it
does not use: every module under src/polygpt is read with ast."""

import ast
import pathlib
import sys

import pytest

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "polygpt"
MODULES = sorted(SOURCE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_module_is_read():
    assert len(MODULES) > 10 and SOURCE / "simplex.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_absolute_imports_are_standard_library(path):
    imported = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    outside = {name for name in imported
               if name.partition(".")[0] not in sys.stdlib_module_names}
    assert not outside


def _bound_names(tree):
    """The names that the module's imports bind, but for __future__'s."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _unused(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return _bound_names(tree) - used - _exported(tree)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used_or_exported(path):
    assert not _unused(_tree(path))


def test_an_unused_import_is_caught():
    assert _unused(ast.parse(
        "from __future__ import annotations\nfrom array import array\nimport os.path\n"
        "import json\njson.dumps\nfrom .linalg import rat\n__all__ = ['rat']\n")) == {
            "array", "os"}
