"""Source checks: every name a module-level import binds is used, and no
module holds an ``assert`` statement.

No linter is a dependency, so this stands in for the one rule a deletion
most often breaks: an import left behind by the code that used it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "memscrub"


def imported_names(tree: ast.Module) -> dict:
    """Each name bound by a module-level import, mapped to its line."""
    names = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                names[alias.asname or alias.name.partition(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                names[alias.asname or alias.name] = stmt.lineno
    return names


def referenced_names(tree: ast.Module) -> set:
    """Names read anywhere in the module, plus those ``__all__`` lists."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names |= set(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = referenced_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but unused: {unused}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statement(path):
    """``python -O`` strips asserts, so a check in the program raises instead."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements on lines {lines}"
