"""Source checks: every name a module-level import binds is used, no module
holds an ``assert`` statement, no public code is without a caller, no
module reads another's private names, every config key is read, only the
store module names a store file, and only the config module besides it uses
the config snapshot.

No linter is a dependency, so this stands in for the rules a deletion
most often breaks: an import left behind by the code that used it, a
function or class whose last caller is gone, and a config key whose last
reader is gone.
"""

import ast
import functools
import re
from dataclasses import fields
from pathlib import Path

import pytest

from memscrub.config import RunConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "memscrub"
# The code that may call the package: itself, the benchmark and the demos, plus the
# tests that pin the shipped behaviour. Other tests do not count as callers.
CALLERS = [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py"), *(ROOT / "demos").glob("*.py"),
           ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "test_golden.py"]


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


def public_definitions(tree: ast.Module) -> dict:
    """Each public function, class and method the module defines, mapped to its line."""
    names = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            names.update((f"{stmt.name}.{d.name}", d.lineno) for d in stmt.body
                         if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                         and not d.name.startswith("_"))
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            names[stmt.name] = stmt.lineno
    return names


@functools.cache
def called_names() -> frozenset:
    """Names the callers read, as a name, an attribute or a string (``__all__``, or a
    ``getattr``-style hook), in any module."""
    names = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return frozenset(names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_public_definition_has_a_caller(path):
    """A method counts as called when any caller reads its name, whatever the object."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    uncalled = {name: line for name, line in public_definitions(tree).items()
                if name.rpartition(".")[2] not in called_names()}
    assert not uncalled, f"{path.name}: public definitions without a caller: {uncalled}"


PRIVATE = re.compile(r"_[^_]")  # one leading underscore: not a dunder, not ``_`` alone


def defined_names(tree: ast.Module) -> set:
    """The names the module defines: its functions, classes and methods, the names it
    assigns and the attributes it sets on ``self`` or ``cls``. Imports define none."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_of_another_module(path):
    """A private name read as an attribute, or imported, is one the module defines itself."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defined = defined_names(tree)
    foreign = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        foreign.update((name, node.lineno) for name in names
                       if PRIVATE.match(name) and name not in defined)
    assert not foreign, f"{path.name}: private names of another module: {foreign}"



def attributes_read(node) -> set:
    """Attribute names ``node`` loads, outside any ``__post_init__``: a check of a
    field's value is not a use of it."""
    if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
        return set()
    names = {node.attr} if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) else set()
    for child in ast.iter_child_nodes(node):
        names |= attributes_read(child)
    return names


def test_every_config_key_is_read():
    """Each ``RunConfig`` field is read as an attribute somewhere in the package, so a
    key whose last reader is deleted fails here instead of staying a dead knob."""
    read = set().union(*(attributes_read(ast.parse(path.read_text(encoding="utf-8")))
                         for path in SRC.glob("*.py")))
    unread = [f.name for f in fields(RunConfig) if f.name not in read]
    assert not unread, f"config keys no code reads: {unread}"


STORE_FILES = ("nodes.jsonl", "audit.jsonl", "model.jsonl", "corpus.jsonl", "provenance.jsonl",
               "config.cfg")
STORE_DIR_ENTRIES = ("metrics", "lock")  # also parts of ordinary words, so only literals count


def spelled_store_files(path) -> list:
    """The store files ``path`` spells: a file name anywhere in its text, comments and
    docstrings included, or a string literal with a ``metrics`` or ``lock`` path part."""
    text = path.read_text(encoding="utf-8")
    spelled = {name for name in STORE_FILES if name in text}
    for node in ast.walk(ast.parse(text, filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            spelled |= set(STORE_DIR_ENTRIES) & set(re.split(r"[/\\]", node.value))
    return sorted(spelled)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_store_module_names_a_store_file(path):
    """``memscrub.store`` names every file of a store directory and reads and writes each;
    another module that needs one calls it."""
    expected = sorted(STORE_FILES + STORE_DIR_ENTRIES) if path.name == "store.py" else []
    assert spelled_store_files(path) == expected


def test_only_the_config_module_uses_the_snapshot():
    """Every command builds its config in ``memscrub.config``, the one module besides
    ``memscrub.store`` that reads the snapshot's path or header, by name or attribute."""
    def uses(path):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute))}
        return bool({"config_snapshot", "CONFIG_HEADER"} & (read | imported_names(tree).keys()))

    assert sorted(path.name for path in SRC.glob("*.py") if uses(path)) == ["config.py", "store.py"]
