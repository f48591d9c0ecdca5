"""The package's public names, the one module that writes whole files,
and the private names no other module may import."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import mwpeval


def test_every_public_name_resolves_once():
    assert len(mwpeval.__all__) == len(set(mwpeval.__all__))
    missing = [name for name in mwpeval.__all__ if not hasattr(mwpeval, name)]
    assert missing == []


# Appending to the record log, and cutting its torn tail, is the log
# writer's alone; every whole file goes through _schema.write_atomic.
APPENDERS = {("runner", "_RecordWriter")}
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}


def writes(call: ast.Call) -> bool:
    """Whether a call writes a file: write_text, write_bytes, json.dump,
    a write-mode open or Path.open, an os.open with a write flag, or a
    cut (truncate, os.truncate, os.ftruncate)."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    owner = getattr(func, "value", None)
    if name in ("write_text", "write_bytes", "truncate", "ftruncate"):
        return True
    if name == "dump":
        return getattr(owner, "id", None) == "json"
    if name != "open":
        return False
    if getattr(owner, "id", None) == "os":
        flags = call.args[1:2]
        return any(
            isinstance(node, ast.Attribute) and node.attr in WRITE_FLAGS
            for flag in flags
            for node in ast.walk(flag)
        )
    modes = call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    modes += [k.value for k in call.keywords if k.arg == "mode"]
    return any(
        not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+")
        for mode in modes
    )


def file_writers(module: str, tree: ast.AST) -> set[tuple[str, str]]:
    """(module, top-level def or class) of every call that writes a file."""
    found = set()
    for top in ast.iter_child_nodes(tree):
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and writes(node):
                found.add((module, getattr(top, "name", f"line {node.lineno}")))
    return found


def test_only_schema_writes_a_whole_file():
    found = set()
    for path in sorted(Path(mwpeval.__file__).parent.glob("*.py")):
        if path.stem != "_schema":
            found |= file_writers(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    assert found == APPENDERS


@pytest.mark.parametrize(
    "code, wrote",
    [
        ("path.write_text(text)", True),
        ("json.dump(payload, handle)", True),
        ("open(path, 'a')", True),
        ("os.open(path, os.O_WRONLY)", True),
        ("handle.truncate(0)", True),
        ("os.truncate(path, 0)", True),
        ("os.ftruncate(fd, 0)", True),
        ("open(path, 'rb')", False),
        ("os.open(path, os.O_RDONLY)", False),
        ("os.pread(fd, 1, 0)", False),
    ],
)
def test_the_guard_counts_every_write_and_cut(code, wrote):
    assert writes(ast.parse(code).body[0].value) is wrote


def private_imports(module: str, tree: ast.AST) -> set[tuple[str, str, str]]:
    """(module, source, name) of every underscore name that module
    imports from another package module; _schema, the shared codec,
    is the one source exempt. Dunders such as __version__ are public."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level == 0:
            package, _, source = source.partition(".")
            if package != "mwpeval":
                continue
        if source == "_schema":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.add((module, source, alias.name))
    return found


def test_no_module_imports_another_modules_private_names():
    found = set()
    for path in sorted(Path(mwpeval.__file__).parent.glob("*.py")):
        found |= private_imports(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    assert found == set()


@pytest.mark.parametrize(
    "code, found",
    [
        ("from .metrics import _successes", {("m", "metrics", "_successes")}),
        ("from mwpeval.triplets import _utc_now", {("m", "triplets", "_utc_now")}),
        ("from ._schema import _schema", set()),
        ("from . import __version__", set()),
        ("from ._private import public", set()),
        ("from os import _exit", set()),
    ],
)
def test_the_private_import_guard(code, found):
    assert private_imports("m", ast.parse(code)) == found
