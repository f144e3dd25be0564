"""The library is stdlib-only: every import is goodsgp or the standard
library, and every public name it lists resolves."""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import goodsgp

SRC = Path(__file__).resolve().parent.parent / "src" / "goodsgp"


def _imported_roots(path):
    """The top level package of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_only_itself_and_the_standard_library():
    files = sorted(SRC.rglob("*.py"))
    assert files
    foreign = [
        (path.name, root)
        for path in files
        for root in _imported_roots(path)
        if root != "goodsgp" and root not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_every_listed_public_name_resolves():
    modules = [goodsgp] + [
        importlib.import_module("goodsgp." + path.stem)
        for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"
    ]
    missing = [
        (mod.__name__, name)
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []
    namespace = {}
    exec("from goodsgp import *", namespace)
    assert set(goodsgp.__all__) <= set(namespace)
