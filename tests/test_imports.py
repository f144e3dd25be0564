"""The library is stdlib-only: every import is goodsgp or the standard
library, and every public name it lists resolves.  The package lists each
public name once, in its module's __all__."""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import goodsgp

SRC = Path(__file__).resolve().parent.parent / "src" / "goodsgp"

# The package surface: the 63 names goodsgp exported before its __all__ was
# read from the modules' lists
SURFACE = {
    "__version__",
    "Point", "join", "ones",
    "GoodSgpError", "DimensionMismatch", "UnsupportedDimension", "NonLocalError",
    "NotGoodSemigroup", "NotGoodIdeal", "NotAGeneratingSystem", "ConstructionError",
    "NumericalSemigroup", "NumericalIdeal", "ns_from_generators", "ns_from_small",
    "ns_contains", "ns_element_at", "ns_multiplicity", "ns_arf_closure",
    "ideal_from_generators", "ideal_contains", "ideal_preimage_scale",
    "SmallSet", "small_set", "Violation", "ValidationReport", "GoodSemigroup",
    "good_semigroup", "validate_small_set", "closure_small", "normalize_conductor",
    "gs_from_generators", "gs_contains", "is_local", "maximal_elements", "projection",
    "duplication", "amalgamation", "cartesian", "from_maximal_elements",
    "is_minimal_system", "minimal_generating_system", "minimal_ideal_generating_system",
    "GoodRelativeIdeal", "validate_ideal_small_set", "good_ideal", "gi_contains",
    "gi_from_generators", "tail_ideal", "is_stable", "canonical_generators",
    "canonical_ideal", "is_symmetric", "sum_ideals",
    "is_arf", "arf_closure", "arf_saturation",
    "brute_member", "brute_closure", "brute_canonical", "brute_arf_check",
    "render_plot",
}


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


def test_the_package_surface_is_read_from_the_modules():
    lists = [
        importlib.import_module("goodsgp." + path.stem).__all__
        for path in sorted(SRC.glob("*.py")) if path.stem not in ("__init__", "cli")
    ]
    names = ["__version__"] + [name for names in lists for name in names]
    assert sorted(goodsgp.__all__) == sorted(names)
    assert len(set(names)) == len(names) == 63
    assert set(names) == SURFACE
    namespace = {}
    exec("from goodsgp import *", namespace)
    assert set(namespace) - {"__builtins__"} == SURFACE
