"""numpy is the only runtime dependency: every import in the package's
source is of the standard library, numpy, or the package itself."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "patchcount"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "patchcount"}


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_source_imports_only_stdlib_and_numpy():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = [(path.name, name) for path in files
               for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
               if name.split(".")[0] not in ALLOWED]
    assert outside == []
