"""The library imports nothing but the standard library and itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "fqtraces"


def _imported_names(tree):
    """Top-level module names of every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"fqtraces"}
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = {
        (path.name, name)
        for path in sources
        for name in _imported_names(ast.parse(path.read_text(), str(path)))
        if name not in allowed
    }
    assert outside == set()
