"""The library imports nothing but the standard library and itself.

Its command line starts without ``dataclasses`` or ``inspect``, which
together took about 10 ms of each fresh process's start.

Outside ``symfunc`` it names none of the power-sum views either: integer
rows are the one production format for symmetric functions.
"""

import ast
import os
import subprocess
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


def test_command_line_starts_without_dataclasses_or_inspect():
    # a fresh interpreter; -S keeps site hooks out of what is loaded
    code = "import sys, fqtraces.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "[]\n"


# kept in symfunc only because the benchmark's tracer and workloads name them
_POWER_SUM_VIEWS = {
    "PowerSumElement",
    "hl_q_in_p",
    "modified_hl_q",
    "schur_in_p",
    "schur_expand",
    "plethysm_pl",
    "sym_character",
}


def _used_names(tree):
    """Every name, attribute and imported name in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_power_sum_views_are_named_only_in_symfunc():
    sources = [path for path in sorted(SRC.glob("*.py")) if path.name != "symfunc.py"]
    assert sources
    named = {
        (path.name, name)
        for path in sources
        for name in _used_names(ast.parse(path.read_text(), str(path)))
        if name in _POWER_SUM_VIEWS
    }
    assert named == set()
