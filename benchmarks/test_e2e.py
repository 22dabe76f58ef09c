"""End-to-end benchmarks: whole ``fqtraces`` invocations, each in a fresh process.

Each body runs ``python -m fqtraces.cli ARGV`` in a new interpreter, with
this checkout's ``src`` as ``PYTHONPATH``, through
``benchmark.pedantic(rounds=3, iterations=1)``, so its time is what one
request costs a user, start-up included:

- ``help``: ``fqtraces --help``, the start-up floor;
- ``cyl-generic``: a generic cylinder probability, r = (1/2, 1/4),
  c = (1/8), at q = 2;
- ``hl-expand-16``: Q_lam(1/3) at the degree cap of Q, lam = (4, 3, 3, 2,
  2, 1, 1);
- ``lln-haar-1000x200``: the Haar law-of-large-numbers run at q = 2,
  1000 levels by 200 trials.

Each body checks that the child's stdout equals ``cli.main`` on the same
argv in this process, and keeps the child CPU time of each round, from
``resource.getrusage(RUSAGE_CHILDREN)``, in
``extra_info["child_cpu_s"]``: a small invocation is mostly start-up,
and the CPU column shows it with less of the host's noise than the wall
time.  This file sits beside ``test_layers.py``, outside ``testpaths``;
``tests/test_layer_benchmarks.py`` parses every body's argv and runs the
cheapest in process.  Run it and compare two trees with

    python -m pytest benchmarks/test_e2e.py --benchmark-json=after.json
    pytest-benchmark compare before.json after.json
"""

import io
import os
import resource
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from fqtraces import cli

SRC = Path(__file__).resolve().parent.parent / "src"

INVOCATIONS = {
    "help": ["--help"],
    "cyl-generic": ["cyl", "--q", "2", "--r", "1/2,1/4", "--c", "1/8", "--lam", "3,2,1"],
    "hl-expand-16": ["hl-expand", "--lam", "4,3,3,2,2,1,1", "--t", "1/3"],
    "lln-haar-1000x200": [
        "lln", "--q", "2", "--measure", "haar", "--nmax", "1000", "--trials", "200", "--seed", "1",
    ],
}

# argparse wraps help text to the terminal's width; both sides use 80 columns
ENV = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}


def in_process(argv: list[str]) -> str:
    """What ``cli.main(argv)`` writes to stdout; ``--help`` ends in SystemExit(0)."""
    out = io.StringIO()
    with redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 0, argv
    return out.getvalue()


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@pytest.mark.parametrize("name", INVOCATIONS)
def test_e2e(benchmark, monkeypatch, name):
    argv = INVOCATIONS[name]
    outputs, cpu = [], []

    def invoke():
        before = _child_cpu_s()
        run = subprocess.run(
            [sys.executable, "-m", "fqtraces.cli", *argv],
            env=ENV, capture_output=True, text=True, check=True,
        )
        cpu.append(_child_cpu_s() - before)
        outputs.append(run.stdout)

    benchmark.pedantic(invoke, rounds=3, iterations=1)
    monkeypatch.setenv("COLUMNS", "80")
    expected = in_process(argv)
    assert outputs and all(out == expected for out in outputs)
    benchmark.extra_info["child_cpu_s"] = cpu
