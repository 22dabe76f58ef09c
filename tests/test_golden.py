"""CLI stdout of the chain, the cylinders, Kostka numbers and the verify suites, byte for byte.

The files in ``tests/golden/`` hold the stdout of ``sample``, ``lln`` and
``cyl`` for the three named measure families at q = 2 and 3 and for a
custom measure at q = 2 and 3, and of ``sample`` and ``lln`` for the Haar
family at the rational q = 5/2, 5/4 and 101/100 (the last two grow many
rows).  ``lln.txt`` also holds one Haar run at q = 10001/10000 to level
2000, whose diagrams reach about 1800 rows; it has no ``sample`` twin,
whose output would run to megabytes.  The custom chains stop at level
12, since their weights come from the exact Hall-Littlewood expansion.
``cyl-trace.txt`` holds ``cyl --from-trace`` at q = 2, 3 and 5/2 for alpha
and beta drawn from (), (1), (1/2), (1/4) with total mass at most 1, and
``kostka.txt`` holds ``kostka`` and ``kostka-foulkes``, in CSV and JSON,
for every shape and content of degree at most 5, and ``hl-expand.txt``
holds ``hl-expand`` for every lambda of degree at most 10, at t = 1/2 and
with ``--modified`` at t = 2/9, then for every lambda of degree at most 7
at t = 5/2 and t = -3/7, plain and with ``--modified``.  ``coeffs.txt`` holds ``coeffs``, in CSV
and JSON, for every n <= 10 with alpha and beta drawn from (), (1),
(1/2), (1/4), (1/2, 1/4) with total mass at most 1 (gamma = 1, so most
cases keep a Plancherel part), and with ``--glu-params`` for two and
three eigenvalue labels, with and without a background family, for
n <= 8.  Each invocation is
preceded by a ``$ fqtraces ...`` line.  ``demos.txt`` holds the stdout
of the demo scripts 01-03, each run as a script after a ``$ python
demos/...`` line; demo 04 runs the oracle suites and is left out for its
time.  ``cli-usage.txt`` holds the help texts and usage errors: stdout,
stderr and exit code of the top-level ``--help``, of each command's
``--help`` and of malformed requests, rendered with ``COLUMNS=80`` (a
``--help`` exits through ``SystemExit``, recorded as exit 0).  ``verify.txt`` holds
the stdout of ``fqtraces verify all``; the tests that run a suite compare
its rows with that suite's lines there through :func:`check_suite_golden`,
so no suite runs twice.  The files change only with an intended change of
output; rewrite them from the repository root with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from fqtraces import verify
from fqtraces.cli import _emit, _run, build_parser, main
from fqtraces.partitions import format_partition, partitions_of

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent
DEMOS = ("01_dimensions_and_branching", "02_trace_values", "03_growth_chains")
COMMANDS = ("sample", "lln", "cyl", "cyl-trace", "kostka", "hl-expand", "coeffs")

_NAMED = [
    ["--q", str(q), "--measure", measure]
    for measure in ("haar", "delta", "single-row")
    for q in (2, 3)
]
_RATIONAL_Q = [["--q", q, "--measure", "haar"] for q in ("5/2", "5/4", "101/100")]
# a Haar chain whose diagrams reach about 1800 rows at level 2000
_NEAR_ONE = ["--q", "10001/10000", "--measure", "haar"]
_CUSTOM = [["--q", str(q), "--r", "1/4", "--c", "1/4"] for q in (2, 3)]

_CHAINS = [(m, "300") for m in _NAMED + _RATIONAL_Q] + [(m, "12") for m in _CUSTOM]

_SIDES = ((), ("1",), ("1/2",), ("1/4",))
_TRACE_PARAMS = [
    [*(["--alpha", *a] if a else []), *(["--beta", *b] if b else [])]
    for a in _SIDES
    for b in _SIDES
    if sum(Fraction(v) for v in a + b) <= 1
]

_COEFF_SIDES = ("", "1", "1/2", "1/4", "1/2,1/4")
_COEFF_PARAMS = [
    [*(["--alpha", a] if a else []), *(["--beta", b] if b else [])]
    for a in _COEFF_SIDES
    for b in _COEFF_SIDES
    if sum(Fraction(v) for v in f"{a},{b}".split(",") if v) <= 1
]
_GLU_ENTRIES = (
    [
        {"label": "a", "alpha": "1/2", "gamma": "1/2"},
        {"label": "b", "beta": "1/4", "gamma": "1/2"},
    ],
    [
        {"label": "a", "alpha": "1/4", "beta": "1/4", "gamma": "1/2"},
        {"label": "b", "gamma": "1/4"},
        {"label": "c", "alpha": "1/8", "beta": "1/8", "gamma": "1/4"},
    ],
)
_GLU_FAMILIES = ([], [{"tag": "f", "d": 2, "lambda": "1"}, {"tag": "g", "d": 3, "lambda": "1"}])
_GLU_PARAMS = [
    json.dumps({"entries": entries, **({"family": fam} if fam else {})})
    for entries in _GLU_ENTRIES
    for fam in _GLU_FAMILIES
]


# every command, each asked for its --help in the usage golden file
COMMAND_NAMES = (
    "dim",
    "kostka",
    "kostka-foulkes",
    "hl-expand",
    "trace",
    "coeffs",
    "biregular",
    "cyl",
    "sample",
    "lln",
    "verify",
)
_KOSTKA = ["kostka", "--shape", "2,1", "--content", "1,1,1"]
USAGE_CASES = [
    ["--help"],
    ["-h", "cyl"],
    *([name, "--help"] for name in COMMAND_NAMES),
    [],
    ["nope"],
    ["--format", "xml", "cyl"],
    ["--form", "json", *_KOSTKA],
    ["verify", "nope"],
    [*_KOSTKA, "--bogus"],
    ["kostka", "--shape"],
    ["cyl", "--q", "2"],
]


def invocations(command: str) -> list[list[str]]:
    if command == "sample":
        return [
            ["sample", *m, "--nmax", nmax, "--seed", str(seed)]
            for m, nmax in _CHAINS
            for seed in (1, 2, 3)
        ]
    if command == "lln":
        return [
            ["lln", *m, "--nmax", nmax, "--trials", "4", "--seed", str(seed)]
            for m, nmax in _CHAINS
            for seed in (1, 2)
        ] + [["lln", *_NEAR_ONE, "--nmax", "2000", "--trials", "4", "--seed", "1"]]
    if command == "cyl-trace":
        return [
            ["cyl", "--from-trace", "--q", q, *sides, "--lam", format_partition(lam)]
            for q in ("2", "3", "5/2")
            for sides in _TRACE_PARAMS
            for n in range(6)
            for lam in partitions_of(n)
        ]
    if command == "kostka":
        return [
            [*fmt, name, "--shape", format_partition(s), "--content", format_partition(c)]
            for n in range(6)
            for s in partitions_of(n)
            for c in partitions_of(n)
            for name in ("kostka", "kostka-foulkes")
            for fmt in ([], ["--format", "json"])
        ]
    if command == "hl-expand":
        return [
            ["hl-expand", *setting, "--lam", format_partition(lam)]
            for setting in (["--t", "1/2"], ["--t", "2/9", "--modified"])
            for n in range(11)
            for lam in partitions_of(n)
        ] + [
            # t > 1 and t < 0; a negative t takes the = form, or argparse reads it as a flag
            ["hl-expand", t, *modified, "--lam", format_partition(lam)]
            for t in ("--t=5/2", "--t=-3/7")
            for modified in ([], ["--modified"])
            for n in range(8)
            for lam in partitions_of(n)
        ]
    if command == "coeffs":
        return [
            [*fmt, "coeffs", "--n", str(n), *sides]
            for sides in _COEFF_PARAMS
            for n in range(11)
            for fmt in ([], ["--format", "json"])
        ] + [
            [*fmt, "coeffs", "--n", str(n), "--glu-params", params]
            for params in _GLU_PARAMS
            for n in range(9)
            for fmt in ([], ["--format", "json"])
        ]
    return [
        ["cyl", *m, "--lam", format_partition(lam)]
        for m in _NAMED + _CUSTOM
        for n in range(7)
        for lam in partitions_of(n)
    ]


def render(command: str) -> bytes:
    # one parser for every invocation: parsing leaves it unchanged, and each
    # parse builds the flags of its own command afresh
    parser = build_parser()
    out = io.StringIO()
    for argv in invocations(command):
        out.write(f"$ fqtraces {shlex.join(argv)}\n")
        with redirect_stdout(out):
            code = _run(parser.parse_args(argv))
        assert code == 0, argv
    return out.getvalue().encode()


def render_verify() -> bytes:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", "all"])
    assert code == 0
    return out.getvalue().encode()


def render_usage() -> bytes:
    """Exit code, stdout and stderr of each usage case; help texts follow COLUMNS."""
    out = io.StringIO()
    for argv in USAGE_CASES:
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help
                code = exc.code
        out.write(f"$ fqtraces {shlex.join(argv)}\n[exit {code}]\n")
        out.write(f"[stdout]\n{stdout.getvalue()}[stderr]\n{stderr.getvalue()}")
    return out.getvalue().encode()


def render_demos() -> bytes:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = b""
    for name in DEMOS:
        script = ROOT / "demos" / f"{name}.py"
        run = subprocess.run(
            [sys.executable, str(script)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            check=True,
        )
        out += f"$ python demos/{name}.py\n".encode() + run.stdout
    return out


def check_suite_golden(name, rows):
    """A suite's rows, printed as ``fqtraces verify`` prints them, equal its golden lines."""
    out = io.StringIO()
    with redirect_stdout(out):
        _emit("csv", rows)
    golden = (GOLDEN / "verify.txt").read_text().splitlines(keepends=True)
    expected = "".join(line for line in golden if line.startswith(f"{name},"))
    assert expected and out.getvalue() == expected, name


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(command):
    assert render(command) == (GOLDEN / f"{command}.txt").read_bytes()


def test_cli_usage_matches_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert render_usage() == (GOLDEN / "cli-usage.txt").read_bytes()


def test_demo_output_matches_golden():
    assert render_demos() == (GOLDEN / "demos.txt").read_bytes()


def test_every_suite_has_golden_rows():
    # runs no suite: a suite added or renamed without its golden rows fails here
    rows = (GOLDEN / "verify.txt").read_text().splitlines()[1:]
    assert set(verify.suite_names()) == {row.split(",", 1)[0] for row in rows}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for command in COMMANDS:
        (GOLDEN / f"{command}.txt").write_bytes(render(command))
    (GOLDEN / "demos.txt").write_bytes(render_demos())
    (GOLDEN / "verify.txt").write_bytes(render_verify())
    os.environ["COLUMNS"] = "80"
    (GOLDEN / "cli-usage.txt").write_bytes(render_usage())
