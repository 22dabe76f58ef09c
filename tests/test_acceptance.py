"""Acceptance gate: every criterion runs at its stated tolerance.

Each test executes one named verification suite (all tolerances are
exact equality except the Monte Carlo bands, which are fixed 3-sigma
intervals), prints one pass/fail line and compares the suite's rows with
``tests/golden/verify.txt``.  Run with ``pytest -s`` to see
the lines as the criteria execute.
"""

import time

import pytest
from test_golden import check_suite_golden

from fqtraces import verify

CRITERIA = [
    (1, "hl-schur-identity", "modified Q expands to the charge polynomials"),
    (2, "dimension-squares", "squared dimensions sum to the group order"),
    (3, "branching", "dimensions dominate their branching predecessors"),
    (4, "extension-counts", "brute-force extensions reproduce the counts"),
    (5, "haar-flatness", "geometric rows give constant cylinders"),
    (6, "growth-normalization", "growth rows equal the cylinder ratios, so sum to one"),
    (7, "lln", "empirical Jordan frequencies hit the 3-sigma bands"),
    (8, "trace-measure-map", "trace parameters map to measure parameters"),
    (9, "flag-kostka", "flag counts match Kostka-combined characters"),
    (10, "spherical", "fixed-subspace sums match Schur-weighted characters"),
    (11, "biregular", "biregular weights reproduce the regular character"),
    (12, "steinberg", "one-column trace gives the Steinberg values"),
]


@pytest.mark.parametrize(
    "number,suite,description",
    CRITERIA,
    ids=[f"criterion-{n:02d}-{s}" for n, s, _ in CRITERIA],
)
def test_acceptance_criterion(number, suite, description):
    start = time.time()
    rows = verify.run_suite(suite)
    elapsed = time.time() - start
    failed = [row for row in rows if row["status"] != "pass"]
    status = "FAIL" if failed else "PASS"
    print(
        f"[acceptance] criterion {number:2d} ({suite}): {status} "
        f"({len(rows)} checks, {elapsed:.1f}s) -- {description}"
    )
    assert not failed, failed
    check_suite_golden(suite, rows)
