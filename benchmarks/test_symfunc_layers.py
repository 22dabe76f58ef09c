"""Layer benchmarks of partitions, characters and Schur coefficients, on ``pytest-benchmark``.

Each body times one step below Hall-Littlewood Q at one size:

- ``partitions_of(20)``, 627 partitions, built cold;
- the degree 12 character table built cold, partitions included;
- the Schur coefficients of one integer row, Q_(4,3,2,2,1) at t = 1/3
  from ``hl_q_row``, read against the warm degree 12 table;
- Q_lam(1/3) for each of the 77 lam of 12 through ``hl_q_row``, built
  cold (tails, series rows and code tables included), and read again
  from the warm memo.

A cold body runs under ``benchmark.pedantic`` with a set-up, untimed,
that clears every memo table of ``fqtraces.partitions`` and
``fqtraces.symfunc``, so each round builds its tables from nothing, as
the first request of a fresh process does.  The Q row is built once, at
import, and is not timed.  After its timed rounds each body runs once
more under ``opcode_count``, from the same tables as a round (cleared
for a cold body), and its count of executed bytecodes goes into
``extra_info["opcodes"]``.  These layers spend much of their time in
big-integer and `Fraction` arithmetic, where one bytecode can stand for
a long multiplication, so a count under-weights that work; read it
beside the time.  This file sits beside ``test_layers.py``,
outside ``testpaths``; ``tests/test_layer_benchmarks.py`` runs each body
once, untimed, and checks its result.  Run both files and compare two
trees with

    python -m pytest benchmarks/ --benchmark-json=after.json
    pytest-benchmark compare before.json after.json
"""

from fractions import Fraction

import pytest
from opcode_count import count_opcodes

from fqtraces import partitions, symfunc
from fqtraces.partitions import partitions_of
from fqtraces.symfunc import _character_table, hl_q_row, schur_coefficients

TABLES = [
    fn for mod in (partitions, symfunc) for fn in vars(mod).values() if hasattr(fn, "cache_clear")
]
Q_T = Fraction(1, 3)
Q_LAM = (4, 3, 2, 2, 1)
Q_ROW = hl_q_row(Q_LAM, Q_T)
ROUNDS = 100


def clear_tables():
    for fn in TABLES:
        fn.cache_clear()


def partitions_20():
    """Every partition of 20, from empty tables."""
    return partitions_of(20)


def character_table_12():
    """The degree 12 character table, from empty tables."""
    return _character_table(12)


def schur_row_12():
    """The Schur coefficients of Q_(4,3,2,2,1)(1/3), against the warm degree 12 table."""
    return schur_coefficients(Q_ROW, 12)


def hl_q_12():
    """Q_lam(1/3) for every lam of 12, through the checked entry."""
    return [hl_q_row(lam, Q_T) for lam in partitions_of(12)]


# a bytecode count under-weights the Q bodies' big-integer products
COLD = {
    "partitions-20": partitions_20,
    "character-table-12": character_table_12,
    "hl-q-cold-12": hl_q_12,
}
WARM = {
    "schur-row-12": schur_row_12,
    "hl-q-warm-12": hl_q_12,
}


@pytest.mark.parametrize("name", COLD)
def test_cold(benchmark, name):
    benchmark.pedantic(COLD[name], setup=clear_tables, rounds=ROUNDS, iterations=1)
    if benchmark.enabled:
        clear_tables()
        benchmark.extra_info["opcodes"] = count_opcodes(COLD[name])


@pytest.mark.parametrize("name", WARM)
def test_warm(benchmark, name):
    # fill the tables the body reads
    WARM[name]()
    benchmark(WARM[name])
    if benchmark.enabled:
        benchmark.extra_info["opcodes"] = count_opcodes(WARM[name])
