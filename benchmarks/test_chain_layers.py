"""Layer benchmarks of the growth chain, on ``pytest-benchmark``.

Each body times one use of the chain at one size:

- a seeded 1000-step Haar trajectory at q = 2, growth-closed's most
  frequent op;
- a seeded 2000-step Haar trajectory at q = 10001/10000, whose diagrams
  grow about 1800 rows, so each step copies a long diagram;
- ``lln_experiment`` of the Haar chain at q = 2, 1000 levels x 20 trials;
- the generic transition row out of (4, 3, 2, 2, 1), level 12, at
  r = (1/2, 1/4), c = (1/8,), q = 2, for a new parameter set built cold.

The Haar bodies run warm: their tables of bounds are built at import and
are not timed.  The cold body runs under ``benchmark.pedantic`` with a
set-up, untimed, that clears every memo table of ``fqtraces.partitions``,
``fqtraces.symfunc`` and ``fqtraces.specializations``; it builds its
parameter set, so the row is not yet kept either.  After its timed rounds
each body runs once more under ``opcode_count``, from the same tables as
a round, and its count of executed bytecodes goes into
``extra_info["opcodes"]``.  This file sits beside ``test_layers.py``,
outside ``testpaths``; ``tests/test_layer_benchmarks.py`` runs each body
once, untimed, and checks its result.  Run it and compare two trees with

    python -m pytest benchmarks/test_chain_layers.py --benchmark-json=after.json
    pytest-benchmark compare before.json after.json
"""

from fractions import Fraction

import pytest
from opcode_count import count_opcodes

from fqtraces import partitions, specializations, symfunc
from fqtraces.measures import MeasureParams, lln_experiment, sample_trajectory, transition_distribution

TABLES = [
    fn
    for mod in (partitions, symfunc, specializations)
    for fn in vars(mod).values()
    if hasattr(fn, "cache_clear")
]
HAAR2 = MeasureParams.haar(2)
HAAR_NEAR_1 = MeasureParams.haar(Fraction(10001, 10000))
GENERIC_LAM = (4, 3, 2, 2, 1)
SEED = 1
ROUNDS = 100


def clear_tables():
    for fn in TABLES:
        fn.cache_clear()


def haar_q2_1000():
    """A seeded 1000-step Haar trajectory at q = 2."""
    return sample_trajectory(HAAR2, 1000, SEED)


def haar_near_1_2000():
    """A seeded 2000-step Haar trajectory at q = 10001/10000."""
    return sample_trajectory(HAAR_NEAR_1, 2000, SEED)


def lln_haar_1000x20():
    """The Haar q = 2 law of large numbers at 1000 levels over 20 trials."""
    return lln_experiment(HAAR2, 1000, 20, SEED)


def generic_row_12():
    """The generic transition row out of a level 12 diagram, from empty tables."""
    params = MeasureParams((Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 8),), 2)
    return transition_distribution(params, GENERIC_LAM)


WARM = {
    "haar-q2-1000": haar_q2_1000,
    "haar-near-1-2000": haar_near_1_2000,
    "lln-haar-1000x20": lln_haar_1000x20,
}
COLD = {
    "generic-row-12": generic_row_12,
}
# the tables of bounds, up to the most rows these trajectories reach
for body in WARM.values():
    body()


@pytest.mark.parametrize("name", WARM)
def test_warm(benchmark, name):
    benchmark(WARM[name])
    if benchmark.enabled:
        benchmark.extra_info["opcodes"] = count_opcodes(WARM[name])


@pytest.mark.parametrize("name", COLD)
def test_cold(benchmark, name):
    benchmark.pedantic(COLD[name], setup=clear_tables, rounds=ROUNDS, iterations=1)
    if benchmark.enabled:
        clear_tables()
        benchmark.extra_info["opcodes"] = count_opcodes(COLD[name])
