"""Layer benchmarks of specialized values, on ``pytest-benchmark``.

Each body times one kind of exact value, warm, at one size:

- ``power_products`` of one specialization over the 231 partitions of 16,
  the p_rho vector behind every value at the degree cap of Q;
- generic ``cyl_prob`` of every lam of degree 8, for each of four fixed
  parameter sets r = spread(alpha), c = beta at q = 2, 3, 4 and 5;
- ``unipotent_trace_value`` on traces-warm's classes: every family of
  degree 2-5 over F_2 and 2-4 over F_3 with blocks of degree at most 3;
- ``trace_coefficients`` of one specialization at n = 8;
- 1000 generic ``MeasureParams``, r = spread(alpha) and c = beta, and
  1000 ``Specialization.finite``, of sides drawn as traces-warm draws
  its generic sides.  Beside its time and count, this body's
  ``extra_info["bytes_per_set"]`` gives, for each of the two kinds, the
  bytes ``tracemalloc`` sees held per set after its 1000 are built from
  sides built before, the list's 8 bytes a set included.

Every body runs once at import, so the Hall-Littlewood rows, character
tables and partition lists it reads are built and not timed, as in a
long-lived process.  After its timed rounds each body runs once more
under ``opcode_count``, from the same tables, and its count of executed
bytecodes goes into ``extra_info["opcodes"]``.  These values are
big-integer dot products and one `Fraction` each, work that a bytecode
count under-weights (see ``opcode_count``): a count says how much Python
the route runs, and the times carry any claim.  This file sits beside
``test_layers.py``, outside ``testpaths``; ``tests/test_layer_benchmarks.py``
runs each body once, untimed, and checks its result.  Run it and compare
two trees with

    python -m pytest benchmarks/test_value_layers.py --benchmark-json=after.json
    pytest-benchmark compare before.json after.json
"""

import random
import tracemalloc
from fractions import Fraction

import pytest
from opcode_count import count_opcodes

from fqtraces.measures import MeasureParams, cyl_prob
from fqtraces.oracle import families_enumerate
from fqtraces.partitions import partitions_of
from fqtraces.specializations import GeometricSpread, Specialization, power_products
from fqtraces.traces import trace_coefficients, unipotent_trace_value

ALPHA = (Fraction(1, 2), Fraction(1, 4))
BETA = (Fraction(1, 8),)
SP = Specialization.finite(ALPHA, BETA, 1)
# (alpha, beta, q) of each cylinder parameter set, r = spread(alpha), c = beta
CYL_SIDES = [
    (ALPHA, BETA, 2),
    ((Fraction(3, 10),), (Fraction(1, 5), Fraction(1, 10)), 3),
    ((Fraction(2, 9), Fraction(1, 9)), (Fraction(1, 3),), 4),
    ((Fraction(5, 12),), (Fraction(1, 4),), 5),
]
CYL_PARAMS = [MeasureParams(GeometricSpread(a, Fraction(q)), b, q) for a, b, q in CYL_SIDES]


def _decreasing(rng, k: int, den: int) -> tuple:
    """k weakly decreasing positive fractions over den, summing to at most 1/2."""
    cap = max(1, den // (2 * k))
    return tuple(sorted((Fraction(rng.randint(1, cap), den) for _ in range(k)), reverse=True))


def _generic_sides(rng) -> tuple:
    den = rng.randint(8, 40)
    return _decreasing(rng, rng.randint(1, 2), den), _decreasing(rng, rng.randint(1, 2), den)


_RNG = random.Random(1)
# (alpha, beta, q) of each of the 1000 parameter sets
SET_SIDES = [(*_generic_sides(_RNG), _RNG.choice((2, 3, 4, 5))) for _ in range(1000)]
# traces-warm's pool of classes: degree 2-5 over F_2, 2-4 over F_3
CLASSES = [
    (fam, q)
    for q, top in ((2, 5), (3, 4))
    for n in range(2, top + 1)
    for fam in families_enumerate(n, q)
    if max(d for _, d, _ in fam.blocks) <= 3
]


def power_products_16():
    """E and the p_rho over it, for every rho of 16."""
    return power_products(SP.power_pair, partitions_of(16))


def cyl_prob_generic_8():
    """Every degree 8 cylinder probability of the four parameter sets."""
    return [cyl_prob(params, lam) for params in CYL_PARAMS for lam in partitions_of(8)]


def trace_values_classes():
    """The trace value of every class of the pool."""
    return [unipotent_trace_value(SP, fam, q) for fam, q in CLASSES]


def trace_coefficients_8():
    """The 22 trace coefficients at n = 8."""
    return trace_coefficients(SP, 8)


def measure_params_1000():
    """The 1000 generic parameter sets, r = spread(alpha), c = beta."""
    return [MeasureParams(GeometricSpread(a, Fraction(q)), b, q) for a, b, q in SET_SIDES]


def finite_specializations_1000():
    """The 1000 specializations (alpha, beta, 1)."""
    return [Specialization.finite(a, b, 1) for a, b, _ in SET_SIDES]


def parameter_sets_1000():
    """Both lists of 1000 parameter sets."""
    return measure_params_1000(), finite_specializations_1000()


def bytes_per_set() -> dict[str, float]:
    """The ``tracemalloc`` bytes each list holds per set, traced on its own."""
    out = {}
    for name, build in (
        ("measure-params", measure_params_1000),
        ("specialization-finite", finite_specializations_1000),
    ):
        tracemalloc.start()
        try:
            sets = build()
            out[name] = tracemalloc.get_traced_memory()[0] / len(sets)
        finally:
            tracemalloc.stop()
    return out


WARM = {
    "power-products-16": power_products_16,
    "cyl-prob-generic-8": cyl_prob_generic_8,
    "trace-values-classes": trace_values_classes,
    "trace-coefficients-8": trace_coefficients_8,
    "parameter-sets-1000": parameter_sets_1000,
}
for body in WARM.values():
    body()


@pytest.mark.parametrize("name", WARM)
def test_warm(benchmark, name):
    benchmark(WARM[name])
    if benchmark.enabled:
        benchmark.extra_info["opcodes"] = count_opcodes(WARM[name])
        if name == "parameter-sets-1000":
            benchmark.extra_info["bytes_per_set"] = bytes_per_set()
