"""Layer benchmarks of the brute-force oracle, on ``pytest-benchmark``.

Each body times one oracle routine on fixed, seeded inputs at one size:

- ``is_invertible`` on 3000 seeded F_3 4 x 4 matrices;
- the conjugacy class of every invertible F_3 3 x 3 matrix (11232);
- the Jordan types of all 1024 unitriangular F_2 5 x 5 matrices;
- every flag shape of one F_2 4 x 4 matrix, the identity, whose every
  subspace is invariant, from a cold flag walk;
- every partition, as a flag shape, of one seeded unitriangular F_3
  5 x 5, from a cold walk: few of its subspaces are invariant;
- the complete flags of one seeded unitriangular F_2 7 x 7, from a cold
  walk, which tests every proper subspace of F_2^7 for one shape.

The inputs are built once, at import, and are not timed.  After its
timed rounds each body runs once more under ``opcode_count``, against
the same warm tables, and its count of executed bytecodes goes into
``extra_info["opcodes"]`` of the saved JSON.  This file is outside
``testpaths``, so the tier-1 suite neither collects nor times it;
``tests/test_layer_benchmarks.py`` runs each body once, untimed, and
checks its result.  Run it and compare two trees with

    python -m pytest benchmarks/test_layers.py --benchmark-json=after.json
    pytest-benchmark compare before.json after.json

The end-to-end gate stays ``perfbench/``; these numbers say which layer
moved.
"""

import random
from itertools import combinations, product

import pytest
from opcode_count import count_opcodes

from fqtraces.oracle import (
    FqMatrix,
    _flag_walk,
    all_matrices,
    conjugacy_family_of,
    count_fixed_flags,
    field_make,
    unipotent_class_of,
    unipotent_upper_triangular,
)
from fqtraces.partitions import partitions_of

F2, F3 = field_make(2), field_make(3)

_rng = random.Random(1)
RANDOM_F3_4 = [
    FqMatrix(F3, [[_rng.randrange(3) for _ in range(4)] for _ in range(4)]) for _ in range(3000)
]
INVERTIBLE_F3_3 = [m for m in all_matrices(F3, 3) if m.is_invertible()]
UNITRIANGULAR_F2_5 = list(unipotent_upper_triangular(F2, 5))
IDENTITY_F2_4 = FqMatrix(F2, [[int(i == j) for j in range(4)] for i in range(4)])
# the compositions of 4: every shape of a flag in F_2^4
FLAG_SHAPES = [mu for k in range(1, 5) for mu in product(range(1, 5), repeat=k) if sum(mu) == 4]


def _unitriangular(field, n, seed):
    rng = random.Random(seed)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j in combinations(range(n), 2):
        rows[i][j] = rng.randrange(field.q)
    return FqMatrix(field, rows)


UNITRIANGULAR_F3_5 = _unitriangular(F3, 5, 1)
UNITRIANGULAR_F2_7 = _unitriangular(F2, 7, 1)


def invertible_f3_4x4():
    """How many of the seeded F_3 4 x 4 matrices are invertible."""
    return sum(m.is_invertible() for m in RANDOM_F3_4)


def classes_f3_3x3():
    """The conjugacy class of each invertible F_3 3 x 3 matrix."""
    return [conjugacy_family_of(m) for m in INVERTIBLE_F3_3]


def jordan_types_f2_5x5():
    """The Jordan type of each unitriangular F_2 5 x 5 matrix."""
    return [unipotent_class_of(m) for m in UNITRIANGULAR_F2_5]


def flag_shapes_f2_4x4():
    """The fixed flags of each shape of the identity of F_2^4, walked afresh."""
    _flag_walk.cache_clear()
    return [count_fixed_flags(IDENTITY_F2_4, mu) for mu in FLAG_SHAPES]


def flag_partitions_f3_5x5():
    """The fixed flags of each partition of 5 as a shape, for one unitriangular F_3 5 x 5."""
    _flag_walk.cache_clear()
    return [count_fixed_flags(UNITRIANGULAR_F3_5, mu) for mu in partitions_of(5)]


def complete_flags_f2_7x7():
    """The fixed complete flags of one unitriangular F_2 7 x 7."""
    _flag_walk.cache_clear()
    return count_fixed_flags(UNITRIANGULAR_F2_7, (1,) * 7)


BODIES = {
    "is-invertible-f3-4x4": invertible_f3_4x4,
    "classes-f3-3x3": classes_f3_3x3,
    "jordan-types-f2-5x5": jordan_types_f2_5x5,
    "flag-shapes-f2-4x4": flag_shapes_f2_4x4,
    "flag-partitions-f3-5x5": flag_partitions_f3_5x5,
    "complete-flags-f2-7x7": complete_flags_f2_7x7,
}


@pytest.mark.parametrize("name", BODIES)
def test_oracle(benchmark, name):
    benchmark(BODIES[name])
    if benchmark.enabled:
        benchmark.extra_info["opcodes"] = count_opcodes(BODIES[name])
