"""Each body of ``benchmarks/test_layers.py`` run once, untimed, with its result checked.

The benchmark file is outside ``testpaths``; this keeps it from rotting.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import oracle_reference as ref

from fqtraces.partitions import partitions_of

_PATH = Path(__file__).parent.parent / "benchmarks" / "test_layers.py"
_SPEC = importlib.util.spec_from_file_location("layer_benchmarks", _PATH)
layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layers)


def test_layer_benchmark_bodies():
    assert set(layers.BODIES) == {
        "is-invertible-f3-4x4",
        "classes-f3-3x3",
        "jordan-types-f2-5x5",
        "flag-shapes-f2-4x4",
        "flag-partitions-f3-5x5",
        "complete-flags-f2-7x7",
    }
    dense = [ref.DenseMatrix(m.field, m.rows) for m in layers.RANDOM_F3_4]
    assert layers.invertible_f3_4x4() == sum(m.is_invertible() for m in dense)
    # |GL(3, 3)| matrices in its q^3 - q classes
    classes = layers.classes_f3_3x3()
    assert len(classes) == 11232
    assert len(set(classes)) == 24
    # every type of size 5 occurs among the unitriangular matrices
    types = Counter(layers.jordan_types_f2_5x5())
    assert sum(types.values()) == 1024
    assert set(types) == set(partitions_of(5))
    # the identity fixes every flag: (1, 1, 1, 1) counts the 15 * 7 * 3 full flags
    flags = dict(zip(layers.FLAG_SHAPES, layers.flag_shapes_f2_4x4()))
    assert len(flags) == 8
    assert flags[(4,)] == 1 and flags[(1, 3)] == 15 and flags[(1, 1, 1, 1)] == 315
    # the two flag bodies of larger unitriangular matrices, against the
    # quotient recursion of the dense reference
    m = layers.UNITRIANGULAR_F3_5
    dense = ref.DenseMatrix(m.field, m.rows)
    expected = [ref.flag_count(dense, mu) for mu in partitions_of(5)]
    assert layers.flag_partitions_f3_5x5() == expected
    m = layers.UNITRIANGULAR_F2_7
    dense = ref.DenseMatrix(m.field, m.rows)
    assert layers.complete_flags_f2_7x7() == ref.flag_count(dense, (1,) * 7)
