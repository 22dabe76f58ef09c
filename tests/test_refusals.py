"""Library refusals that no command-line path reaches.

The command line checks these inputs itself, or never builds them, so
each library check is called here directly: it must raise its own
exception type with its own message.
"""

from fractions import Fraction

import pytest

from fqtraces.measures import (
    MeasureParams,
    extension_count,
    lln_experiment,
    sample_trajectory,
    transition_distribution,
)
from fqtraces.oracle import (
    FqMatrix,
    conjugacy_family_of,
    count_fixed_flags,
    ext_enumerate,
    extension_classes,
    field_make,
    jordan_block_matrix,
)
from fqtraces.partitions import check_partition, partitions_of
from fqtraces.specializations import Specialization
from fqtraces.symfunc import PowerSumElement, hl_q_in_p, plethysm_pl, schur_in_p, sym_character
from fqtraces.traces import GLUTraceParams, family, trace_coefficients

F2 = field_make(2)
HALF = Specialization.finite(gamma=Fraction(1, 2))

HAAR2 = MeasureParams.haar(2)
DELTA2 = MeasureParams.delta_identity(2)
ROW2 = MeasureParams.single_row(2)

REFUSALS = {
    "lln-zero-trials": (
        lambda: lln_experiment(MeasureParams.haar(2), 3, 0, 1),
        ValueError,
        "need at least one trial",
    ),
    # used to return [()]
    "trajectory-level-minus-one": (
        lambda: sample_trajectory(HAAR2, -1, 1),
        ValueError,
        "growth chains need a level of at least 0; got level -1",
    ),
    # used to raise ZeroDivisionError
    "lln-level-zero": (
        lambda: lln_experiment(HAAR2, 0, 3, 1),
        ValueError,
        "growth chains need a level of at least 1; got level 0",
    ),
    # used to return rows of 0.0
    "lln-level-minus-five": (
        lambda: lln_experiment(DELTA2, -5, 3, 1),
        ValueError,
        "growth chains need a level of at least 1; got level -5",
    ),
    # used to return ()
    "lln-track-zero": (
        lambda: lln_experiment(HAAR2, 3, 3, 1, track=0),
        ValueError,
        "lln runs track at least one row and column; got 0",
    ),
    # used to count -1/4
    "extension-count-q-half": (
        lambda: extension_count((2, 1), (2, 2), Fraction(1, 2)),
        ValueError,
        "q must exceed 1, got 1/2",
    ),
    # used to raise ZeroDivisionError
    "extension-count-q-zero": (
        lambda: extension_count((2, 1), (2, 2), 0),
        ValueError,
        "q must exceed 1, got 0",
    ),
    # the closed-form families used to return rows for each of these; the
    # delta weight of (1, 2) is not zero, so nothing else would stop it
    "haar-row-out-of-increasing-parts": (
        lambda: transition_distribution(HAAR2, (1, 2)),
        ValueError,
        "not a partition: (1, 2)",
    ),
    "haar-row-out-of-a-float-part": (
        lambda: transition_distribution(HAAR2, (2.0,)),
        ValueError,
        "not a partition: (2.0,)",
    ),
    "delta-row-out-of-increasing-parts": (
        lambda: transition_distribution(DELTA2, (1, 2)),
        ValueError,
        "not a partition: (1, 2)",
    ),
    "delta-row-out-of-a-zero-part": (
        lambda: transition_distribution(DELTA2, (0,)),
        ValueError,
        "not a partition: (0,)",
    ),
    "single-row-row-out-of-a-negative-part": (
        lambda: transition_distribution(ROW2, (-1,)),
        ValueError,
        "not a partition: (-1,)",
    ),
    "single-row-row-out-of-a-bool": (
        lambda: transition_distribution(ROW2, (True,)),
        ValueError,
        "not a partition: (True,)",
    ),
    "measure-rows-not-a-sequence": (
        lambda: MeasureParams(3, (), 2),
        TypeError,
        "r must be a sequence or a GeometricSpread",
    ),
    "trace-coefficients-gamma-half": (
        lambda: trace_coefficients(HALF, 2),
        ValueError,
        "trace coefficients need gamma = 1",
    ),
    "glu-duplicate-labels": (
        lambda: GLUTraceParams((("a", HALF), ("a", HALF))),
        ValueError,
        "duplicate eigenvalue labels",
    ),
    "conjugacy-family-singular": (
        lambda: conjugacy_family_of(FqMatrix(F2, [[1, 1], [1, 1]])),
        ValueError,
        "conjugacy families are defined for invertible matrices",
    ),
    # refused before any image chain is built on columns of the wrong length
    "conjugacy-family-of-a-wide-matrix": (
        lambda: conjugacy_family_of(FqMatrix(F2, [[1, 0, 0], [0, 1, 0]])),
        ValueError,
        "conjugacy families are defined for invertible matrices",
    ),
    "conjugacy-family-of-a-tall-matrix": (
        lambda: conjugacy_family_of(FqMatrix(F2, [[1, 0], [0, 1], [0, 0]])),
        ValueError,
        "conjugacy families are defined for invertible matrices",
    ),
    "extension-variant-gl": (
        lambda: ext_enumerate(FqMatrix(F2, [[1]]), "GL"),
        ValueError,
        "unknown extension variant 'GL'",
    ),
    # x^2 + x + 1 is irreducible over F_2: no eigenvalue 1
    "extension-classes-not-unipotent": (
        lambda: extension_classes(FqMatrix(F2, [[1, 1], [1, 0]])),
        ValueError,
        "matrix is not unipotent",
    ),
    "extension-classes-of-a-wide-matrix": (
        lambda: extension_classes(FqMatrix(F2, [[1, 0, 0], [0, 1, 0]])),
        ValueError,
        "matrix is not unipotent",
    ),
    "extension-classes-of-a-tall-matrix": (
        lambda: extension_classes(FqMatrix(F2, [[1, 0], [0, 1], [0, 0]])),
        ValueError,
        "matrix is not unipotent",
    ),
    # a 2 x 3 matrix used to have 1 fixed flag, a 3 x 2 one an IndexError
    "flags-of-a-wide-matrix": (
        lambda: count_fixed_flags(FqMatrix(F2, [[1, 0, 0], [0, 1, 0]]), (1, 1)),
        ValueError,
        "fixed flags need a square matrix, not 2 x 3",
    ),
    "flags-of-a-tall-matrix": (
        lambda: count_fixed_flags(FqMatrix(F2, [[1, 0], [0, 1], [0, 0]]), (1, 1, 1)),
        ValueError,
        "fixed flags need a square matrix, not 3 x 2",
    ),
    # used to count 0 flags
    "flag-shape-negative-part": (
        lambda: count_fixed_flags(FqMatrix(F2, [[1, 0], [0, 1]]), (3, -1)),
        ValueError,
        "flag shape must have non-negative int parts: (3, -1)",
    ),
    "flag-shape-float-part": (
        lambda: count_fixed_flags(FqMatrix(F2, [[1, 0], [0, 1]]), (1.0, 1)),
        ValueError,
        "flag shape must have non-negative int parts: (1.0, 1)",
    ),
    "flag-shape-bool-part": (
        lambda: count_fixed_flags(FqMatrix(F2, [[1, 0], [0, 1]]), (True, 1)),
        ValueError,
        "flag shape must have non-negative int parts: (True, 1)",
    ),
    # used to yield 3 x 4 matrices
    "extensions-of-a-wide-matrix": (
        lambda: ext_enumerate(FqMatrix(F2, [[1, 0, 0], [0, 1, 0]]), "GLU"),
        ValueError,
        "extensions need a square matrix, not 2 x 3",
    ),
    # used to build every character table up to degree 21
    "sym-character-above-degree-cap": (
        lambda: sym_character((21,), (1,) * 21),
        ValueError,
        "symmetric group characters capped at degree 20; got degree 21",
    ),
    "schur-in-p-above-degree-cap": (
        lambda: schur_in_p((11, 10)),
        ValueError,
        "symmetric group characters capped at degree 20; got degree 21",
    ),
    "plethysm-degree-zero": (
        lambda: plethysm_pl(PowerSumElement({(1,): 1}), 0),
        ValueError,
        "plethysm degree must be a positive integer",
    ),
    "partitions-of-minus-one": (
        lambda: partitions_of(-1),
        ValueError,
        "n must be non-negative",
    ),
    "power-sum-index-zero": (
        lambda: Specialization.finite().power_sum(0),
        ValueError,
        "power sum index must be >= 1",
    ),
    # a bool is an int to Python; as a part it would key Q_(1,1) as (True, True)
    "partition-of-bools": (
        lambda: check_partition((True,)),
        ValueError,
        "not a partition: (True,)",
    ),
    "hl-q-of-bools": (
        lambda: hl_q_in_p((True,), Fraction(1, 2)),
        ValueError,
        "not a partition: (True,)",
    ),
    # as the tag "1", the int 1 would pass the duplicate check next to "1"
    "family-tag-not-a-string": (
        lambda: family((1, 1, (1,)), ("1", 1, (2,))),
        ValueError,
        "family tag must be a string: 1",
    ),
    "jordan-blocks-of-bools": (
        lambda: jordan_block_matrix(field_make(2), [((1, 1), (True, True))]),
        ValueError,
        "not a partition: (True, True)",
    ),
    # a constant has no companion block: its block would be 0 x 0
    "jordan-block-of-a-constant": (
        lambda: jordan_block_matrix(field_make(2), [((1,), (3,))]),
        ValueError,
        "(1,) is not a monic polynomial over F_2 of positive degree",
    ),
}


@pytest.mark.parametrize("call, kind, message", REFUSALS.values(), ids=REFUSALS)
def test_library_refuses(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind and str(info.value) == message
