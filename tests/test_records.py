"""The seven parameter records: immutable, compared and hashed by their fields.

Each record is equal only to a record of its own class with equal fields,
hashes as the tuple of those fields, has a fixed ``repr``, refuses
assignment and deletion, and takes weak references.  Every constructor
refusal is pinned as (exception type, message), in the order the checks
run: a call with two faults names the first.
"""

import weakref
from fractions import Fraction

import pytest

from fqtraces.measures import LLNRow, MeasureParams
from fqtraces.specializations import FinitePowerSums, GeometricSpread, Specialization
from fqtraces.traces import DiagramFamily, GLUTraceParams, family

HALF, QUARTER, EIGHTH = Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)
SP_HALF = Specialization.finite((QUARTER,), (), HALF)
SP_ONE = Specialization.finite((HALF,), (QUARTER,), 1)

# name: (record maker, a record of the same class with other fields,
#        the compared fields, repr)
RECORDS = {
    "finite-power-sums": (
        lambda: FinitePowerSums((HALF, QUARTER)),
        lambda: FinitePowerSums((HALF,)),
        ("values",),
        "FinitePowerSums(values=(Fraction(1, 2), Fraction(1, 4)))",
    ),
    "geometric-spread": (
        lambda: GeometricSpread((HALF, 0), 3),
        lambda: GeometricSpread((HALF, 0), 2),
        ("seq", "q"),
        "GeometricSpread(seq=(Fraction(1, 2), Fraction(0, 1)), q=Fraction(3, 1))",
    ),
    "specialization": (
        lambda: Specialization.finite((HALF,), (QUARTER,), 1),
        lambda: Specialization.finite((HALF,), (QUARTER,), Fraction(7, 8)),
        ("alpha", "beta", "gamma"),
        "Specialization(alpha=FinitePowerSums(values=(Fraction(1, 2),)), "
        "beta=FinitePowerSums(values=(Fraction(1, 4),)), gamma=Fraction(1, 1))",
    ),
    "measure-params": (
        lambda: MeasureParams((QUARTER,), (EIGHTH,), 2),
        lambda: MeasureParams((QUARTER,), (EIGHTH,), 3),
        ("r", "c", "q"),
        "MeasureParams(r=FinitePowerSums(values=(Fraction(1, 4),)), "
        "c=(Fraction(1, 8),), q=Fraction(2, 1))",
    ),
    "haar-measure-params": (
        lambda: MeasureParams.haar(2),
        lambda: MeasureParams.haar(Fraction(5, 2)),
        ("r", "c", "q"),
        "MeasureParams(r=GeometricSpread(seq=(Fraction(1, 1),), q=Fraction(2, 1)), "
        "c=(), q=Fraction(2, 1))",
    ),
    "lln-row": (
        lambda: LLNRow("lambda_i/n", 1, 0.5, HALF, 0.125),
        lambda: LLNRow("lambda_conj_i/n", 1, 0.5, HALF, 0.125),
        ("statistic", "index", "empirical", "predicted", "stderr"),
        "LLNRow(statistic='lambda_i/n', index=1, empirical=0.5, "
        "predicted=Fraction(1, 2), stderr=0.125)",
    ),
    "diagram-family": (
        lambda: family(("x-1", 1, (2, 1)), ("f", 2, (1,))),
        lambda: family(("x-1", 1, (2, 1))),
        ("blocks",),
        "DiagramFamily([('x-1', 1, '2,1'), ('f', 2, '1')])",
    ),
    "glu-trace-params": (
        lambda: GLUTraceParams((("a", SP_HALF), ("b", SP_HALF)), family(("f", 2, (1,)))),
        lambda: GLUTraceParams((("a", SP_HALF), ("b", SP_HALF))),
        ("entries", "background"),
        "GLUTraceParams(entries=(('a', Specialization(alpha=FinitePowerSums("
        "values=(Fraction(1, 4),)), beta=FinitePowerSums(values=()), "
        "gamma=Fraction(1, 2))), ('b', Specialization(alpha=FinitePowerSums("
        "values=(Fraction(1, 4),)), beta=FinitePowerSums(values=()), "
        "gamma=Fraction(1, 2)))), background=DiagramFamily([('f', 2, '1')]))",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    make, make_other, fields, text = RECORDS[name]
    rec, twin, other = make(), make(), make_other()
    values = tuple(getattr(rec, f) for f in fields)
    # equal and hashed by the field tuple, within one class only
    assert rec is not twin and rec == twin and not rec != twin
    assert hash(rec) == hash(twin) == hash(values)
    assert rec != other and tuple(getattr(other, f) for f in fields) != values
    assert rec != values
    for other_name, (make_else, _, _, _) in RECORDS.items():
        if other_name != name and type(make_else()) is not type(rec):
            assert rec != make_else()
    sub = type("Sub", (type(rec),), {})
    sub_rec = make()
    object.__setattr__(sub_rec, "__class__", sub)
    assert rec != sub_rec and sub_rec != rec
    assert repr(rec) == text
    # frozen: no field is set or deleted, nor a new attribute added
    for attr in (fields[0], "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{attr}'"):
            setattr(rec, attr, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{attr}'"):
            delattr(rec, attr)
    assert tuple(getattr(rec, f) for f in fields) == values
    ref = weakref.ref(rec)
    assert ref() is rec


def test_records_keep_their_constructor_parameters():
    # positional and keyword forms, and GLUTraceParams' default background
    assert FinitePowerSums(values=(HALF,)) == FinitePowerSums((HALF,))
    assert GeometricSpread(seq=(1,), q=2) == GeometricSpread((1,), 2)
    assert Specialization(alpha=SP_ONE.alpha, beta=SP_ONE.beta, gamma=SP_ONE.gamma) == SP_ONE
    assert MeasureParams(r=(QUARTER,), c=(), q=2) == MeasureParams((QUARTER,), (), 2)
    assert LLNRow(statistic="s", index=1, empirical=0.0, predicted=HALF, stderr=0.0) == LLNRow(
        "s", 1, 0.0, HALF, 0.0
    )
    assert DiagramFamily(blocks=(("x-1", 1, (1,)),)) == family(("x-1", 1, (1,)))
    entries = (("a", SP_ONE),)
    assert GLUTraceParams(entries=entries).background == DiagramFamily(())
    assert GLUTraceParams(entries, DiagramFamily(())) == GLUTraceParams(entries)


def test_measure_params_keep_family_and_specialization_out_of_equality():
    params = MeasureParams((QUARTER,), (EIGHTH,), 2)
    assert set(vars(params)) == {"r", "c", "q", "family", "_spec"}
    assert params.specialization() is params.specialization()
    assert hash(params) == hash((params.r, params.c, params.q))


NAN, INF = float("nan"), float("inf")

# name: (call, exception type, message)
REFUSALS = {
    # Specialization.finite: alphas, betas and gamma are read first, then
    # each side's sequence is checked, then the mass
    "finite-negative-alpha": (
        lambda: Specialization.finite((-HALF,)),
        ValueError,
        "alpha must be non-negative, got -1/2",
    ),
    "finite-increasing-alpha": (
        lambda: Specialization.finite((QUARTER, HALF)),
        ValueError,
        "alpha must be weakly decreasing",
    ),
    "finite-negative-second-alpha": (
        lambda: Specialization.finite((HALF, -QUARTER)),
        ValueError,
        "alpha must be non-negative, got -1/4",
    ),
    "finite-increasing-before-negative": (
        lambda: Specialization.finite((QUARTER, HALF, -1)),
        ValueError,
        "alpha must be weakly decreasing",
    ),
    "finite-negative-beta": (
        lambda: Specialization.finite((), (-1,)),
        ValueError,
        "beta must be non-negative, got -1",
    ),
    "finite-increasing-beta": (
        lambda: Specialization.finite((HALF,), (EIGHTH, QUARTER)),
        ValueError,
        "beta must be weakly decreasing",
    ),
    "finite-alpha-before-beta": (
        lambda: Specialization.finite((-1,), (-2,)),
        ValueError,
        "alpha must be non-negative, got -1",
    ),
    "finite-mass-above-gamma": (
        lambda: Specialization.finite((HALF,), (HALF,), HALF),
        ValueError,
        "sum(alpha) + sum(beta) must not exceed gamma",
    ),
    "finite-mass-above-one": (
        lambda: Specialization.finite((HALF, HALF), (Fraction(1, 1000),)),
        ValueError,
        "sum(alpha) + sum(beta) must not exceed gamma",
    ),
    "finite-int-alpha-above-one": (
        lambda: Specialization.finite((2,)),
        ValueError,
        "sum(alpha) + sum(beta) must not exceed gamma",
    ),
    "finite-negative-gamma": (
        lambda: Specialization.finite((), (), -1),
        ValueError,
        "sum(alpha) + sum(beta) must not exceed gamma",
    ),
    "finite-gamma-read-before-checks": (
        lambda: Specialization.finite((-1,), (), "y"),
        ValueError,
        "Invalid literal for Fraction: 'y'",
    ),
    "finite-beta-read-before-checks": (
        lambda: Specialization.finite((-1,), ("x",)),
        ValueError,
        "Invalid literal for Fraction: 'x'",
    ),
    "finite-nan-alpha": (
        lambda: Specialization.finite((NAN,)),
        ValueError,
        "cannot convert NaN to integer ratio",
    ),
    # GeometricSpread: the sequence is read, then q, then the sequence checked
    "spread-negative": (
        lambda: GeometricSpread((-1,), 2),
        ValueError,
        "spread sequence must be non-negative, got -1",
    ),
    "spread-increasing": (
        lambda: GeometricSpread((HALF, 1), 2),
        ValueError,
        "spread sequence must be weakly decreasing",
    ),
    "spread-q-one": (
        lambda: GeometricSpread((1,), 1),
        ValueError,
        "q must exceed 1, got 1",
    ),
    "spread-q-half": (
        lambda: GeometricSpread((1,), HALF),
        ValueError,
        "q must exceed 1, got 1/2",
    ),
    "spread-q-negative": (
        lambda: GeometricSpread((1,), -3),
        ValueError,
        "q must exceed 1, got -3",
    ),
    "spread-q-before-sequence": (
        lambda: GeometricSpread((-1,), 1),
        ValueError,
        "q must exceed 1, got 1",
    ),
    "spread-sequence-read-before-q": (
        lambda: GeometricSpread(("s",), 1),
        ValueError,
        "Invalid literal for Fraction: 's'",
    ),
    "spread-q-string": (
        lambda: GeometricSpread((1,), "abc"),
        ValueError,
        "Invalid literal for Fraction: 'abc'",
    ),
    "spread-q-nan": (
        lambda: GeometricSpread((1,), NAN),
        ValueError,
        "cannot convert NaN to integer ratio",
    ),
    "spread-q-infinite": (
        lambda: GeometricSpread((1,), INF),
        OverflowError,
        "cannot convert Infinity to integer ratio",
    ),
    "spread-q-complex": (
        lambda: GeometricSpread((1,), 2j),
        TypeError,
        "argument should be a string or a Rational instance",
    ),
    "spread-q-none": (
        lambda: GeometricSpread((1,), None),
        TypeError,
        "argument should be a string or a Rational instance",
    ),
    # MeasureParams: q first, then r, then c, then the mass
    "measure-q-one": (
        lambda: MeasureParams((HALF,), (), 1),
        ValueError,
        "q must exceed 1, got 1",
    ),
    "measure-q-nan": (
        lambda: MeasureParams((), (), NAN),
        ValueError,
        "cannot convert NaN to integer ratio",
    ),
    "measure-q-before-rows": (
        lambda: MeasureParams(3, (-1,), 1),
        ValueError,
        "q must exceed 1, got 1",
    ),
    "measure-rows-not-a-sequence": (
        lambda: MeasureParams(3, (-1,), 2),
        TypeError,
        "r must be a sequence or a GeometricSpread",
    ),
    "measure-negative-rows": (
        lambda: MeasureParams((-QUARTER,), (), 2),
        ValueError,
        "row frequencies must be non-negative, got -1/4",
    ),
    "measure-increasing-rows": (
        lambda: MeasureParams([QUARTER, HALF], (), 2),
        ValueError,
        "row frequencies must be weakly decreasing",
    ),
    "measure-increasing-power-sums": (
        lambda: MeasureParams(FinitePowerSums((1, 2)), (), 2),
        ValueError,
        "row frequencies must be weakly decreasing",
    ),
    "measure-rows-before-columns": (
        lambda: MeasureParams((QUARTER, HALF), (-1,), 2),
        ValueError,
        "row frequencies must be weakly decreasing",
    ),
    "measure-negative-columns": (
        lambda: MeasureParams((), (-QUARTER,), 2),
        ValueError,
        "column frequencies must be non-negative, got -1/4",
    ),
    "measure-increasing-columns": (
        lambda: MeasureParams((), (EIGHTH, QUARTER), 2),
        ValueError,
        "column frequencies must be weakly decreasing",
    ),
    "measure-columns-read-before-rows-checked": (
        lambda: MeasureParams((-1,), ("z",), 2),
        ValueError,
        "row frequencies must be non-negative, got -1",
    ),
    "measure-column-string": (
        lambda: MeasureParams((), ("z",), 2),
        ValueError,
        "Invalid literal for Fraction: 'z'",
    ),
    "measure-mass-above-one": (
        lambda: MeasureParams((Fraction(3, 4),), (HALF,), 2),
        ValueError,
        "total frequency mass must not exceed 1",
    ),
    "measure-rows-above-one": (
        lambda: MeasureParams((Fraction(2),), (), 3),
        ValueError,
        "total frequency mass must not exceed 1",
    ),
    "measure-spread-mass-above-one": (
        lambda: MeasureParams(GeometricSpread((Fraction(3, 4),), 2), (HALF,), 2),
        ValueError,
        "total frequency mass must not exceed 1",
    ),
    "measure-spread-past-one-by-a-hair": (
        lambda: MeasureParams(GeometricSpread((HALF,), 3), (HALF, Fraction(1, 10**30)), 3),
        ValueError,
        "total frequency mass must not exceed 1",
    ),
    # DiagramFamily: per block in order, the diagram, then the degree, the
    # tag's type, a repeated tag and the unit tag's degree
    "family-bool-degree": (
        lambda: family(("x-1", True, (1,))),
        ValueError,
        "block degree must be a positive integer: True",
    ),
    "family-zero-degree": (
        lambda: family(("a", 0, (1,))),
        ValueError,
        "block degree must be a positive integer: 0",
    ),
    "family-negative-degree": (
        lambda: family(("a", -1, (1,))),
        ValueError,
        "block degree must be a positive integer: -1",
    ),
    "family-float-degree": (
        lambda: family(("a", 1.0, (1,))),
        ValueError,
        "block degree must be a positive integer: 1.0",
    ),
    "family-int-tag": (
        lambda: family((3, 1, (1,))),
        ValueError,
        "family tag must be a string: 3",
    ),
    "family-duplicate-tag": (
        lambda: family(("a", 1, (1,)), ("a", 2, (1,))),
        ValueError,
        "duplicate tag in family: 'a'",
    ),
    "family-unit-tag-degree-two": (
        lambda: family(("x-1", 2, (1,))),
        ValueError,
        "the unit tag always has degree 1",
    ),
    "family-empty-diagram": (
        lambda: family(("a", 0, ())),
        ValueError,
        "family blocks must carry nonempty diagrams",
    ),
    "family-not-a-partition": (
        lambda: family(("a", 0, (1, 2))),
        ValueError,
        "not a partition: (1, 2)",
    ),
    "family-degree-before-tag": (
        lambda: family((3, 0, (1,))),
        ValueError,
        "block degree must be a positive integer: 0",
    ),
    "family-first-block-first": (
        lambda: family(("x-1", 2, (1,)), ("b", 0, (1,))),
        ValueError,
        "the unit tag always has degree 1",
    ),
    "family-blocks-not-iterable": (
        lambda: DiagramFamily(5),
        TypeError,
        "'int' object is not iterable",
    ),
    # GLUTraceParams: labels, then the gammas, then the background
    "glu-duplicate-labels": (
        lambda: GLUTraceParams((("a", SP_HALF), ("a", SP_HALF))),
        ValueError,
        "duplicate eigenvalue labels",
    ),
    "glu-gammas-half": (
        lambda: GLUTraceParams((("a", SP_HALF),)),
        ValueError,
        "gammas must sum to 1, got 1/2",
    ),
    "glu-gammas-above-one": (
        lambda: GLUTraceParams((("a", SP_ONE), ("b", SP_HALF))),
        ValueError,
        "gammas must sum to 1, got 3/2",
    ),
    "glu-no-entries": (
        lambda: GLUTraceParams(()),
        ValueError,
        "gammas must sum to 1, got 0",
    ),
    "glu-degree-one-background": (
        lambda: GLUTraceParams((("a", SP_ONE),), family(("b", 1, (1,)))),
        ValueError,
        "background family may not contain degree-1 blocks",
    ),
    "glu-labels-before-background": (
        lambda: GLUTraceParams((("a", SP_HALF), ("a", SP_HALF)), family(("b", 1, (1,)))),
        ValueError,
        "duplicate eigenvalue labels",
    ),
    "glu-gammas-before-background": (
        lambda: GLUTraceParams((("a", SP_HALF),), family(("b", 1, (1,)))),
        ValueError,
        "gammas must sum to 1, got 1/2",
    ),
    # FinitePowerSums takes its values as given: rationals only
    "power-sums-of-a-float": (
        lambda: FinitePowerSums((0.5,)),
        AttributeError,
        "'float' object has no attribute 'denominator'",
    ),
}


def _refusal(call) -> tuple[type, str]:
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None, "accepted"


def test_record_refusal_table():
    got = {name: _refusal(call) for name, (call, _, _) in REFUSALS.items()}
    assert got == {name: (exc, message) for name, (_, exc, message) in REFUSALS.items()}


@pytest.mark.parametrize(
    "make",
    [
        lambda: Specialization.finite((HALF,), (HALF,)),
        lambda: Specialization.finite((), (), 0),
        lambda: MeasureParams(GeometricSpread((HALF,), 2), (HALF,), 2),
        lambda: MeasureParams((HALF, QUARTER), (QUARTER,), 2),
        lambda: MeasureParams((1,), (), Fraction(10001, 10000)),
        lambda: GeometricSpread((HALF, HALF, 0), Fraction(3, 2)),
        lambda: GLUTraceParams((("a", SP_HALF), ("b", SP_HALF)), family(("f", 2, (1,)))),
    ],
)
def test_records_at_the_bounds_are_accepted(make):
    # mass exactly 1 or gamma, zeros and ties in the sequences
    make()
