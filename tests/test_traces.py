from fractions import Fraction

from functools import cache
from math import factorial, prod

import pytest
from hl_reference import block_value_reference, schur_value_reference
from hypothesis import given, settings, strategies as st
from test_golden import check_suite_golden

from fqtraces.partitions import hook_lengths, n_stat, partitions_of, size, transpose
from fqtraces.specializations import GeometricSpread, Specialization
from fqtraces.symfunc import PowerSumElement, class_vector, modified_hl_q, plethysm_pl
from fqtraces.traces import (
    COEFFICIENT_DEGREE_CAP,
    GLU_ROW_CAP,
    UNIT,
    DiagramFamily,
    GLUTraceParams,
    _partition_tuples,
    _row_count,
    biregular_coefficient,
    branching_predecessors,
    family,
    glu_trace_coefficients,
    green_dimension,
    trace_coefficients,
    unipotent_block_value,
    unipotent_trace_value,
)
from fqtraces.verify import _principal_schur

HALF = Fraction(1, 2)
TRIVIAL = Specialization.finite((1,), (), 1)
STEINBERG = Specialization.finite((), (1,), 1)


def test_family_canonicalization():
    f = family(("c2", 2, (1,)), (UNIT, 1, (2, 1)))
    assert f.blocks[0][0] == UNIT
    assert f.degree == 5
    with pytest.raises(ValueError):
        family((UNIT, 2, (1,)))
    with pytest.raises(ValueError):
        family(("a", 1, ()))
    with pytest.raises(ValueError):
        family(("a", 1, (1,)), ("a", 1, (2,)))
    with pytest.raises(ValueError, match="block degree must be a positive integer"):
        DiagramFamily((("a", True, (1,)),))


def test_family_json_round_trip():
    f = family((UNIT, 1, (2, 1)), ("c2", 2, (1,)))
    blob = f.to_json_obj()
    assert blob == [
        {"tag": "x-1", "d": 1, "lambda": "2,1"},
        {"tag": "c2", "d": 2, "lambda": "1"},
    ]
    assert DiagramFamily.from_json_obj(blob) == f


def test_green_dimension_examples():
    assert green_dimension(family((UNIT, 1, (1, 1))), 2) == 2
    assert green_dimension(family((UNIT, 1, (2,))), 2) == 1
    assert green_dimension(family(("c2", 2, (1,))), 2) == 1
    assert green_dimension(DiagramFamily(()), 2) == 1
    with pytest.raises(ValueError):
        green_dimension(family((UNIT, 1, (1,))), 1)


def test_linear_tag_capacity_checked_once_q_is_supplied():
    crowded = family(("a", 1, (1,)), ("b", 1, (1,)))
    with pytest.raises(ValueError):
        green_dimension(crowded, 2)  # F_2 has a single linear factor
    with pytest.raises(ValueError):
        unipotent_trace_value(TRIVIAL, crowded, 2)
    # two linear factors fit in F_3: a principal-series irreducible, dim q+1
    assert green_dimension(crowded, 3) == 4
    # non-integer q is formula-level only: no capacity to enforce
    assert green_dimension(crowded, Fraction(5, 2)) > 0


def test_green_dimension_gl32_table():
    # GL(3, 2) has irreducibles of dimensions 1, 3, 3, 6, 7, 8 (sum sq = 168)
    from fqtraces.oracle import families_enumerate

    dims = sorted(green_dimension(f, 2) for f in families_enumerate(3, 2))
    assert dims == [1, 3, 3, 6, 7, 8]


def _hook_weight_by_fractions(lam, d, q):
    """q**(d n(lam)) / prod (q**(d h) - 1), one Fraction at a time."""
    value = q ** (d * n_stat(lam))
    for h in hook_lengths(lam):
        value /= q ** (d * h) - 1
    return value


def _families_up_to(n, field=3):
    """Every family of degree at most n over the irreducibles of F_field."""
    from fqtraces.oracle import families_enumerate

    return [f for k in range(n + 1) for f in families_enumerate(k, field)]


@pytest.mark.parametrize(
    "q", [Fraction(2), Fraction(3), Fraction(5, 2), Fraction(10001, 10000), Fraction(3, 2)]
)
def test_dimension_and_biregular_weight_equal_the_fraction_products(q):
    # the product formulas in Fractions, factor by factor, are the oracle for
    # the integer numerator and denominator; at integer q the families are
    # those of F_q, so every unit-free one has room for its linear tags
    field = q.numerator if q.denominator == 1 else 3
    grid = _families_up_to(5, field) + [
        family((UNIT, 1, (3, 2, 2, 1)), ("c", 2, (2, 1)), ("e", 3, (1, 1))),
        family(("c", 2, (4, 1)), ("e", 4, (2,))),
    ]
    if q in (3, Fraction(3, 2)):
        # one column of degree 200: the hook product is most of the quotient
        grid.append(family((UNIT, 1, (1,) * 200)))
    for f in grid:
        k = f.degree
        hooks = prod((_hook_weight_by_fractions(lam, d, q) for _, d, lam in f.blocks), start=Fraction(1))
        assert green_dimension(f, q) == prod((q**i - 1 for i in range(1, k + 1)), start=hooks), f
        if not f.has_unit():
            assert biregular_coefficient(f, q) == (q - 1) ** k * hooks, f


@pytest.mark.parametrize("q", [Fraction(3, 2), Fraction(5, 4), Fraction(10001, 10000)])
def test_dimension_denominator_is_b_to_the_degree_in_q(q):
    # a monic integer polynomial in q of degree k(k-1)/2 - sum d n(lam')
    for f in _families_up_to(6):
        k = f.degree
        degree = k * (k - 1) // 2 - sum(d * n_stat(transpose(lam)) for _, d, lam in f.blocks)
        assert green_dimension(f, q).denominator == q.denominator**degree, f


def test_branching_examples():
    f = family((UNIT, 1, (2, 1)))
    preds = branching_predecessors(f, "GLB")
    assert {p.blocks for p in preds} == {
        family((UNIT, 1, (1, 1))).blocks,
        family((UNIT, 1, (2,))).blocks,
    }
    assert branching_predecessors(family(("c2", 2, (1,))), "GLB") == []
    g = family(("a1", 1, (1,)), ("a2", 1, (1,)))
    preds = branching_predecessors(g, "GLU")
    assert {p.blocks for p in preds} == {
        family(("a2", 1, (1,))).blocks,
        family(("a1", 1, (1,))).blocks,
    }
    with pytest.raises(ValueError):
        branching_predecessors(g, "left")


def test_unipotent_block_values():
    assert unipotent_block_value(TRIVIAL, 1, (1, 1), 7) == 1
    assert unipotent_block_value(STEINBERG, 1, (1, 1), 2) == 2
    assert unipotent_block_value(STEINBERG, 2, (1,), 2) == -1
    with pytest.raises(ValueError):
        unipotent_block_value(Specialization.finite((HALF,), (), HALF), 1, (1,), 2)


_BLOCK_SPECIALIZATIONS = [
    Specialization.finite((HALF, Fraction(1, 4)), (Fraction(1, 8),), 1),
    Specialization.finite((), (Fraction(2, 3), Fraction(1, 5)), 1),
    Specialization(
        GeometricSpread((Fraction(1, 3),), Fraction(5, 2)),
        GeometricSpread((Fraction(1, 4), Fraction(1, 6)), 3),
        Fraction(1),
    ),
]


@pytest.mark.parametrize("sp", _BLOCK_SPECIALIZATIONS)
def test_block_value_matches_the_stretched_modified_q(sp):
    # the composition the block value was defined by: Q' at t = q**-d, its
    # indices stretched by d, then specialized
    for q in (Fraction(2), Fraction(3), Fraction(4), Fraction(5, 2)):
        for d in (1, 2, 3):
            for n in range(9):
                for lam in partitions_of(n):
                    f = plethysm_pl(modified_hl_q(lam, q**-d), d)
                    expected = q ** (d * n_stat(lam)) * sp.apply(f)
                    assert unipotent_block_value(sp, d, lam, q) == expected, (q, d, lam)


@pytest.mark.parametrize("q", [Fraction(2), Fraction(3), Fraction(5, 2)])
def test_trace_value_is_the_product_of_fraction_block_values(q):
    # the composition the integer pairs replace: each block's value as a
    # Fraction, from the charge-built Q, and the class's value their product
    field = q.numerator if q.denominator == 1 else 3
    classes = _families_up_to(4, field) + [
        family((UNIT, 1, (2, 1)), ("c", 2, (1, 1)), ("e", 3, (1,))),
        family(("c", 2, (2,)), ("e", 4, (1,))),
    ]
    for sp in _BLOCK_SPECIALIZATIONS:
        for cls in classes:
            blocks = (block_value_reference(sp, d, lam, q) for _, d, lam in cls.blocks)
            expected = prod(blocks, start=Fraction(1))
            assert unipotent_trace_value(sp, cls, q) == expected, cls
        for _, d, lam in classes[-1].blocks:
            assert unipotent_block_value(sp, d, lam, q) == block_value_reference(sp, d, lam, q)


def test_warm_block_value_builds_no_power_sum_element(monkeypatch):
    sp = _BLOCK_SPECIALIZATIONS[0]
    unipotent_block_value(sp, 2, (3, 2, 1), 3)
    built = []
    init = PowerSumElement.__init__

    def counted(self, terms=None):
        built.append(terms)
        init(self, terms)

    monkeypatch.setattr(PowerSumElement, "__init__", counted)
    unipotent_block_value(sp, 2, (3, 2, 1), 3)
    assert built == []


def test_unipotent_trace_values():
    assert unipotent_trace_value(TRIVIAL, family((UNIT, 1, (1,))), 5) == 1
    cls = family((UNIT, 1, (1,)), ("c2", 2, (1,)))
    assert unipotent_trace_value(TRIVIAL, cls, 2) == 1
    # multiplicativity across blocks, by construction but worth pinning
    sp = Specialization.finite((HALF,), (Fraction(1, 4),), 1)
    for d, lam in [(1, (2, 1)), (2, (1, 1)), (3, (1,))]:
        single = family(("c", d, lam))
        joint = family(("c", d, lam), ("e", max(2, d + 1), (1,)))
        other = family(("e", max(2, d + 1), (1,)))
        assert unipotent_trace_value(sp, joint, 3) == unipotent_trace_value(
            sp, single, 3
        ) * unipotent_trace_value(sp, other, 3)


def test_multiplicativity_against_flag_oracle():
    # block multiplicativity and degree stretching, cross-checked through
    # brute-force flag counts on explicit class representatives
    from fqtraces import verify

    rows = verify.run_suite("trace-values-oracle")
    assert [row for row in rows if row["status"] != "pass"] == []
    check_suite_golden("trace-values-oracle", rows)


def test_trivial_character_is_one_at_identity():
    for n in range(1, 6):
        cls = family((UNIT, 1, (1,) * n))
        assert unipotent_trace_value(TRIVIAL, cls, 2) == 1


def test_trace_coefficients_examples():
    assert trace_coefficients(TRIVIAL, 3) == {(3,): 1, (2, 1): 0, (1, 1, 1): 0}
    coeffs = trace_coefficients(STEINBERG, 3)
    assert coeffs == {(3,): 0, (2, 1): 0, (1, 1, 1): 1}
    sp = Specialization.finite((HALF, HALF), (), 1)
    assert trace_coefficients(sp, 2) == {(2,): Fraction(3, 4), (1, 1): Fraction(1, 4)}


def test_trace_coefficients_positivity_grid():
    grid = [
        ((), ()),
        ((HALF,), ()),
        ((), (HALF,)),
        ((HALF, Fraction(1, 4)), (Fraction(1, 8),)),
        ((Fraction(1, 3),), (Fraction(1, 3), Fraction(1, 6))),
    ]
    for alphas, betas in grid:
        sp = Specialization.finite(alphas, betas, 1)
        for n in range(0, 7):
            for value in trace_coefficients(sp, n).values():
                assert value >= 0, (alphas, betas, n)


def test_biregular_examples():
    assert biregular_coefficient(DiagramFamily(()), 2) == 1
    assert biregular_coefficient(family(("c2", 2, (1,))), 2) == Fraction(1, 3)
    with pytest.raises(ValueError):
        biregular_coefficient(family(("a", 1, (1,))), 2)
    with pytest.raises(ValueError):
        biregular_coefficient(family((UNIT, 1, (1,))), 3)
    # q = 3 admits one linear tag besides the unit: (q-1) / (q - 1) = 1
    assert biregular_coefficient(family(("a", 1, (1,))), 3) == 1


def test_biregular_suite_reports_a_degree_three_mismatch(monkeypatch):
    # n = 3 rows print only on a mismatch: off by one on the degree-3
    # backgrounds, two of them differ, and so does the n = 3 total
    from fqtraces import verify

    def off_by_one(background, q):
        value = biregular_coefficient(background, q)
        return value + 1 if background.degree == 3 else value

    monkeypatch.setattr(verify, "biregular_coefficient", off_by_one)
    rows = verify.run_suite("biregular")
    failed = [row["instance"] for row in rows if row["status"] != "pass"]
    assert failed == ["coefficient-n=3-mismatch"] * 2 + ["coefficient-total-n=3-q=2"]
    assert len(rows) - len(failed) == 7


def test_principal_schur_closed_form():
    assert _principal_schur(2, 1)[(1,)] == 1
    assert _principal_schur(2, 2) == {(2,): Fraction(1, 3), (1, 1): Fraction(2, 3)}
    for q in (2, 3, 4):
        for n in range(1, 7):
            schur = _principal_schur(q, n)
            for lam in partitions_of(n):
                closed = Fraction(q - 1) ** size(lam) * Fraction(q) ** n_stat(lam)
                for h in hook_lengths(lam):
                    closed /= q**h - 1
                assert schur[lam] == closed


def test_glu_row_count():
    # the x**m coefficient of P(x)**labels counts the keys of the coefficients
    for m in range(7):
        for labels in range(4):
            assert _row_count(m, labels) == sum(1 for _ in _partition_tuples(m, labels))
    assert _row_count(COEFFICIENT_DEGREE_CAP, 2) == GLU_ROW_CAP
    assert _row_count(COEFFICIENT_DEGREE_CAP, 3) == 341649


def test_glu_params_validation():
    p = Specialization.finite((HALF,), (), HALF)
    with pytest.raises(ValueError):
        GLUTraceParams((("1", p),))  # gammas sum to 1/2
    with pytest.raises(ValueError):
        GLUTraceParams(
            (("1", TRIVIAL),), background=family(("a", 1, (1,)))
        )  # linear tag in background


def test_glu_trace_coefficients():
    p = Specialization.finite((HALF,), (), HALF)
    params = GLUTraceParams((("1", p), ("2", p)))
    coeffs = glu_trace_coefficients(params, 2)
    assert coeffs[((1,), (1,))] == Fraction(1, 4)
    # degenerate quadruple reduces to the plain coefficients
    zero = Specialization.finite((), (), 0)
    params = GLUTraceParams((("1", TRIVIAL), ("2", zero)))
    plain = trace_coefficients(TRIVIAL, 3)
    coeffs = glu_trace_coefficients(params, 3)
    for lam, v in plain.items():
        assert coeffs[(lam, ())] == v
    # vanishing below the background degree
    params = GLUTraceParams((("1", TRIVIAL),), background=family(("c2", 2, (1,))))
    assert glu_trace_coefficients(params, 1) == {}
    keys = glu_trace_coefficients(params, 3).keys()
    assert set(keys) == {((1,),)}


@st.composite
def _finite_specializations(draw, gamma=Fraction(1)):
    """Finite alpha and beta of total mass at most gamma; often less (a Plancherel part)."""
    sides = [
        draw(st.lists(st.fractions(0, 1, max_denominator=12), max_size=3)) for _ in range(2)
    ]
    mass = sum(sides[0] + sides[1], Fraction(0))
    if mass > gamma:
        sides = [[v * gamma / mass for v in side] for side in sides]
    return Specialization.finite(*(sorted(side, reverse=True) for side in sides), gamma)


@settings(max_examples=25, deadline=None)
@given(_finite_specializations(), st.integers(0, 10))
def test_trace_coefficients_match_per_schur_reference(sp, n):
    assert trace_coefficients(sp, n) == {
        lam: schur_value_reference(sp, lam) for lam in partitions_of(n)
    }


@st.composite
def _glu_params(draw):
    weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    gammas = [Fraction(w, sum(weights)) for w in weights]
    entries = tuple((str(i), draw(_finite_specializations(g))) for i, g in enumerate(gammas))
    background = draw(st.sampled_from([DiagramFamily(()), family(("c", 2, (1,)))]))
    return GLUTraceParams(entries, background)


@settings(max_examples=15, deadline=None)
@given(_glu_params(), st.integers(0, 10))
def test_glu_trace_coefficients_match_per_schur_reference(params, n):
    value = cache(schur_value_reference)
    coeffs = glu_trace_coefficients(params, n)
    m = n - params.background.degree
    assert not coeffs if m < 0 else coeffs
    for key, c in coeffs.items():
        assert sum(map(size, key)) == m
        assert c == prod(value(sp, lam) for (_, sp), lam in zip(params.entries, key))


def test_hook_identity_up_to_the_coefficient_cap():
    # p_1**n = sum_lam f^lam s_lam, and p_1 = gamma = 1
    for alphas, betas in (
        ((HALF, Fraction(1, 4)), (Fraction(1, 8),)),
        ((Fraction(1, 3),), (Fraction(1, 3), Fraction(1, 3))),
    ):
        sp = Specialization.finite(alphas, betas, 1)
        for n in range(COEFFICIENT_DEGREE_CAP + 1):
            coeffs = trace_coefficients(sp, n)
            assert sum(
                factorial(n) // prod(hook_lengths(lam)) * c for lam, c in coeffs.items()
            ) == 1, n


def test_class_vector_denominator_divides_the_power_sums():
    # each p_k here has a denominator dividing 8**k, so each p_rho / z_rho
    # with |rho| = n has one dividing n! * 8**n; one denominator taken as a
    # power of all the p_k's together would grow with n**2 instead
    sp = Specialization.finite((HALF, Fraction(1, 4)), (Fraction(1, 8),), 1)
    for n in range(COEFFICIENT_DEGREE_CAP + 1):
        assert factorial(n) * 8**n % class_vector(sp.power_pair, n)[0] == 0, n
    # 20! * 8**20, the figure at the degree cap
    assert class_vector(sp.power_pair, COEFFICIENT_DEGREE_CAP)[0].bit_length() == 122
