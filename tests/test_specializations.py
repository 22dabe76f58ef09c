from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hl_reference import apply_reference
from hypothesis import example, given, settings, strategies as st

from fqtraces.partitions import partitions_of, size, transpose
from fqtraces.measures import MeasureParams
from fqtraces.specializations import (
    EMPTY,
    FinitePowerSums,
    GeometricSpread,
    Specialization,
    power_products,
    row_value,
)
from fqtraces.symfunc import PowerSumElement, hl_q_in_p, hl_q_row, plethysm_pl, schur_in_p
from fqtraces.verify import hl_q_by_charge

HALF = Fraction(1, 2)


def test_power_sum_values():
    sp = Specialization.finite((1,), (), 1)
    assert sp.power_sum(5) == 1
    sp = Specialization.finite((), (1,), 1)
    assert sp.power_sum(2) == -1
    assert sp.power_sum(3) == 1
    sp = Specialization.finite((HALF, HALF), (), 1)
    assert sp.power_sum(2) == HALF


def test_finite_form_validation():
    with pytest.raises(ValueError):
        Specialization.finite((HALF, 1), (), 1)  # not decreasing
    with pytest.raises(ValueError):
        Specialization.finite((1,), (HALF,), 1)  # mass above gamma
    with pytest.raises(ValueError):
        Specialization.finite((-1,), (), 1)


def test_schur_values_single_parameter():
    sp_a = Specialization.finite((1,), (), 1)
    assert sp_a.apply(schur_in_p((2,))) == 1
    assert sp_a.apply(schur_in_p((1, 1))) == 0
    sp_b = Specialization.finite((), (1,), 1)
    assert sp_b.apply(schur_in_p((1, 1))) == 1
    assert sp_b.apply(schur_in_p((2,))) == 0


@pytest.mark.parametrize(
    "betas",
    [(Fraction(1),), (HALF, Fraction(1, 4)), (Fraction(1, 3), Fraction(1, 3))],
)
def test_omega_duality(betas):
    # swapping the parameter sides transposes the diagram
    sp_beta = Specialization.finite((), betas, 1)
    sp_alpha = Specialization.finite(betas, (), 1)
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert sp_beta.apply(schur_in_p(lam)) == sp_alpha.apply(
                schur_in_p(transpose(lam))
            )


def test_specialization_is_ring_homomorphism():
    sp = Specialization.finite((HALF,), (Fraction(1, 4),), 1)
    elements = [
        schur_in_p((2,)),
        schur_in_p((1, 1)),
        PowerSumElement({(2, 1): Fraction(3), (1,): Fraction(-1, 2)}),
        PowerSumElement({(4,): 1}),
    ]
    for f, g in product(elements, repeat=2):
        assert sp.apply(f * g) == sp.apply(f) * sp.apply(g)


def test_geometric_spread_examples():
    spread = GeometricSpread((1,), 2)
    assert Fraction(*spread.power_pair(1)) == 1
    assert Fraction(*spread.power_pair(2)) == Fraction(1, 3)
    assert Fraction(*GeometricSpread((), 2).power_pair(3)) == 0
    with pytest.raises(ValueError):
        MeasureParams(GeometricSpread((1, 1), 2), (), 2)  # mass 2 > 1


def test_geometric_spread_matches_truncated_sums():
    # closed form vs explicitly summing many terms of the array
    seq = (HALF, Fraction(1, 4))
    q = Fraction(3)
    spread = GeometricSpread(seq, q)
    for k in (1, 2, 3, 5):
        direct = sum(
            ((1 - 1 / q) * s * q ** (1 - j)) ** k for s in seq for j in range(1, 60)
        )
        closed = Fraction(*spread.power_pair(k))
        assert abs(closed - direct) < Fraction(1, 10**20)


@pytest.mark.parametrize(
    "seq",
    [
        (),
        (0,),
        (1,),
        (HALF, HALF),
        (HALF, Fraction(1, 3), 0),
        (Fraction(3, 4), Fraction(1, 8), Fraction(1, 9), 0, 0),
    ],
)
@pytest.mark.parametrize("q", [Fraction(5, 4), Fraction(2), Fraction(5, 2), Fraction(7)])
def test_spread_frequencies_match_a_sort_of_many_entries(seq, q):
    spread = GeometricSpread(seq, q)
    entries = sorted(
        ((1 - 1 / q) * Fraction(s) * q ** (1 - j) for s in seq for j in range(1, 61)), reverse=True
    )
    for count in (0, 1, 2, 3, 7, 20, 50):
        expected = entries[:count] + [Fraction(0)] * (count - len(entries[:count]))
        assert spread.frequencies(count) == expected


def test_spread_frequencies_sorted():
    spread = GeometricSpread((HALF, Fraction(1, 3)), Fraction(2))
    freqs = spread.frequencies(6)
    assert freqs == sorted(freqs, reverse=True)
    assert freqs[0] == Fraction(1, 4)
    assert GeometricSpread((1,), 2).frequencies(3) == [HALF, Fraction(1, 4), Fraction(1, 8)]


def _finite_power_reference(values, k):
    return sum((v**k for v in values), Fraction(0))


def _spread_power_reference(seq, q, k):
    if not seq:
        return Fraction(0)
    qinv = 1 / q
    return (1 - qinv) ** k * _finite_power_reference(seq, k) / (1 - qinv**k)


@pytest.mark.parametrize(
    "seq",
    [
        (),
        (Fraction(0),),
        (Fraction(1),),
        (HALF, HALF),
        (Fraction(1, 3), Fraction(1, 4), Fraction(1, 6), Fraction(0)),
        (Fraction(3, 4), Fraction(1, 8), Fraction(1, 9), Fraction(1, 9), Fraction(0), Fraction(0)),
    ],
)
@pytest.mark.parametrize("q", [Fraction(2), Fraction(5, 2), Fraction(10001, 10000)])
def test_integer_power_sums_match_fraction_definition(seq, q):
    # the formulas the providers used before they read power sums in integers
    finite, spread = FinitePowerSums(seq), GeometricSpread(seq, q)
    for k in range(1, 17):
        assert Fraction(*finite.power_pair(k)) == _finite_power_reference(seq, k)
        assert Fraction(*spread.power_pair(k)) == _spread_power_reference(seq, q, k)


class _PowerSums:
    """Power sums given by a callable: the full value of p_k for k >= 2, as a pair."""

    def __init__(self, fn):
        self.fn = fn

    def power_pair(self, k):
        value = self.fn(k)
        return value.numerator, value.denominator


def test_plethysm_specialization_identity():
    # composing with index stretching equals the power-twisted parameters
    alphas = (HALF,)
    betas = (Fraction(1, 4), Fraction(1, 8))
    sp = Specialization.finite(alphas, betas, 1)
    for n in (2, 3):
        twisted_beta = [-((-b) ** n) for b in betas]

        def pk(k, n=n):
            return sum(a ** (n * k) for a in alphas) + (-1) ** (k - 1) * sum(
                tb**k for tb in twisted_beta
            )

        gamma = sp.power_sum(n)
        twisted = Specialization(_PowerSums(pk), EMPTY, gamma)
        for deg in range(1, 5):
            for lam in partitions_of(deg):
                f = schur_in_p(lam)
                assert sp.apply(plethysm_pl(f, n)) == twisted.apply(f), (n, lam)


_VALUES = st.lists(st.fractions(0, 1, max_denominator=12), max_size=3).map(
    lambda v: tuple(sorted(v, reverse=True))
)


class _Unreduced:
    """A provider's pairs with numerator and denominator both times ``factor``."""

    def __init__(self, provider, factor):
        self.provider, self.factor = provider, factor

    def power_pair(self, k):
        num, den = self.provider.power_pair(k)
        return num * self.factor, den * self.factor


@st.composite
def _providers(draw):
    values = draw(_VALUES)
    if draw(st.booleans()):
        provider = FinitePowerSums(values)
    else:
        provider = GeometricSpread(values, draw(st.fractions(Fraction(5, 4), 5, max_denominator=4)))
    # the same p_k as a pair not in lowest terms
    if draw(st.booleans()):
        return _Unreduced(provider, draw(st.integers(2, 36)))
    return provider


# Any parameters: apply is a ring homomorphism for every gamma and both
# providers, so the mass constraint of Specialization.finite is not needed.
_SPECIALIZATIONS = st.builds(
    Specialization, _providers(), _providers(), st.fractions(-2, 2, max_denominator=9)
)
_PARTITIONS = st.integers(0, 8).flatmap(lambda n: st.sampled_from(partitions_of(n)))
_ELEMENTS = st.one_of(
    _PARTITIONS.map(schur_in_p),
    st.builds(hl_q_in_p, _PARTITIONS, st.fractions(-1, 1, max_denominator=5)),
    # mixed degrees and lengths, zero and one included
    st.dictionaries(_PARTITIONS, st.fractions(-5, 5, max_denominator=20), max_size=6).map(
        PowerSumElement
    ),
)


_QUARTERS = FinitePowerSums((Fraction(3, 4), Fraction(1, 4)))
_EIGHTHS = FinitePowerSums((Fraction(3, 8), Fraction(1, 8)))


@settings(max_examples=80, deadline=None)
@given(_SPECIALIZATIONS, _ELEMENTS)
# sides over 4 and over 8, with either side unreduced
@example(Specialization(_QUARTERS, _EIGHTHS, Fraction(1)), hl_q_in_p((3, 2, 1), Fraction(1, 3)))
@example(Specialization(_EIGHTHS, _QUARTERS, HALF), schur_in_p((2, 2, 1)))
@example(
    Specialization(_Unreduced(_QUARTERS, 6), GeometricSpread((Fraction(1, 8),), 3), Fraction(1)),
    hl_q_in_p((4, 1), Fraction(-2, 5)),
)
@example(
    Specialization(GeometricSpread((HALF,), Fraction(5, 2)), _Unreduced(_EIGHTHS, 10), Fraction(1)),
    hl_q_in_p((2, 2, 1, 1), Fraction(1, 4)),
)
def test_apply_matches_fraction_reference(sp, f):
    assert sp.apply(f) == apply_reference(sp, f)


# t = 0 (Schur), t = 1 (Q = 0 but for lam = ()), negative t, and t = 1/q as
# the weights and trace values read it
_T_POINTS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 5), Fraction(1, 3)]),
    st.sampled_from([Fraction(2), Fraction(3), Fraction(5, 2), Fraction(10001, 10000)]).map(
        lambda q: 1 / q
    ),
)


@settings(max_examples=50, deadline=None)
@given(_SPECIALIZATIONS, _PARTITIONS, _T_POINTS)
def test_q_row_dot_product_equals_apply_of_the_q_view(sp, lam, t):
    n = size(lam)
    row = hl_q_row(lam, t)
    vector = power_products(sp.power_pair, partitions_of(n))
    assert row_value(row, vector) == sp.apply(hl_q_in_p(lam, t))
    assert hl_q_in_p(lam, t) == hl_q_by_charge(lam, t)
    # D is the least common denominator of the coefficients
    den, coeffs = row
    assert den > 0 and gcd(den, *coeffs) == 1


def test_power_pair_joins_the_sides_over_the_lcm():
    # p_2 = 1/16 - 1/64 = 3/64: over lcm(16, 64), not over their product
    sp = Specialization.finite((Fraction(1, 4),), (Fraction(1, 8),), 1)
    assert sp.power_pair(2) == (3, 64)
    assert sp.power_pair(3) == (9, 512)
    assert sp.power_pair(1) == (1, 1)
