import gc
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction
from math import sqrt

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fqtraces import measures, verify
from fqtraces.measures import (
    CHAIN_LEVEL_CAP,
    EXACT_HL_DEGREE_CAP,
    MeasureParams,
    _Delta,
    _Generic,
    _Haar,
    _Row,
    _mean_stderr,
    _trial_rng,
    _trial_variates,
    cyl_prob,
    cyl_prob_from_trace,
    extension_count,
    hl_weight,
    lln_experiment,
    sample_trajectory,
    transition_distribution,
)
from fqtraces.partitions import add_box, addable_corners, box_additions, n_stat, partitions_of, size
from fqtraces.specializations import (
    FinitePowerSums,
    GeometricSpread,
    Specialization,
    power_products,
)
from fqtraces.symfunc import _hl_q, hl_q_in_p, hl_q_row
from fqtraces.traces import UNIT, family, unipotent_block_value, unipotent_trace_value
from hl_reference import block_value_reference

HALF = Fraction(1, 2)
HAAR2 = MeasureParams.haar(2)
HAAR3 = MeasureParams.haar(3)
DELTA2 = MeasureParams.delta_identity(2)
ROW2 = MeasureParams.single_row(2)
MIXED = MeasureParams((Fraction(1, 4),), (Fraction(1, 4),), 2)
# two row variables of total mass 1: the weight vanishes beyond two rows
TWO_ROWS = MeasureParams((HALF, HALF), (), 2)


def test_extension_count_examples():
    assert extension_count((), (1,), 7) == 1
    assert extension_count((1,), (2,), 2) == 1
    assert extension_count((1,), (1, 1), 2) == 1
    # lam = (2,1), n = 3: successors split 8 = 4 + 2 + 2
    assert extension_count((2, 1), (3, 1), 2) == 4
    assert extension_count((2, 1), (2, 2), 2) == 2
    assert extension_count((2, 1), (2, 1, 1), 2) == 2
    # lam = (2,), q = 3: 9 = 6 + 3
    assert extension_count((2,), (3,), 3) == 6
    assert extension_count((2,), (2, 1), 3) == 3
    with pytest.raises(ValueError):
        extension_count((2,), (2,), 2)


def test_extension_count_non_cover_is_zero():
    assert extension_count((2,), (1, 1, 1), 2) == 0
    assert extension_count((2, 2), (3, 2)[:1] + (1, 1), 2) == 0


def test_extension_counts_total_q_to_n():
    for q in (2, 3):
        for n in range(0, 9):
            for lam in partitions_of(n):
                total = sum(
                    extension_count(lam, mu, q) for mu in partitions_of(n + 1)
                )
                assert total == q**n


def test_params_validation():
    with pytest.raises(ValueError):
        MeasureParams((HALF, HALF, HALF), (), 2)  # mass 3/2
    with pytest.raises(ValueError):
        MeasureParams((), (HALF, Fraction(3, 4)), 2)  # not decreasing
    with pytest.raises(ValueError):
        MeasureParams((), (), 1)


def test_cyl_prob_examples():
    assert cyl_prob(MIXED, (1,)) == 1
    assert cyl_prob(DELTA2, (1, 1, 1)) == 1
    assert cyl_prob(DELTA2, (2, 1)) == 0
    for n in range(0, 9):
        for lam in partitions_of(n):
            assert cyl_prob(HAAR2, lam) == Fraction(2) ** (-(n * (n - 1)) // 2)


def _weight_by_fractions(params, lam):
    """W(lam) as a composition of Fractions: the closed forms, else the specialized Q."""
    q, n = params.q, size(lam)
    keep = 1 - 1 / q
    family = params.family
    if isinstance(family, _Haar):
        return keep**n / q ** n_stat(lam)
    if isinstance(family, _Delta):
        return keep**n if not lam or lam[0] == 1 else Fraction(0)
    if isinstance(family, _Row):
        return Fraction(0) if len(lam) > 1 else keep if lam else Fraction(1)
    return params.specialization().apply(hl_q_in_p(lam, 1 / q))


# every family, at integer q and at q = a/b with b > 1
PAIR_GRID = [
    HAAR2,
    MeasureParams.haar(Fraction(5, 4)),
    DELTA2,
    MeasureParams.delta_identity(Fraction(7, 3)),
    ROW2,
    MeasureParams.single_row(Fraction(10001, 10000)),
    MIXED,
    TWO_ROWS,
    MeasureParams(GeometricSpread((HALF, Fraction(1, 4)), Fraction(7, 3)), (Fraction(1, 8),), Fraction(7, 3)),
]


@pytest.mark.parametrize("params", PAIR_GRID)
def test_cyl_prob_equals_the_fraction_composition(params):
    # the composition the integer prefactor replaces:
    # q**-e / (1 - 1/q)**n * q**n(lam) * W(lam), e = n(n-1)/2
    q = params.q
    for n in range(9):
        for lam in partitions_of(n):
            weight = _weight_by_fractions(params, lam)
            assert params.family.weight(lam) == weight, lam
            expected = q ** -(n * (n - 1) // 2) / (1 - 1 / q) ** n * q ** n_stat(lam) * weight
            assert cyl_prob(params, lam) == expected, lam


def test_cyl_prob_from_trace_equals_the_fraction_composition():
    for sp, q in (
        (Specialization.finite((HALF, Fraction(1, 4)), (Fraction(1, 8),), 1), Fraction(2)),
        (Specialization(GeometricSpread((Fraction(1, 3),), 3), FinitePowerSums((HALF,)), 1), Fraction(5, 2)),
    ):
        for n in range(6):
            for lam in partitions_of(n):
                expected = q ** -(n * (n - 1) // 2) * block_value_reference(sp, 1, lam, q)
                assert cyl_prob_from_trace(sp, lam, q) == expected, lam


@pytest.mark.parametrize("params", PAIR_GRID)
def test_generic_successor_weights_are_integers_sharing_one_factor(params):
    # the generic route for every parameter set: integer weights, each the
    # Fraction weight times one positive factor of the level
    family = _Generic(params)
    for n in range(1, 8):
        lams = partitions_of(n)
        weights = family.weights(n, lams)
        assert all(type(w) is int for w in weights)
        expected = [_weight_by_fractions(params, lam) for lam in lams]
        assert [w == 0 for w in weights] == [not x for x in expected], n
        factors = {w / x for w, x in zip(weights, expected) if x}
        assert len(factors) == 1 and factors.pop() > 0, n


def test_haar_weight_identity_generic_path():
    from fqtraces.partitions import n_stat

    for params, q in ((HAAR2, 2), (HAAR3, 3)):
        for n in range(0, 8):
            for lam in partitions_of(n):
                closed = (1 - Fraction(1, q)) ** n / Fraction(q) ** n_stat(lam)
                assert hl_weight(params, lam) == closed


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "make", [MeasureParams.haar, MeasureParams.delta_identity, MeasureParams.single_row]
)
def test_closed_form_family_matches_generic_route(make, q):
    params = make(q)
    family, generic = params.family, _Generic(params)
    for n in range(0, 8):
        for lam in partitions_of(n):
            w = hl_weight(params, lam)
            assert family.weight(lam) == w, lam
            if not w > 0:
                continue
            _, den, nums = family.row(lam)
            _, generic_den, generic_nums = generic.row(lam)
            assert [Fraction(num, den) for num in nums] == [
                Fraction(num, generic_den) for num in generic_nums
            ], lam


def test_family_resolution():
    cases = [
        (MeasureParams.haar(2), MeasureParams(GeometricSpread((1,), 2), (), 2), _Haar),
        (MeasureParams.delta_identity(2), MeasureParams((), (1,), 2), _Delta),
        (MeasureParams.single_row(3), MeasureParams((1,), (), 3), _Row),
    ]
    for named, custom, kind in cases:
        assert named == custom
        assert type(named.family) is kind and type(custom.family) is kind
        assert not isinstance(named.family, _Generic)
    near_misses = [
        MIXED,
        MeasureParams(GeometricSpread((1,), 3), (), 2),
        MeasureParams(GeometricSpread((HALF,), 2), (), 2),
        MeasureParams((), (HALF,), 2),
        MeasureParams((HALF, HALF), (), 2),
    ]
    for params in near_misses:
        assert type(params.family) is _Generic


def test_family_stays_out_of_eq_hash_repr():
    for params in (HAAR2, DELTA2, MIXED):
        assert hash(params) == hash((params.r, params.c, params.q))
    assert repr(HAAR2) == (
        "MeasureParams(r=GeometricSpread(seq=(Fraction(1, 1),), q=Fraction(2, 1)), "
        "c=(), q=Fraction(2, 1))"
    )
    assert repr(MIXED) == (
        "MeasureParams(r=FinitePowerSums(values=(Fraction(1, 4),)), "
        "c=(Fraction(1, 4),), q=Fraction(2, 1))"
    )


def test_one_specialization_per_params_reads_each_power_sum_once(monkeypatch):
    # the providers' power_pair is counted per (provider kind, k); one apply
    # reads each p_k it needs once, and keeps none for the next call
    params = MeasureParams((Fraction(1, 4),), (Fraction(1, 4),), Fraction(7, 3))
    reads = Counter()
    for kind in (FinitePowerSums, GeometricSpread):
        def counted(self, k, power_pair=kind.power_pair, kind=kind):
            reads[kind.__name__, k] += 1
            return power_pair(self, k)

        monkeypatch.setattr(kind, "power_pair", counted)
    sp = params.specialization()
    assert sp is params.specialization()
    assert (sp.alpha, sp.beta, sp.gamma) == (params.r, GeometricSpread(params.c, params.q), 1)
    kinds = ("FinitePowerSums", "GeometricSpread")
    for lam in partitions_of(6):
        f = hl_q_in_p(lam, 1 / params.q)
        ks = {k for rho in f.terms for k in rho if k > 1}
        for calls in (1, 2):
            sp.apply(f)
            assert reads == {(kind, k): calls for kind in kinds for k in ks}, (lam, calls)
        reads.clear()


def test_equal_params_share_one_hash_and_one_hl_weight_entry():
    hl_weight.cache_clear()
    first = MeasureParams((Fraction(1, 4),), (Fraction(1, 4),), 2)
    second = MeasureParams([Fraction(1, 4)], [Fraction(2, 8)], Fraction(2))
    assert first == second and first is not second and hash(first) == hash(second)
    weight = hl_weight(first, (2, 1))
    assert hl_weight(second, (2, 1)) is weight
    info = hl_weight.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert weight == first.specialization().apply(hl_q_in_p((2, 1), HALF))


def test_a_generic_row_builds_one_vector_per_level_and_keeps_none(monkeypatch):
    hl_weight.cache_clear()
    params = MeasureParams((Fraction(1, 4),), (Fraction(1, 8),), Fraction(5, 2))
    sp = params.specialization()
    levels = []

    def counted(pair, rhos):
        levels.append(size(rhos[0]))
        return power_products(pair, rhos)

    monkeypatch.setattr(measures, "power_products", counted)
    lam = (3, 1)
    row = transition_distribution(params, lam)
    # three successors, one vector of their level; the source's weight
    # comes from theirs, so its level is not read
    assert len(row) == 3 and levels == [5]
    # neither the row's weights nor a single weight fill a memo
    assert hl_weight.cache_info().currsize == 0
    cyl_prob(params, (2, 2))
    assert hl_weight.cache_info().currsize == 0
    assert set(vars(sp)) == {"alpha", "beta", "gamma"}


def test_parameter_sets_die_with_their_last_reference():
    # no memo keyed by parameters outlives them: not the cylinder
    # probability's weight, nor the transition row kept on the family
    refs = []
    for i in range(50):
        params = MeasureParams((Fraction(1, 4 + i),), (Fraction(1, 8),), 2 + i % 3)
        cyl_prob(params, (2, 1))
        transition_distribution(params, (2, 1))
        refs.append(weakref.ref(params))
    del params
    gc.collect()
    assert sum(ref() is not None for ref in refs) == 0


def test_cyl_prob_positivity_grid():
    grid = [
        MeasureParams((Fraction(1, 4),), (Fraction(1, 4),), 2),
        MeasureParams((HALF, Fraction(1, 4)), (), 2),
        MeasureParams((), (HALF, Fraction(1, 4)), 3),
        MeasureParams((Fraction(1, 3),), (Fraction(1, 3), Fraction(1, 6)), 2),
        MeasureParams((), (), 2),
    ]
    for params in grid:
        for n in range(0, 9):
            for lam in partitions_of(n):
                assert cyl_prob(params, lam) >= 0, (params, lam)


SIDE = st.lists(st.fractions(0, 1, max_denominator=6), max_size=2).map(
    lambda values: tuple(sorted(values, reverse=True))
)
Q_VALUES = st.sampled_from([Fraction(2), Fraction(3), Fraction(4), Fraction(5, 2)])


@st.composite
def two_sides(draw):
    """Two finite weakly decreasing frequency tuples of total mass at most 1."""
    sides = draw(SIDE), draw(SIDE)
    assume(sum(sides[0]) + sum(sides[1]) <= 1)
    return sides


MEASURES = st.builds(lambda sides, q: MeasureParams(*sides, q), two_sides(), Q_VALUES)


@settings(deadline=None, max_examples=10)
@given(MEASURES, st.integers(0, 6))
@example(HAAR2, 10)
@example(HAAR3, 10)
@example(DELTA2, 10)
@example(ROW2, 10)
@example(MIXED, 7)
def test_consistency_cyl_equals_extension_sum(params, top):
    for n in range(0, top + 1):
        for lam in partitions_of(n):
            total = sum(
                extension_count(lam, mu, params.q) * cyl_prob(params, mu)
                for mu in partitions_of(n + 1)
            )
            assert total == cyl_prob(params, lam), (params, lam)


def test_cyl_prob_from_trace_examples():
    sp = Specialization.finite((1,), (), 1)
    assert cyl_prob_from_trace(sp, (1,), 5) == 1
    assert cyl_prob_from_trace(sp, (1, 1), 2) == HALF
    with pytest.raises(ValueError):
        cyl_prob_from_trace(Specialization.finite((HALF,), (), HALF), (1,), 2)


@settings(deadline=None, max_examples=25)
@given(two_sides(), Q_VALUES, st.integers(0, 6))
@example(((Fraction(1),), ()), 2, 5)
@example(((), (Fraction(1),)), 2, 5)
@example(((HALF, HALF), ()), 2, 5)
@example(((Fraction(1, 4),), (Fraction(1, 4),)), 2, 5)
@example(((Fraction(1),), ()), 3, 5)
@example(((), (Fraction(1),)), 3, 5)
@example(((HALF, HALF), ()), 3, 5)
@example(((Fraction(1, 4),), (Fraction(1, 4),)), 3, 5)
def test_trace_measure_parameter_map(sides, q, top):
    # cyl_prob under r = spread(alpha), c = beta equals the normalized trace value
    alphas, betas = sides
    sp = Specialization.finite(alphas, betas, 1)
    params = MeasureParams(GeometricSpread(alphas, q), betas, q)
    for n in range(0, top + 1):
        for lam in partitions_of(n):
            assert cyl_prob_from_trace(sp, lam, q) == cyl_prob(params, lam)


def test_transition_distribution_examples():
    assert transition_distribution(HAAR2, (1,)) == [((2,), HALF), ((1, 1), HALF)]
    assert dict(transition_distribution(HAAR3, (1,)))[(2,)] == Fraction(2, 3)
    assert dict(transition_distribution(DELTA2, (1, 1)))[(1, 1, 1)] == 1
    assert transition_distribution(MIXED, ()) == [((1,), 1)]
    with pytest.raises(ValueError):
        transition_distribution(DELTA2, (2,))


def test_transition_distribution_takes_a_list():
    # the diagram is checked and made a tuple first, as in cyl_prob; a list
    # used to raise TypeError under Haar
    for params, lam in ((HAAR2, (2, 1)), (DELTA2, (1, 1)), (ROW2, (2,)), (MIXED, (2, 1))):
        assert transition_distribution(params, list(lam)) == transition_distribution(params, lam)


def test_transition_matches_direct_cylinder_ratio():
    for params in (HAAR2, DELTA2, ROW2, MIXED):
        for n in range(0, 6):
            for lam in partitions_of(n):
                if not params.family.weight(lam) > 0:
                    continue
                for mu, p in transition_distribution(params, lam):
                    direct = (
                        extension_count(lam, mu, params.q)
                        * cyl_prob(params, mu)
                        / cyl_prob(params, lam)
                    )
                    assert p == direct


def test_transition_rows_sum_to_one():
    for params in (HAAR2, HAAR3, MIXED):
        for n in range(0, 8):
            for lam in partitions_of(n):
                if not params.family.weight(lam) > 0:
                    continue
                assert sum(p for _, p in transition_distribution(params, lam)) == 1


@pytest.mark.parametrize("params, top", [(HAAR2, 9), (HAAR3, 9), (MIXED, 7), (TWO_ROWS, 7)])
def test_rows_ignore_a_common_factor_of_the_weights(params, top):
    # the builder divides by the successors' total, so weights scaled by one
    # positive constant give the very same integers
    scaled = type(params.family)(params)
    weights = scaled.weights
    scaled.weights = lambda n, lams: [Fraction(7, 3) * w for w in weights(n, lams)]
    for n in range(top + 1):
        for lam in partitions_of(n):
            if params.family.weight(lam) > 0:
                assert scaled.row(lam) == params.family.row(lam), lam


def test_growth_normalization_catches_a_swapped_row(monkeypatch):
    # a row with two entries swapped still sums to one; the suite holds it
    # against the cylinder ratios and must fail
    def swapped(params, lam):
        row = transition_distribution(params, lam)
        if lam == (2, 1):
            (mu0, p0), (mu1, p1) = row[:2]
            row[:2] = [(mu0, p1), (mu1, p0)]
        return row

    monkeypatch.setattr(verify, "transition_distribution", swapped)
    rows = verify.run_suite("growth-normalization")
    failed = {row["instance"] for row in rows if row["status"] == "fail"}
    assert failed == {row["instance"] for row in rows} - {"delta-q2-to-20", "single-row-q2-to-20"}


@st.composite
def partition_strategy(draw, max_n=24):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return ()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


@given(partition_strategy())
def test_haar_normalization_on_random_partitions(lam):
    assert sum(p for _, p in transition_distribution(HAAR2, lam)) == 1
    assert sum(p for _, p in transition_distribution(HAAR3, lam)) == 1


def check_row(params: MeasureParams, lam):
    """Integer row: non-negative, sums to its denominator, equals N * cyl(mu) / cyl(lam)."""
    successors, den, nums = params.family.row(lam)
    assert den > 0 and all(num >= 0 for num in nums) and sum(nums) == den, (params, lam)
    assert successors == [mu for mu, _ in box_additions(lam)]
    assert len(nums) == len(successors)
    source = cyl_prob(params, lam)
    for mu, num in zip(successors, nums):
        direct = extension_count(lam, mu, params.q) * cyl_prob(params, mu) / source
        assert Fraction(num, den) == direct, (params, lam, mu)


@settings(deadline=None)
@given(partition_strategy(max_n=60), st.sampled_from([2, 3, Fraction(5, 2)]))
def test_closed_form_rows_on_random_partitions(lam, q):
    # delta and single-row stand only on one column and one row
    n = size(lam)
    check_row(MeasureParams.haar(q), lam)
    check_row(MeasureParams.delta_identity(q), (1,) * n)
    check_row(MeasureParams.single_row(q), (n,) if n else ())


@settings(deadline=None)
@given(partition_strategy(max_n=8))
def test_generic_rows_on_random_partitions(lam):
    check_row(MIXED, lam)


def test_generic_rows_are_built_once(monkeypatch):
    # a second request for the same row reads the kept one and builds no
    # vector of p_rho
    params = MeasureParams((Fraction(1, 3),), (Fraction(1, 5),), 3)
    calls = []

    def counted(pair, rhos):
        calls.append(size(rhos[0]))
        return power_products(pair, rhos)

    monkeypatch.setattr(measures, "power_products", counted)
    first = transition_distribution(params, (3, 1))
    assert calls == [5]
    assert transition_distribution(params, (3, 1)) == first
    assert calls == [5]


def test_successors_are_kept_with_the_row(monkeypatch):
    # the first request finds the corners once; a second request and a step
    # from the same diagram read the kept successors
    params = MeasureParams((Fraction(1, 3),), (Fraction(1, 5),), 3)
    calls = []

    def counted(lam):
        calls.append(lam)
        return addable_corners(lam)

    monkeypatch.setattr(measures, "addable_corners", counted)
    first = transition_distribution(params, (3, 1))
    assert calls == [(3, 1)]
    assert transition_distribution(params, (3, 1)) == first
    assert params.family.step((3, 1), 2**63) in [mu for mu, _ in first]
    assert calls == [(3, 1)]


@pytest.mark.parametrize("params", [HAAR2, DELTA2, ROW2, MIXED, TWO_ROWS])
def test_successors_in_box_additions_order(params):
    for n in range(9):
        for lam in partitions_of(n):
            if params.family.weight(lam) > 0:
                successors = [mu for mu, _ in box_additions(lam)]
                assert params.family.row(lam)[0] == successors, lam
                assert [mu for mu, _ in transition_distribution(params, lam)] == successors


@pytest.mark.parametrize(
    "params, lam",
    [(DELTA2, (2,)), (DELTA2, (2, 1)), (ROW2, (1, 1)), (ROW2, (3, 2)), (TWO_ROWS, (1, 1, 1))],
)
def test_zero_probability_source_raises(params, lam):
    assert params.family.weight(lam) == 0
    with pytest.raises(ValueError, match="zero probability"):
        params.family.row(lam)
    with pytest.raises(ValueError, match="zero probability"):
        transition_distribution(params, lam)
    with pytest.raises(ValueError, match="zero probability"):
        params.family.step(lam, 0)


def test_degree_cap_raises_for_generic_params():
    lam = (1,) * (EXACT_HL_DEGREE_CAP + 1)
    with pytest.raises(ValueError):
        hl_weight(MIXED, lam)
    # closed-form families keep working far beyond the cap
    assert cyl_prob(DELTA2, (1,) * 30) == 1


def test_the_q_memo_serves_both_routes_under_one_key_per_t():
    # the library's readers and the checked entry share one entry per
    # (lam, t), t in lowest terms, whatever form t was given in
    lam = (3, 2, 1)
    _hl_q.cache_clear()
    cyl_prob(MIXED, lam)
    sp = Specialization.finite((Fraction(1, 3),), (Fraction(1, 5),), 1)
    reads = [
        lambda: hl_q_row(lam, Fraction(2, 4)),
        lambda: hl_q_row(lam, "1/2"),
        lambda: hl_q_row(lam, 0.5),
        lambda: unipotent_block_value(sp, 1, lam, 2),
    ]
    for read in reads:
        before = _hl_q.cache_info()
        read()
        after = _hl_q.cache_info()
        assert after.hits > before.hits and after.currsize == before.currsize
    # q = 5/2 at d = 2 reads the row of t = q**-2 = 4/25
    _hl_q.cache_clear()
    hl_q_row(lam, Fraction(4, 25))
    before = _hl_q.cache_info()
    unipotent_block_value(sp, 2, lam, Fraction(5, 2))
    after = _hl_q.cache_info()
    assert after.hits > before.hits and after.currsize == before.currsize


def test_internal_q_readers_refuse_above_the_cap_and_keep_nothing():
    # the memo's own check refuses for readers that skip hl_q_row, before
    # any row, tails included, is built
    too_big = (1,) * (EXACT_HL_DEGREE_CAP + 1)
    sp = Specialization.finite((Fraction(1, 3),), (), 1)
    for refused in (
        lambda: cyl_prob(MIXED, too_big),
        lambda: transition_distribution(MIXED, (1,) * EXACT_HL_DEGREE_CAP),
        lambda: unipotent_trace_value(sp, family((UNIT, 1, too_big)), 2),
    ):
        _hl_q.cache_clear()
        hl_q_row((2, 1), HALF)
        size_before = _hl_q.cache_info().currsize
        with pytest.raises(ValueError, match=f"capped at degree {EXACT_HL_DEGREE_CAP}"):
            refused()
        assert _hl_q.cache_info().currsize == size_before


def test_hl_weight_generic_at_degree_13():
    # above the former cap of 12: a degree-12 cylinder still splits over its
    # one-box extensions, every one of which needs a degree-13 weight
    lam = (4, 3, 2, 2, 1)
    assert all(hl_weight(MIXED, mu) > 0 for mu, _ in box_additions(lam))
    total = sum(
        extension_count(lam, mu, MIXED.q) * cyl_prob(MIXED, mu)
        for mu, _ in box_additions(lam)
    )
    assert total == cyl_prob(MIXED, lam)


def reference_step(params: MeasureParams, lam, rng):
    """One growth step in Fraction arithmetic: u = getrandbits(64) / 2**64
    against the cumulative sums of :func:`transition_distribution`."""
    u = Fraction(rng.getrandbits(64), 2**64)
    acc = Fraction(0)
    dist = transition_distribution(params, lam)
    for mu, p in dist:
        acc += p
        if u < acc:
            return mu
    return dist[-1][0]


def reference_trajectory(params: MeasureParams, n_max: int, seed: int) -> list:
    rng = _trial_rng(seed, 0)
    lam = ()
    out = [lam]
    for _ in range(n_max):
        lam = reference_step(params, lam, rng)
        out.append(lam)
    return out


class FixedBits:
    def __init__(self, u: int):
        self.u = u

    def getrandbits(self, k: int) -> int:
        return self.u


def threshold_variates(den: int, nums: list[int]) -> set[int]:
    """0, 2**64 - 1, and the grid points on either side of every cumulative threshold."""
    us = {0, 2**64 - 1}
    acc = 0
    for num in nums:
        acc += num
        u0 = -(-(acc << 64) // den)  # the least u with u / 2**64 >= acc / den
        us.update(u for u in (u0 - 1, u0) if 0 <= u < 2**64)
    return us


def test_step_at_threshold_grid_points():
    # the row out of (2, 1) at q = 2 is 1/2, 1/4, 1/4: a variate exactly on
    # a cumulative threshold belongs to the next successor
    expected = {
        0: (3, 1),
        2**63 - 1: (3, 1),
        2**63: (2, 2),
        3 * 2**62 - 1: (2, 2),
        3 * 2**62: (2, 1, 1),
        2**64 - 1: (2, 1, 1),
    }
    for u, mu in expected.items():
        assert HAAR2.family.step((2, 1), u) == mu == reference_step(HAAR2, (2, 1), FixedBits(u))
    # on both sides of every threshold of every row up to degree 7, each
    # family's own step, the Fraction reference and the generic route's
    # search over its kept row pick the same successor
    for q in (2, 3, Fraction(5, 2), Fraction(5, 4), Fraction(10001, 10000), 2**64 + 1):
        for make in (MeasureParams.haar, MeasureParams.delta_identity, MeasureParams.single_row):
            params = make(q)
            generic = _Generic(params)
            for n in range(8):
                for lam in partitions_of(n):
                    if not params.family.weight(lam) > 0:
                        continue
                    for u in threshold_variates(*params.family.row(lam)[1:]):
                        mu = params.family.step(lam, u)
                        assert mu == reference_step(params, lam, FixedBits(u)), (params, lam, u)
                        assert mu == generic.step(lam, u), (params, lam, u)


# Haar q values whose tables of bounds stop at S_r = 2**64 early (q >= 2,
# and 5/4 at r = 199) and one that runs to the level cap (10001/10000)
HAAR_QS = (2, 3, Fraction(5, 4), Fraction(10001, 10000), 2**64 + 1)


def haar_diagrams() -> list:
    """Diagrams of 1 to 2000 rows in blocks of equal rows, shortest first."""
    rng = random.Random(21)
    out = [tuple(sorted((rng.randint(1, 6) for _ in range(rows)), reverse=True))
           for rows in (1, 2, 3, 41, 42, 64, 65, 66, 199, 200, 2000)]
    return out + [(1,) * 2000, (5,) * 2000]


def haar_threshold_variates(q: Fraction, ell: int) -> set[int]:
    """0, 2**64 - 1, and u on both sides of the Haar thresholds of some rows r <= ell.

    With v = 2**64 - u the test at r flips between v = T_r and v = T_r + 1,
    T_r = floor(2**64 * b**r / a**r); every r up to 200 is taken, then
    every 101st and the last two.
    """
    a, b = q.numerator, q.denominator
    us = {0, 2**64 - 1}
    for r in {*range(1, min(ell, 200) + 1), *range(1, ell + 1, 101), ell - 1, ell}:
        if r >= 1:
            t = (b**r << 64) // a**r
            us.update(2**64 - v for v in (t, t + 1) if 1 <= v <= 2**64)
    return us


def linear_scan_step(q: Fraction, lam, u: int):
    """The Haar step from the first r = 1, 2, ... with b**r << 64 < v * a**r."""
    a, b = q.numerator, q.denominator
    v = 2**64 - u
    b_pow = a_pow = 1
    for r in range(1, len(lam) + 1):
        b_pow *= b
        a_pow *= a
        if b_pow << 64 < v * a_pow:
            # the box goes to the top row of the block holding row r - 1
            top = r - 1
            while top and lam[top - 1] == lam[r - 1]:
                top -= 1
            return add_box(lam, top + 1)
    return lam + (1,)


@pytest.mark.parametrize("q", HAAR_QS)
def test_haar_step_matches_a_linear_scan(q):
    q = Fraction(q)
    family = MeasureParams.haar(q).family
    for lam in haar_diagrams():
        for u in haar_threshold_variates(q, len(lam)):
            assert family.step(lam, u) == linear_scan_step(q, lam, u), (q, len(lam), u)


@pytest.mark.parametrize("q", HAAR_QS)
def test_haar_step_at_a_long_diagram_then_short_ones(q):
    # the table built for 2000 rows also answers diagrams of fewer rows
    q = Fraction(q)
    family = MeasureParams.haar(q).family
    assert family.step((1,) * 2000, 2**63) == linear_scan_step(q, (1,) * 2000, 2**63)
    for lam in haar_diagrams():
        if len(lam) == 2000:
            continue
        for u in haar_threshold_variates(q, len(lam)):
            assert family.step(lam, u) == linear_scan_step(q, lam, u), (q, len(lam), u)


@pytest.mark.parametrize(
    "q, entries", [(2, 66), (3, 42), (Fraction(5, 4), 200), (Fraction(10001, 10000), 2001), (2**64 + 1, 2)]
)
def test_haar_threshold_table_bounds(q, entries):
    # bounds S_r for r = 0 .. rows stepped, stopped at the first S_r = 2**64
    params = MeasureParams.haar(q)
    trajectory = sample_trajectory(params, CHAIN_LEVEL_CAP, 1)
    table = params.family.bounds
    assert len(table) == min(max(map(len, trajectory[:-1])) + 1, entries)
    # a diagram of CHAIN_LEVEL_CAP rows, the most a capped chain reaches
    params.family.step((1,) * CHAIN_LEVEL_CAP, 0)
    assert len(table) == entries <= CHAIN_LEVEL_CAP + 1
    # weakly: near the end floor(2**64 * b**r / a**r) can repeat (5/4 at r = 194-198)
    assert table[0] == 0 and all(x <= y <= 2**64 for x, y in zip(table, table[1:]))
    assert (table[-1] == 2**64) == (entries < CHAIN_LEVEL_CAP + 1)
    assert sys.getsizeof(table) + sum(map(sys.getsizeof, table)) < 90_000


# the entries at which each table of HAAR_QS stops, at its first S_r = 2**64;
# at q = 10001/10000 that is far past the level cap
HAAR_TABLE_ENTRIES = {2: 66, 3: 42, Fraction(5, 4): 200, Fraction(10001, 10000): None, 2**64 + 1: 2}
TOP = 2**64 - 1
LONG_START = (3,) * 70 + (2,) * 130 + (1,) * 50

# name: (start, variates, steps that add a row at every q but 2**64 + 1).
# TOP adds a row wherever the table has not stopped below the diagram's
# rows; 0 adds a box to the first row of a diagram that has one.
HAAR_WALKS = {
    "every-step-adds-a-row": ((), (TOP,) * 40, 40),
    "no-step-adds-a-row": ((4, 2, 2, 1), (0,) * 40, 0),
    "alternating": ((), (TOP, 0) * 20 + (TOP,), 21),
    "start-longer-than-the-table": (LONG_START, (TOP, 0, 2**63) * 10, None),
}


def haar_table_size(q, diagrams) -> int:
    """The entries a fresh table holds once a walk has been at ``diagrams``.

    One bound per row of the longest, with S_0, up to the first S_r = 2**64.
    """
    rows = max(map(len, diagrams)) + 1
    return min(rows, HAAR_TABLE_ENTRIES[q] or rows)


@pytest.mark.parametrize("name", HAAR_WALKS)
@pytest.mark.parametrize("q", HAAR_QS)
def test_haar_walk_on_crafted_variates(q, name):
    q = Fraction(q)
    start, us, adds = HAAR_WALKS[name]
    family = MeasureParams.haar(q).family
    out = []
    assert family.walk(start, us, out) == out[-1]
    expected, lam = [], start
    for u in us:
        lam = linear_scan_step(q, lam, u)
        expected.append(lam)
    assert out == expected
    grown = sum(len(b) > len(a) for a, b in zip([start, *out], out))
    if adds is not None:
        # at q = 2**64 + 1 the table is [0, 2**64]: only the empty diagram grows a row
        assert grown == (min(adds, 1) if q == 2**64 + 1 else adds)
    # one bound per row of every diagram the walk was at, the last included,
    # up to the first S_r = 2**64
    assert len(family.bounds) == haar_table_size(q, [start, *out])
    if q == 2**64 + 1:
        assert family.bounds == [0, 2**64]


@pytest.mark.parametrize("q", HAAR_QS)
def test_a_haar_walk_of_no_steps_leaves_the_table_unchanged(q):
    family = MeasureParams.haar(q).family
    out = []
    assert family.walk((), (), out) == () and out == []
    assert family.bounds == [0]
    trajectory = [()]
    family.walk((), (TOP, 0) * 30, trajectory)
    table = list(family.bounds)
    assert len(table) == haar_table_size(Fraction(q), trajectory)
    for lam in ((), (2, 1), trajectory[-1]):
        assert family.walk(lam, (), out) == lam and out == []
        assert family.bounds == table


@pytest.mark.parametrize(
    "params, n_max",
    [
        (HAAR2, 300),
        (HAAR3, 300),
        (MeasureParams.haar(Fraction(5, 2)), 300),
        (DELTA2, 300),
        (ROW2, 300),
        (MIXED, 12),
        (MeasureParams.haar(Fraction(5, 4)), 300),
        (MeasureParams.haar(Fraction(10001, 10000)), 300),
        (MeasureParams.haar(2**64 + 1), 300),
    ],
)
def test_trajectory_matches_fraction_reference(params, n_max):
    for seed in (0, 1, 2, 424242):
        assert sample_trajectory(params, n_max, seed) == reference_trajectory(params, n_max, seed)


def test_deterministic_chains():
    assert sample_trajectory(DELTA2, 5, 3) == [
        (),
        (1,),
        (1, 1),
        (1, 1, 1),
        (1, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]
    assert sample_trajectory(ROW2, 4, 11) == [(), (1,), (2,), (3,), (4,)]


# every family's walk: Haar with short (q = 2, 3), middling (5/4) and long
# (10001/10000) tables of bounds, the delta and single-row chains, and one
# generic parameter set, up to its degree cap
WALKS = {
    **{f"haar-{q}": MeasureParams.haar(q) for q in (2, 3, Fraction(5, 4), Fraction(10001, 10000))},
    "delta": DELTA2,
    "single-row": ROW2,
    "generic": MeasureParams((HALF, Fraction(1, 4)), (Fraction(1, 8),), 2),
}


def folded_steps(family, lam, us) -> list:
    """The diagrams after each of the variates us, one ``step`` call each."""
    out = []
    for u in us:
        lam = family.step(lam, u)
        out.append(lam)
    return out


def test_step_is_defined_once():
    for kind in (_Generic, _Haar, _Delta, _Row):
        assert kind.step is measures._Family.step


@pytest.mark.parametrize("name", WALKS)
def test_walk_equals_folding_step(name):
    family = WALKS[name].family
    n = 12 if isinstance(family, _Generic) else 300
    us = _trial_variates(5, 0, n)
    expected = folded_steps(family, (), us)
    # from the empty diagram: out receives exactly the stepped diagrams, as
    # tuples, after what it held
    out = ["kept"]
    assert family.walk((), us, out) == expected[-1]
    assert out == ["kept", *expected]
    assert family.walk((), us) == expected[-1]
    # from a diagram halfway, on other variates
    start = expected[n // 2 - 1]
    us = _trial_variates(6, 0, n - n // 2)
    expected = folded_steps(family, start, us)
    out = []
    assert family.walk(start, us, out) == expected[-1]
    assert out == expected
    # no variates: the start comes back and nothing is appended
    for lam in ((), start):
        out = []
        assert family.walk(lam, (), out) == lam
        assert out == []


@pytest.mark.parametrize("params, lam", [(DELTA2, (2, 1)), (ROW2, (1, 1)), (TWO_ROWS, (1, 1, 1))])
def test_walk_from_a_zero_source_appends_nothing(params, lam):
    out = []
    with pytest.raises(ValueError, match="zero probability"):
        params.family.walk(lam, _trial_variates(1, 0, 5), out)
    assert out == []


def test_delta_chains_share_one_bounded_table_of_columns():
    long = sample_trajectory(MeasureParams.delta_identity(3), CHAIN_LEVEL_CAP, 5)
    assert long == [(1,) * k for k in range(CHAIN_LEVEL_CAP + 1)]
    # another q and seed step through the very same tuples
    short = sample_trajectory(MeasureParams.delta_identity(Fraction(5, 4)), 40, 9)
    assert all(a is b for a, b in zip(short, long))
    assert len(_Delta.columns) == CHAIN_LEVEL_CAP + 1
    # a column built elsewhere, long or short, steps to the table's next one
    for k in (CHAIN_LEVEL_CAP - 1, 3, 0):
        assert DELTA2.family.step(tuple([1] * k), 0) is long[k + 1]
    with pytest.raises(ValueError):
        DELTA2.family.step((2, 1), 0)


def test_trajectory_reproducibility():
    a = sample_trajectory(HAAR2, 60, 424242)
    b = sample_trajectory(HAAR2, 60, 424242)
    assert a == b
    c = sample_trajectory(HAAR2, 60, 424243)
    assert a != c  # overwhelmingly likely and deterministic for this seed


def test_second_level_distribution_binomial():
    # empirical law of the 2x2 Jordan type over many short trajectories,
    # checked against the exact transition probabilities within 3 sigma
    trials = 100000
    counts = Counter(sample_trajectory(HAAR2, 2, seed)[-1] for seed in range(trials))
    p = float(dict(transition_distribution(HAAR2, (1,)))[(2,)])
    sigma = (trials * p * (1 - p)) ** 0.5
    assert abs(counts[(2,)] - trials * p) <= 3 * sigma
    assert counts[(2,)] + counts[(1, 1)] == trials


@pytest.mark.parametrize("seed", [-3, 2**64 + 5])
def test_trial_variates_are_successive_64_bit_draws(seed):
    for n in (0, 1, 1000, CHAIN_LEVEL_CAP):
        for trial in (0, 7):
            bits = _trial_rng(seed, trial).getrandbits
            assert _trial_variates(seed, trial, n) == tuple(bits(64) for _ in range(n))
    # the trial's stream is random.Random's for the same seed
    stdlib = random.Random(((seed % 2**64) << 64) | 7)
    assert _trial_rng(seed, 7).getrandbits(640) == stdlib.getrandbits(640)


@pytest.mark.parametrize(
    "params", [HAAR2, MeasureParams.haar(Fraction(5, 4)), MeasureParams.haar(Fraction(10001, 10000))]
)
def test_lln_matches_a_per_step_reference(params):
    # each trial's last diagram from the Fraction reference, one 64-bit
    # draw of the trial's stream per step; at q = 10001/10000 and level 300
    # the diagrams have about 300 rows, a few of them of length 2, so the
    # walk lengthens rows in place as well as adding them
    n_max, trials, seed, track = 300, 3, 11, 4
    rows = [[0, 0] for _ in range(track)]
    cols = [[0, 0] for _ in range(track)]
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        lam = ()
        for _ in range(n_max):
            lam = reference_step(params, lam, rng)
        conj = [sum(part > j for part in lam) for j in range(track)]
        for sums, lengths in ((rows, lam), (cols, conj)):
            for acc, length in zip(sums, lengths):
                acc[0] += length
                acc[1] += length * length
    expected = [_mean_stderr(*acc, trials, n_max) for acc in rows + cols]
    rep = lln_experiment(params, n_max, trials, seed, track)
    assert [(r.empirical, r.stderr) for r in rep] == expected


def test_lln_deterministic_and_csv_shape():
    rep1 = lln_experiment(HAAR2, 40, 12, 99)
    rep2 = lln_experiment(HAAR2, 40, 12, 99)
    assert rep1 == rep2
    assert list(vars(rep1[0])) == ["statistic", "index", "empirical", "predicted", "stderr"]
    assert len(rep1) == 2 * 4
    assert rep1[0].predicted == Fraction(1, 2)


@given(st.lists(st.integers(0, 50), min_size=1, max_size=30), st.integers(1, 60))
def test_mean_stderr_matches_the_sample_formula(lengths, n):
    # the summary columns from integer sums equal those from the samples
    samples = [Fraction(a, n) for a in lengths]
    t = len(samples)
    mean = sum(samples, Fraction(0)) / t
    err = 0.0
    if t > 1:
        var = sum(((x - mean) ** 2 for x in samples), Fraction(0)) / (t - 1)
        err = sqrt(float(var) / t)
    assert _mean_stderr(sum(lengths), sum(a * a for a in lengths), t, n) == (float(mean), err)


def test_chains_run_at_the_level_cap():
    assert len(sample_trajectory(HAAR2, CHAIN_LEVEL_CAP, 5)) == CHAIN_LEVEL_CAP + 1
    rep = lln_experiment(ROW2, 3, 2, 5, track=CHAIN_LEVEL_CAP)
    assert len(rep) == 2 * CHAIN_LEVEL_CAP
    assert [r.empirical for r in rep[:2]] == [1.0, 0.0]


@pytest.mark.parametrize("params, n_max, trials", [(ROW2, 1, 200_000), (DELTA2, 2000, 100)])
def test_lln_of_a_one_successor_chain_draws_no_variate(monkeypatch, params, n_max, trials):
    # the chain's walk reads no variate, so every trial is one walk: no
    # trial seeds a stream or draws, and the sums are that walk's, times trials
    def refuse(*args):
        raise AssertionError("a one-successor chain drew variates")

    monkeypatch.setattr(measures, "_trial_variates", refuse)
    monkeypatch.setattr(measures, "_trial_rng", refuse)
    rep = lln_experiment(params, n_max, trials, 1)
    last = (n_max,) if params is ROW2 else (1,) * n_max
    rows = [last[i] if i < len(last) else 0 for i in range(4)]
    cols = [sum(part > j for part in last) for j in range(4)]
    assert [(r.empirical, r.stderr) for r in rep] == [(x / n_max, 0.0) for x in rows + cols]


@pytest.mark.parametrize("params", [DELTA2, ROW2], ids=["delta", "single-row"])
def test_a_one_successor_trajectory_draws_no_variate(monkeypatch, params):
    # as in lln: the walk reads no variate, so no stream is seeded or drawn
    expected = {n_max: sample_trajectory(params, n_max, 3) for n_max in (0, 1, 1000)}

    def refuse(*args):
        raise AssertionError("a one-successor chain drew variates")

    monkeypatch.setattr(measures, "_trial_variates", refuse)
    monkeypatch.setattr(measures, "_trial_rng", refuse)
    for n_max, trajectory in expected.items():
        assert sample_trajectory(params, n_max, 3) == trajectory


def test_lln_deterministic_families_are_exact():
    rep = lln_experiment(DELTA2, 30, 5, 7, track=2)
    by_key = {(r.statistic, r.index): r for r in rep}
    assert by_key[("lambda_conj_i/n", 1)].empirical == 1.0
    assert by_key[("lambda_i/n", 1)].empirical == pytest.approx(1 / 30)
    rep = lln_experiment(ROW2, 30, 5, 7, track=2)
    by_key = {(r.statistic, r.index): r for r in rep}
    assert by_key[("lambda_i/n", 1)].empirical == 1.0
