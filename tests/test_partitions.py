from collections import Counter
from fractions import Fraction

import pytest
from hl_reference import dominance_leq
from hypothesis import given, strategies as st

from fqtraces.partitions import (
    addable_corners,
    add_box,
    box_additions,
    box_removals,
    format_partition,
    hook_lengths,
    is_partition,
    n_stat,
    parse_partition,
    partitions_of,
    size,
    transpose,
    z_factor,
)


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return ()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


def test_transpose_examples():
    assert transpose((3, 1)) == (2, 1, 1)
    assert transpose(()) == ()
    assert transpose((2, 2)) == (2, 2)


def test_transpose_against_definition():
    # column j of the diagram holds one box for each row of length >= j
    for n in range(17):
        for lam in partitions_of(n):
            expected = tuple(
                sum(1 for p in lam if p >= j) for j in range(1, (lam[0] if lam else 0) + 1)
            )
            assert transpose(lam) == expected, lam


@given(partition_strategy())
def test_transpose_involution(lam):
    assert transpose(transpose(lam)) == lam


def test_n_stat_examples():
    assert n_stat((2, 1)) == 1
    assert n_stat((1, 1, 1)) == 3
    for n in range(1, 9):
        assert n_stat((n,)) == 0


def test_hook_lengths_examples():
    assert sorted(hook_lengths((2, 1))) == [1, 1, 3]
    assert hook_lengths((5,)) == [5, 4, 3, 2, 1]
    assert sorted(hook_lengths((2, 2))) == [1, 2, 2, 3]


@given(partition_strategy(max_n=10))
def test_hook_sum_identity(lam):
    assert sum(hook_lengths(lam)) == n_stat(lam) + n_stat(transpose(lam)) + size(lam)


def test_z_factor_examples():
    assert z_factor((2, 1)) == 2
    assert z_factor((1, 1)) == 2
    assert z_factor((3,)) == 3
    assert z_factor(()) == 1


def test_addable_corners_examples():
    assert addable_corners(()) == [(1, 1)]
    assert addable_corners((1,)) == [(1, 2), (2, 1)]
    assert addable_corners((2, 1)) == [(1, 3), (2, 2), (3, 1)]


@given(partition_strategy())
def test_addable_corner_count(lam):
    assert len(addable_corners(lam)) == len(set(lam)) + 1


@given(partition_strategy())
def test_box_additions_are_partitions(lam):
    for mu, col in box_additions(lam):
        assert is_partition(mu)
        assert size(mu) == size(lam) + 1
        assert transpose(mu)[col - 1] == transpose(lam)[col - 1] + 1 if col <= (lam[0] if lam else 0) else True


def test_add_box_rejects_non_corner():
    with pytest.raises(ValueError):
        add_box((2, 2), 2)


def test_box_removals():
    assert set(box_removals((2, 1))) == {(1, 1), (2,)}
    assert box_removals((1,)) == [()]
    assert box_removals(()) == []


def test_dominance_examples():
    assert dominance_leq((1, 1), (2,))
    assert not dominance_leq((2,), (1, 1))
    for lam in partitions_of(5):
        assert dominance_leq(lam, lam)
    with pytest.raises(ValueError):
        dominance_leq((2,), (1,))


def test_partitions_of_decreasing_lex():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    counts = [len(partitions_of(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n in range(9):
        lams = partitions_of(n)
        assert all(lams[i] > lams[i + 1] for i in range(len(lams) - 1))


def test_serialization_round_trip():
    assert parse_partition("3,1,1") == (3, 1, 1)
    assert parse_partition("") == ()
    assert format_partition((3, 1, 1)) == "3,1,1"
    assert format_partition(()) == ""
    with pytest.raises(ValueError, match=r"not a partition: \(1, 3\)$"):
        parse_partition("1,3")


def test_exact_rational_arithmetic():
    a = Fraction(355, 113)
    assert a * (1 / a) == 1
