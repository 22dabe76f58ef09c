import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial, prod
from operator import mul
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from fqtraces import symfunc, verify
from fqtraces.partitions import hook_lengths, partitions_of, size, transpose, z_factor
from fqtraces.specializations import Specialization
from fqtraces.traces import COEFFICIENT_DEGREE_CAP
from fqtraces.symfunc import (
    EXACT_HL_DEGREE_CAP,
    KOSTKA_DIAGRAM_CAP,
    KOSTKA_FOULKES_TABLEAU_CAP,
    PowerSumElement,
    _CODE_BASE,
    _character_table,
    _class_sizes,
    _codes,
    _hl_q,
    _sub_diagram_count,
    charge,
    hl_q_in_p,
    hl_q_row,
    kostka,
    kostka_foulkes,
    modified_hl_q,
    modified_hl_q_row,
    plethysm_pl,
    schur_expand,
    schur_in_p,
    sym_character,
)

from hl_reference import (
    dominance_leq,
    hl_q_by_charge,
    kostka_by_strips,
    kostka_foulkes_branching,
    kostka_foulkes_reference,
    sym_character_reference,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


# ---------------------------------------------------------------------------
# Schur functions in the power-sum basis


def test_schur_in_p_small():
    assert schur_in_p((1,)).terms == {(1,): Fraction(1)}
    assert schur_in_p((2,)).terms == {(1, 1): HALF, (2,): HALF}
    assert schur_in_p((1, 1)).terms == {(1, 1): HALF, (2,): -HALF}


def brute_ssyt_fillings(shape, letters):
    """All column-strict fillings with entries in 1..letters, cell by cell."""
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]

    def rec(i, grid):
        if i == len(cells):
            yield [row[:] for row in grid]
            return
        r, c = cells[i]
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, letters + 1):
            grid[r][c] = v
            yield from rec(i + 1, grid)
        grid[r][c] = 0

    yield from rec(0, [[0] * w for w in shape])


@pytest.mark.parametrize("lam", [(2,), (1, 1), (2, 1), (3,), (2, 2), (3, 1)])
def test_schur_in_p_against_tableau_evaluation(lam):
    # independent oracle: evaluate the tableau monomial sum at an explicit
    # alphabet and compare with the character expansion specialized there
    alphabet = (Fraction(1), HALF, THIRD)
    tableau_value = Fraction(0)
    for filling in brute_ssyt_fillings(lam, len(alphabet)):
        term = Fraction(1)
        for row in filling:
            for v in row:
                term *= alphabet[v - 1]
        tableau_value += term
    sp = Specialization.finite(
        tuple(sorted(alphabet, reverse=True)), (), sum(alphabet)
    )
    assert sp.apply(schur_in_p(lam)) == tableau_value


def test_character_table_matches_border_strip_recursion():
    for n in range(11):
        order = partitions_of(n)
        assert _character_table(n)[0] == tuple(
            tuple(sym_character_reference(lam, rho) for rho in order) for lam in order
        )


def test_character_table_column_orthogonality():
    # sum_lam chi^lam(rho) chi^lam(sigma) = z_rho if rho = sigma, else 0
    for n in range(13):
        order = partitions_of(n)
        columns = list(zip(*_character_table(n)[0]))
        for a, rho in enumerate(order):
            for b in range(a, len(order)):
                dot = sum(map(mul, columns[a], columns[b]))
                assert dot == (z_factor(rho) if a == b else 0), (rho, order[b])


def test_character_table_closed_forms_to_the_cap():
    # at every degree: the identity's column counts standard tableaux, the
    # trivial row is 1, the sign row is (-1)**(n - l(rho)), and conjugating
    # lam multiplies by the sign
    for n in range(EXACT_HL_DEGREE_CAP + 1):
        order = partitions_of(n)
        table = _character_table(n)[0]
        sign = tuple((-1) ** (n - len(rho)) for rho in order)
        assert [row[-1] for row in table] == [
            factorial(n) // prod(hook_lengths(lam)) for lam in order
        ], n
        assert table[0] == (1,) * len(order), n
        assert table[-1] == sign, n
        for lam, row in zip(order, table):
            assert table[order.index(transpose(lam))] == tuple(map(mul, sign, row)), lam


def test_class_sizes_up_to_the_coefficient_cap():
    # n!/z_rho for every degree the class vectors reach, summing to n!, and
    # at small degrees the counts of permutations by cycle type
    for n in range(COEFFICIENT_DEGREE_CAP + 1):
        sizes = _class_sizes(n)
        assert sizes == tuple(Fraction(factorial(n), z_factor(rho)) for rho in partitions_of(n))
        assert sum(sizes) == factorial(n), n
    assert len(_class_sizes(COEFFICIENT_DEGREE_CAP)) == 627
    for n in range(7):
        counts = Counter(_cycle_type(p) for p in permutations(range(n)))
        assert _class_sizes(n) == tuple(counts[rho] for rho in partitions_of(n)), n


def _cycle_type(perm) -> tuple:
    seen, lengths = set(), []
    for start in range(len(perm)):
        i, length = start, 0
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def test_beta_masks():
    for n in range(EXACT_HL_DEGREE_CAP + 1):
        _, masks, index = _character_table(n)
        assert index == {mask: i for i, mask in enumerate(masks)}
        assert masks == tuple(
            sum(1 << (part + len(lam) - 1 - i) for i, part in enumerate(lam))
            for lam in partitions_of(n)
        )


def test_sym_character_values():
    assert sym_character((2,), (2,)) == 1
    assert sym_character((1, 1), (2,)) == -1
    assert sym_character((2, 1), (1, 1, 1)) == 2
    assert sym_character((2, 1), (3,)) == -1
    assert sym_character((3, 2), (2, 2, 1)) == 1


@pytest.mark.parametrize(
    "lam, rho, message",
    [
        ((2, 1), (2,), "got 3 and 2"),
        ((2,), (2, 1), "got 2 and 3"),
        ((2, 1), (3, 0), "not a partition"),
        ((1, 2), (3,), "not a partition"),
    ],
)
def test_sym_character_refuses_bad_input(lam, rho, message):
    with pytest.raises(ValueError, match=message):
        sym_character(lam, rho)


@pytest.mark.parametrize(
    "entry, args",
    [
        (sym_character, ([2, 1], [1, 1, 1])),
        (schur_in_p, ([2, 1],)),
        (kostka_foulkes, ([2, 1], [1, 1, 1])),
        (kostka, ([2, 1], [1, 1, 1])),
    ],
)
def test_memoized_entries_take_list_partitions(entry, args):
    # each entry checks its input before its memo, which is keyed by the
    # checked tuples and read through the entry's cache_info
    assert entry(*args) == entry(*map(tuple, args))
    if entry is not kostka:
        assert entry.cache_info().currsize >= 1 and entry.cache_info().hits >= 1


def test_character_entries_refuse_above_the_cap_before_any_table(monkeypatch):
    tables = _character_table.cache_info().currsize
    for call in (lambda: sym_character((21,), (21,)), lambda: schur_in_p((1,) * 21)):
        with pytest.raises(ValueError, match="capped at degree 20; got degree 21"):
            call()
    assert _character_table.cache_info().currsize == tables
    # the cap's own degree answers
    monkeypatch.setattr(symfunc, "CHARACTER_DEGREE_CAP", 3)
    assert sym_character((3,), (3,)) == 1 and schur_in_p((3,)) == schur_in_p((3,))
    with pytest.raises(ValueError, match="capped at degree 3; got degree 4"):
        schur_in_p((4,))


# ---------------------------------------------------------------------------
# Kostka numbers


def brute_kostka(shape, content):
    count = 0
    for filling in brute_ssyt_fillings(shape, len(content)):
        tally = [0] * len(content)
        for row in filling:
            for v in row:
                tally[v - 1] += 1
        if tuple(tally) == tuple(content):
            count += 1
    return count


def test_kostka_examples():
    assert kostka((2,), (1, 1)) == 1
    assert kostka((1, 1), (2,)) == 0
    for lam in partitions_of(5):
        assert kostka(lam, lam) == 1


def test_kostka_against_brute_force():
    for n in range(1, 6):
        for shape in partitions_of(n):
            for content in partitions_of(n):
                assert kostka(shape, content) == brute_kostka(shape, content)


def test_kostka_against_the_strip_recursion():
    # kostka peels the largest part first and leaves the ones to the hook
    # length formula; the reference peels the smallest part first, ones too
    for n in range(11):
        for shape in partitions_of(n):
            for content in partitions_of(n):
                assert kostka(shape, content) == kostka_by_strips(shape, content), (shape, content)


def test_kostka_size_mismatch():
    with pytest.raises(ValueError):
        kostka((2,), (1,))


NEAR_STAIRCASE = (11, 10, 9, 8, 7, 6, 5, 4, 3, 1)


def test_sub_diagram_count_matches_a_brute_count():
    for n in range(9):
        for lam in partitions_of(n):
            inside = sum(
                len(nu) <= len(lam) and all(a <= b for a, b in zip(nu, lam))
                for m in range(n + 1)
                for nu in partitions_of(m)
            )
            assert _sub_diagram_count(lam, 10**6) == inside, lam
    for shape, count in [
        (NEAR_STAIRCASE, 132430),
        ((8, 7, 6, 5, 4, 3, 2, 1), 4862),
        ((16, 16, 16, 16), 4845),
    ]:
        assert _sub_diagram_count(shape, 10**6) == count
    # the count stops once it passes the cap
    assert _sub_diagram_count((10**12,), 100) > 100
    assert 100 < _sub_diagram_count(NEAR_STAIRCASE, 100) < 132430


_OVER_DIAGRAMS = (
    f"kostka with a content part above 1 capped at {KOSTKA_DIAGRAM_CAP} diagrams inside the shape"
)


@pytest.mark.parametrize(
    "function, shape, content, message",
    [
        # 5.5 s of strip removals before the cap
        (kostka, NEAR_STAIRCASE, (2,) * 32, _OVER_DIAGRAMS),
        # over the cap by 64 * 313 diagrams, and by the sub-diagrams
        (kostka, (400, 312), (12,) * 8 + (11,) * 56, _OVER_DIAGRAMS),
        # 17 s of charge enumeration before the cap
        (
            kostka_foulkes,
            (5, 4, 3, 2, 1),
            (1,) * 15,
            f"kostka-foulkes capped at {KOSTKA_FOULKES_TABLEAU_CAP} tableaux; got 292864",
        ),
    ],
    ids=["kostka-near-staircase", "kostka-400-312", "kostka-foulkes-staircase"],
)
def test_library_calls_refuse_intractable_kostka_requests_at_once(
    function, shape, content, message
):
    # the refusals are the library's own, and the CLI prints them as they are
    start = perf_counter()
    with pytest.raises(ValueError) as info:
        function(shape, content)
    assert perf_counter() - start < 0.1
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Charge and the Kostka-Foulkes polynomials


def test_charge_words():
    assert charge([1]) == 0
    assert charge([2, 1]) == 1
    assert charge([1, 2]) == 0
    assert charge([2, 1, 3]) == 2
    assert charge([3, 1, 2]) == 1
    assert charge([1, 1, 2, 2]) == 0


def test_kostka_foulkes_examples():
    assert list(kostka_foulkes((2,), (1, 1))) == [0, 1]
    assert list(kostka_foulkes((1, 1), (1, 1))) == [1]
    assert list(kostka_foulkes((2, 1), (1, 1, 1))) == [0, 1, 1]
    for mu in partitions_of(6):
        assert list(kostka_foulkes(mu, mu)) == [1]


def test_kostka_foulkes_frozen_degree5_column():
    # frozen from the orthogonality reference construction
    column = {
        (5,): [0, 0, 0, 0, 1],
        (4, 1): [0, 0, 1, 1],
        (3, 2): [0, 1, 1],
        (3, 1, 1): [0, 1],
        (2, 2, 1): [1],
        (2, 1, 1, 1): [],
        (1, 1, 1, 1, 1): [],
    }
    for mu, coeffs in column.items():
        assert list(kostka_foulkes(mu, (2, 2, 1))) == coeffs


def test_kostka_foulkes_top_row_is_n_stat_power():
    for n in range(1, 7):
        for lam in partitions_of(n):
            poly = kostka_foulkes((n,), lam)
            assert list(poly) == [0] * (sum((i) * p for i, p in enumerate(lam))) + [1]


def test_kostka_foulkes_t1_and_unitriangular():
    for n in range(1, 7):
        for mu in partitions_of(n):
            for lam in partitions_of(n):
                poly = kostka_foulkes(mu, lam)
                assert poly(1) == kostka(mu, lam)
                if poly:
                    assert dominance_leq(lam, mu)


@pytest.mark.parametrize("n", range(1, 6))
def test_kostka_foulkes_against_orthogonality_oracle(n):
    for t in (HALF, THIRD):
        for mu in partitions_of(n):
            for lam in partitions_of(n):
                assert kostka_foulkes(mu, lam)(t) == kostka_foulkes_reference(
                    mu, lam, t
                )


@pytest.mark.parametrize("shape", [(3, 2), (4, 1), (2, 2, 1), (3, 1, 1)])
def test_kostka_foulkes_against_branching_oracle(shape):
    t = Fraction(2, 7)
    row = kostka_foulkes_branching(shape, t)
    for lam in partitions_of(size(shape)):
        assert kostka_foulkes(shape, lam)(t) == row.get(lam, Fraction(0))


# ---------------------------------------------------------------------------
# Hall-Littlewood Q and the modified version


def test_hl_q_examples():
    t = THIRD
    assert hl_q_in_p((1,), t).terms == {(1,): 1 - t}
    s11 = schur_in_p((1, 1))
    assert hl_q_in_p((1, 1), t) == s11 * ((1 - t) * (1 - t**2))
    expected = PowerSumElement(
        {(1, 1): HALF * (1 - t) * (1 - t), (2,): HALF * (1 - t) * (1 + t)}
    )
    assert hl_q_in_p((2,), t) == expected


def partitions_up_to(max_n):
    return st.integers(0, max_n).flatmap(lambda n: st.sampled_from(partitions_of(n)))


@given(partitions_up_to(9))
def test_hl_q_at_t_zero_is_schur(lam):
    assert hl_q_in_p(lam, 0) == schur_in_p(lam)


def test_hl_q_at_t_zero_is_schur_to_the_cap():
    # Q_lam(0) = s_lam, whose p_rho coefficient is chi^lam(rho) / z_rho: at
    # every degree this checks Jing's step against the character table alone
    for n in range(EXACT_HL_DEGREE_CAP + 1):
        table = _character_table(n)[0]
        z = [z_factor(rho) for rho in partitions_of(n)]
        for lam, chi in zip(partitions_of(n), table):
            den, row = hl_q_row(lam, 0)
            assert [c * zr for c, zr in zip(row, z)] == [x * den for x in chi], lam


def test_partition_codes():
    # the base is derived from the cap: a partition of n has no part
    # multiplicity above n, so below the cap no base-B digit carries
    assert _CODE_BASE == EXACT_HL_DEGREE_CAP + 1
    for n in range(EXACT_HL_DEGREE_CAP + 1):
        codes, index = _codes(n)
        assert len(set(codes)) == len(codes) == len(partitions_of(n))
        assert index == {code: i for i, code in enumerate(codes)}
        for rho, code in zip(partitions_of(n), codes):
            digits = []
            while code:
                code, digit = divmod(code, _CODE_BASE)
                digits.append(digit)
            assert digits == [rho.count(k) for k in range(1, len(digits) + 1)], rho
    # the code of a union is the sum of the codes
    for a in range(11):
        for b in range(11 - a):
            codes, index = _codes(a + b)
            position = {lam: i for i, lam in enumerate(partitions_of(a + b))}
            for rho, code_rho in zip(partitions_of(a), _codes(a)[0]):
                for sigma, code_sigma in zip(partitions_of(b), _codes(b)[0]):
                    union = tuple(sorted(rho + sigma, reverse=True))
                    assert codes[position[union]] == code_rho + code_sigma
                    assert index[code_rho + code_sigma] == position[union]


COLD_Q_SCRIPT = """
import sys
from fractions import Fraction
import fqtraces.cli
from fqtraces.symfunc import _character_table, _codes, _drops, _hl_q, hl_q_row, schur_coefficients

def module_globals():
    return [
        (name, attr, value)
        for name, mod in list(sys.modules.items())
        if name.startswith("fqtraces")
        for attr, value in vars(mod).items()
    ]

def container_sizes():
    return {
        (name, attr): len(value)
        for name, attr, value in module_globals()
        if isinstance(value, (dict, list, set))
    }

at_import = container_sizes()
t, lam = Fraction(3, 11), (4, 2, 2, 1)
before = hl_q_row(lam, t)
schur_before = schur_coefficients(before, 9)
tables = {value for _, _, value in module_globals() if hasattr(value, "cache_clear")}
assert {_codes, _drops, _hl_q} <= tables
for table in tables:
    table.cache_clear()
assert _codes.cache_info().currsize == _drops.cache_info().currsize == 0
assert _character_table.cache_info().currsize == 0
assert container_sizes() == at_import
assert hl_q_row(lam, t) == before
assert schur_coefficients(before, 9) == schur_before
"""


def test_cold_q_build_keeps_nothing_past_cache_clear():
    # every memo of the Q build is a cache_clear table of an fqtraces
    # module: clearing them all, as a cold benchmark run does between
    # requests, leaves every module-level container as it was at import.
    # A fresh process, so that this suite's own memos stay warm.
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", COLD_Q_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n", range(7))
def test_hl_q_edge_parameters(n):
    for lam in partitions_of(n):
        # (t = 0 is test_hl_q_at_t_zero_is_schur) at t = 1 every factor
        # 1 - t**k of the series vanishes, so only Q_() = 1 survives
        assert hl_q_in_p(lam, 1) == (PowerSumElement() if lam else PowerSumElement.one())
        t = Fraction(-1, 2)
        assert hl_q_in_p(lam, t) == hl_q_by_charge(lam, t)


def test_hl_q_of_empty_partition_is_one():
    for t in (0, 1, Fraction(-1, 2), Fraction(2, 9), 3):
        assert hl_q_in_p((), t) == PowerSumElement.one()
        assert schur_expand(hl_q_in_p((), t)) == {(): 1}
    assert modified_hl_q((), Fraction(2, 9)) == PowerSumElement.one()


@settings(deadline=None)
@given(partitions_up_to(7), st.fractions(-3, 3, max_denominator=12))
def test_hl_q_equals_rescaled_charge_column(lam, t):
    assert hl_q_in_p(lam, t) == hl_q_by_charge(lam, t)


@pytest.mark.parametrize("t", [HALF, Fraction(2, 9), Fraction(-3, 7), Fraction(1)])
def test_hl_q_memo_in_either_order(t):
    # a Q built on a memoized tail equals the charge-built Q, whether the
    # long lam or its shortest tail is asked for first
    expected = {}
    for n in range(8):
        for lam in partitions_of(n):
            if t == 1:  # every factor 1 - t**k vanishes: Q_lam = 0 but for lam = ()
                expected[lam] = PowerSumElement() if lam else PowerSumElement.one()
            else:
                expected[lam] = hl_q_by_charge(lam, t)
    for lam in expected:
        tails = [lam[i:] for i in range(len(lam) + 1)]
        for order in (tails, tails[::-1]):
            _hl_q.cache_clear()
            for mu in order:
                assert hl_q_in_p(mu, t) == expected[mu], (lam, mu)


def test_hl_q_closed_forms_above_old_cap():
    n, t = 14, Fraction(2, 9)
    # Q_(n) = q_n, the degree-n part of exp(sum_k (1 - t**k) p_k z**k / k)
    q_n = PowerSumElement(
        {
            rho: Fraction(prod(1 - t**part for part in rho), z_factor(rho))
            for rho in partitions_of(n)
        }
    )
    assert hl_q_in_p((n,), t) == q_n
    # Q_(1^n) = prod_{i <= n} (1 - t**i) e_n, e_n = sum_rho sign(rho) p_rho / z_rho
    e_n = PowerSumElement(
        {
            rho: Fraction((-1) ** (n - len(rho)), z_factor(rho))
            for rho in partitions_of(n)
        }
    )
    b = prod(1 - t**i for i in range(1, n + 1))
    assert hl_q_in_p((1,) * n, t) == e_n * b


def test_modified_hl_examples():
    t = THIRD
    assert modified_hl_q((1,), t).terms == {(1,): Fraction(1)}
    assert modified_hl_q((2,), t) == schur_in_p((2,))
    m11 = modified_hl_q((1, 1), t)
    assert m11.terms == {(1, 1): HALF * (1 + t), (2,): -HALF * (1 - t)}


def test_modified_hl_rejects_roots_of_unity():
    with pytest.raises(ValueError):
        modified_hl_q((2, 1), 1)
    with pytest.raises(ValueError):
        modified_hl_q((2,), -1)
    for lam in [(1,), (2,), (1, 1), (3, 2, 1)]:
        with pytest.raises(ValueError, match=r"^t = 1 has t\*\*1 = 1; modified Q is undefined$"):
            modified_hl_q_row(lam, 1)
    for lam in [(2,), (1, 1), (3, 2, 1)]:
        with pytest.raises(ValueError, match=r"^t = -1 has t\*\*2 = 1; modified Q is undefined$"):
            modified_hl_q_row(lam, -1)
    # at n = 1 only t = 1 is refused: Q_(1)(-1) = 2 p_1, and 2 / (1 - (-1)) = 1
    den, row = modified_hl_q_row((1,), -1)
    assert Fraction(row[0], den) == 1
    assert modified_hl_q((1,), -1).terms == {(1,): 1}


@pytest.mark.parametrize(
    "t", [HALF, Fraction(-3, 7), Fraction(5, 2), Fraction(10001, 10000), Fraction(0)]
)
def test_modified_row_against_its_definition(t):
    # each p_rho coefficient of Q_lam(t) divided by prod_i (1 - t**rho_i), in Fractions
    for n in range(9):
        for lam in partitions_of(n):
            den, row = hl_q_row(lam, t)
            mod_den, mod_row = modified_hl_q_row(lam, t)
            for rho, c, m in zip(partitions_of(n), row, mod_row, strict=True):
                expected = Fraction(c, den) / prod(1 - t**k for k in rho)
                assert Fraction(m, mod_den) == expected, (lam, t, rho)


def test_modified_row_reads_the_memo_once_checked(monkeypatch):
    # lam and t are checked once, in modified_hl_q_row itself; the Q row is
    # the memo's entry, and the cap is still refused where a row is built
    lam, t = (3, 2, 2, 1), Fraction(1, 3)
    expected = modified_hl_q_row(lam, t)
    monkeypatch.setattr(symfunc, "hl_q_row", None)
    hits = _hl_q.cache_info().hits
    assert modified_hl_q_row(lam, "1/3") == expected
    assert _hl_q.cache_info().hits == hits + 1
    entries = _hl_q.cache_info().currsize
    with pytest.raises(ValueError, match=f"capped at degree {EXACT_HL_DEGREE_CAP}"):
        modified_hl_q_row((1,) * (EXACT_HL_DEGREE_CAP + 1), t)
    with pytest.raises(ValueError, match=r"^not a partition: \(1, 2\)$"):
        modified_hl_q_row((1, 2), t)
    assert _hl_q.cache_info().currsize == entries


def test_schur_expand_of_modified_hl_matches_charge_polynomials():
    for t in (HALF, THIRD):
        for n in range(1, 6):
            for lam in partitions_of(n):
                got = schur_expand(modified_hl_q(lam, t))
                expected = {
                    mu: kostka_foulkes(mu, lam)(t)
                    for mu in partitions_of(n)
                    if kostka_foulkes(mu, lam)
                }
                assert got == expected


def test_hl_schur_identity_catches_a_changed_coefficient(monkeypatch):
    # one coefficient of one degree-4 row changed at t = 1/21: a point of the
    # symbolic half, but neither 1/2 nor 1/3, so only that row may fail
    def changed(lam, t):
        den, row = modified_hl_q_row(lam, t)
        if lam == (2, 1, 1) and t == Fraction(1, 21):
            row = (row[0] + 1,) + row[1:]
        return den, row

    monkeypatch.setattr(verify, "modified_hl_q_row", changed)
    rows = verify.run_suite("hl-schur-identity")
    assert {row["instance"] for row in rows if row["status"] == "fail"} == {"symbolic-degree-4"}


# ---------------------------------------------------------------------------
# schur_expand and plethysm


def test_schur_expand_examples():
    assert schur_expand(PowerSumElement({(1, 1): 1})) == {(2,): 1, (1, 1): 1}
    for lam in [(3,), (2, 1), (2, 2), (1, 1, 1, 1)]:
        assert schur_expand(schur_in_p(lam)) == {lam: Fraction(1)}


def test_schur_expand_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        schur_expand(PowerSumElement({(1,): 1, (2,): 1}))


def test_plethysm_examples():
    f = PowerSumElement({(1, 1): HALF, (2,): HALF})
    assert plethysm_pl(f, 1) == f
    assert plethysm_pl(PowerSumElement({(1,): 1}), 2).terms == {(2,): 1}
    assert plethysm_pl(f, 2).terms == {(2, 2): HALF, (4,): HALF}


def test_plethysm_composition():
    for n in range(0, 9):
        for rho in partitions_of(n):
            f = PowerSumElement({rho: Fraction(3, 7)})
            for m, k in ((2, 3), (2, 2), (3, 2)):
                assert plethysm_pl(plethysm_pl(f, m), k) == plethysm_pl(f, m * k)


# ---------------------------------------------------------------------------
# The carrier type itself


def test_power_sum_element_product_concatenates_indices():
    f = PowerSumElement({(2, 1): Fraction(2)})
    g = PowerSumElement({(3,): HALF, (1,): 1})
    h = f * g
    assert h.terms == {(3, 2, 1): Fraction(1), (2, 1, 1): Fraction(2)}


def test_power_sum_element_drops_zeros():
    f = PowerSumElement({(1,): Fraction(0), (2,): Fraction(1)})
    assert list(f.terms) == [(2,)]
