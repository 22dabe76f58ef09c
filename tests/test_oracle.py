import random
import tracemalloc
from collections import Counter
from itertools import product

import oracle_reference as ref
import pytest
from hypothesis import example, given, settings, strategies as st
from test_golden import check_suite_golden

from fqtraces.oracle import (
    SUPPORTED_ORDERS,
    FqField,
    FqMatrix,
    _add_scaled,
    _apply,
    _echelon,
    _flag_walk,
    _image_chain,
    _jordan_type,
    _matrix,
    _pack,
    _pivot_table,
    _reduce,
    _unpack,
    conjugacy_family_of,
    count_fixed_flags,
    ext_enumerate,
    extension_classes,
    families_enumerate,
    field_make,
    irreducible_polys,
    jordan_block_matrix,
    poly_mul,
    poly_name,
    polys_by_tag,
    rank,
    unipotent_class_of,
    unipotent_matrices,
)
from fqtraces.partitions import partitions_of
from fqtraces.traces import UNIT
from fqtraces import oracle, verify

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(4)

_CHUNK_TABLES = ("cadd", "cscale", "cdigits", "clead")


def _square(m):
    """m squared, built column by column with ``_apply``."""
    return _matrix(m.field, m.nrows, tuple(_apply(m, c) for c in m.cols))


def test_field_construction():
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = field_make(q)
        assert field.q == q
    with pytest.raises(ValueError):
        field_make(6)
    with pytest.raises(ValueError):
        field_make(16)


def test_chunk_tables_stay_within_256_values():
    # a chunk is the widest run of entries with at most 256 values, so the
    # sum table never passes 256 x 256 entries, however long the vectors;
    # the tables cover every chunk value once any of them is read, and
    # packing longer vectors neither grows nor replaces them
    for q in SUPPORTED_ORDERS:
        field = field_make(q)
        k, size = field.k, q**field.k
        assert size <= 256 < q ** (k + 1)
        before = [getattr(field, name) for name in _CHUNK_TABLES]
        assert len(field.cadd) == size and all(len(row) == size for row in field.cadd)
        assert len(field.cscale) == q and all(len(row) == size for row in field.cscale)
        for x in range(size):
            digits = [x // q**i % q for i in range(k)]
            assert field.cdigits[x] == tuple((i, d) for i, d in enumerate(digits) if d)
            assert field.clead[x] == (field.cdigits[x][0] if x else None)
        # one Jordan block of 17 spans three chunks even over F_2
        m = jordan_block_matrix(field, [((field.neg[1], 1), (17,))])
        assert unipotent_class_of(FqMatrix(field, m.rows)) == (17,)
        assert all(getattr(field, name) is table for name, table in zip(_CHUNK_TABLES, before))


def test_chunk_tables_built_with_the_field():
    # a field holds all four chunk tables as soon as it is made (read here
    # past any __getattr__), equal to those of field_make(q); the sum and
    # scale rows are bytes, so one field's tables stay below 0.25 MiB,
    # where rows of ints took 0.575 MiB for F_2 alone
    for q in SUPPORTED_ORDERS:
        made = field_make(q)
        tracemalloc.start()
        try:
            field = FqField(q, made.add, made.mul)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        tables = {name: object.__getattribute__(field, name) for name in _CHUNK_TABLES}
        assert tables == {name: getattr(made, name) for name in _CHUNK_TABLES}
        for name in ("cadd", "cscale"):
            assert all(type(row) is bytes for row in tables[name]), (q, name)
        assert held < 0.25 * 2**20, (q, held)


_Z4_ADD = tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4))
_Z4_MUL = tuple(tuple(a * b % 4 for b in range(4)) for a in range(4))


@pytest.mark.parametrize(
    "add, mul, message",
    [
        # 1 + 1 = 1 leaves 1 with no negative
        (((0, 1), (1, 1)), ((0, 0), (0, 1)), "element 1 has no negative"),
        # the ring Z/4: 2 * b is 0 or 2
        (_Z4_ADD, _Z4_MUL, "element 2 has no inverse"),
        # Z/4 addition with F_4 multiplication, where 2 is x: 2 * (1 + 1) =
        # x**2 = x + 1 = 3, but 2 * 1 + 2 * 1 = 0
        (_Z4_ADD, F4.mul, "distributivity fails"),
    ],
    ids=["no-negative", "no-inverse", "not-distributive"],
)
def test_tables_that_fail_an_axiom_are_refused(add, mul, message):
    with pytest.raises(AssertionError, match=f"^{message}$"):
        FqField(len(add), add, mul)


def test_prime_field_tables():
    # a prime field is the integers mod q, whatever construction made it
    for q in (2, 3, 5, 7):
        field = field_make(q)
        assert field.add == tuple(tuple((a + b) % q for b in range(q)) for a in range(q))
        assert field.mul == tuple(tuple(a * b % q for b in range(q)) for a in range(q))


def test_field_f4_arithmetic():
    # with modulus x^2 + x + 1, the generator squares to itself plus one
    x = 2
    assert F4.mul[x][x] == 3
    assert F4.mul[x][3] == 1  # x * (x + 1) = x^2 + x = 1
    for a in range(1, 4):
        assert F4.mul[a][F4.inv[a]] == 1


@pytest.mark.parametrize(
    "q, p, modulus", [(4, 2, (1, 1, 1)), (8, 2, (1, 1, 0, 1)), (9, 3, (1, 0, 1))]
)
def test_extension_field_tables(q, p, modulus):
    # element i is the residue polynomial whose coefficients are the base-p
    # digits of i, so p is the class of x; with the field axioms that
    # field_make checks, digit-wise addition and modulus(x) = 0 fix the
    # tables.  The moduli are written here, not read from the oracle, and
    # modulus(x) is evaluated with the field's own tables
    field = field_make(q)
    deg = len(modulus) - 1

    def digits(i):
        return [i // p**k % p for k in range(deg)]

    for a in range(q):
        for b in range(q):
            assert digits(field.add[a][b]) == [(x + y) % p for x, y in zip(digits(a), digits(b))]
    value = 0
    for c in reversed(modulus):
        value = field.add[field.mul[value][p]][c]
    assert value == 0


@pytest.mark.parametrize(
    "rows",
    [[[-1]], [[True]], [[0.5]], [[2]], [[1, 0], [1]], [[1], [0, 1]]],
    ids=["negative", "bool", "float", "out-of-range", "ragged-short", "ragged-long"],
)
def test_matrix_rejects_malformed_rows(rows):
    with pytest.raises(ValueError):
        FqMatrix(F2, rows)


def gauss(n, d, q):
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_gaussian_binomial_subspace_counts():
    # number of d-subspaces of F_q^n is the Gaussian binomial coefficient
    for q, field in ((2, F2), (3, F3)):
        for n in range(0, 5):
            for d in range(0, n + 1):
                assert sum(1 for _ in ref.subspaces(field, n, d)) == gauss(n, d, q)


def test_unipotent_class_examples():
    assert unipotent_class_of(FqMatrix(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == (1, 1, 1)
    j3 = FqMatrix(F2, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert unipotent_class_of(j3) == (3,)
    e12 = FqMatrix(F2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert unipotent_class_of(e12) == (2, 1)
    # over F_2 the swap matrix is unipotent ((x-1)^2 annihilates it) ...
    assert unipotent_class_of(FqMatrix(F2, [[0, 1], [1, 0]])) == (2,)
    # ... but an elliptic companion block is not
    with pytest.raises(ValueError):
        unipotent_class_of(FqMatrix(F2, [[0, 1], [1, 1]]))
    with pytest.raises(ValueError):
        unipotent_class_of(FqMatrix(F3, [[0, 1], [1, 0]]))


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_unipotent_class_of_jordan_matrices(q):
    field = field_make(q)
    x_minus_one = (field.neg[1], 1)
    for n in range(0, 5):
        for lam in partitions_of(n):
            assert unipotent_class_of(jordan_block_matrix(field, [(x_minus_one, lam)])) == lam


@st.composite
def _square_matrices(draw):
    q = draw(st.sampled_from(SUPPORTED_ORDERS))
    n = draw(st.integers(0, 4))
    entries = draw(st.lists(st.integers(0, q - 1), min_size=n * n, max_size=n * n))
    return q, [entries[i * n : (i + 1) * n] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(_square_matrices())
# vectors of four entries take two chunks over F_5 .. F_9
@example((7, [[1, 2, 0, 0], [0, 1, 2, 0], [0, 0, 1, 2], [0, 0, 0, 1]]))
@example((8, [[3, 1, 0, 5], [0, 3, 0, 0], [0, 0, 6, 1], [2, 0, 0, 6]]))
@example((9, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [4, 0, 1, 0]]))
@example((9, [[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]]))
# two irreducible quadratic factors over F_3
@example((3, [[2, 0, 1, 0], [0, 1, 0, 1], [2, 0, 2, 0], [0, 2, 0, 1]]))
# over F_3, x - 1 times the cubic x^3 + 2x + 1: with 3 dimensions left no
# quadratic factor fits, and two blocks of the quadratic x^2 + 1
@example((3, [[1, 0, 0, 0], [0, 0, 0, 2], [0, 1, 0, 1], [0, 0, 1, 0]]))
@example((3, [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]))
def test_packed_matches_dense_reference(case):
    q, rows = case
    field = field_make(q)
    m, dense, n = FqMatrix(field, rows), ref.DenseMatrix(field, rows), len(rows)
    assert m.rows == dense.rows
    assert _square(m).rows == (dense @ dense).rows
    assert rank(field, m.cols) == ref.rank(field, dense.rows)
    assert _jordan_type(n, _image_chain(field, m.cols)) == ref.jordan_type(dense)
    assert m.is_invertible() == dense.is_invertible()
    if m.is_invertible():
        assert conjugacy_family_of(m) == ref.conjugacy_family_of(dense)
    # the compositions count the fixed subspaces of one dimension
    shapes = list(partitions_of(n)) + ([(0, n), (n, 0), (1, n - 1)] if n else [])
    for mu in shapes:
        # a scalar matrix fixes every flag, and both sides walk them all:
        # 820 * 91 * 10 full flags in F_9^4; shapes of two parts over
        # F_7..F_9 still cover two-chunk subspaces
        flags, left = 1, n
        for part in mu:
            flags *= gauss(left, part, q)
            left -= part
        if flags <= 10_000:
            assert count_fixed_flags(m, mu) == ref.flag_count(dense, mu)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_packing_across_chunk_boundaries(q):
    # the test above stops at n = 4, inside one chunk over F_2, F_3 and
    # F_4; these vectors fill the one chunk that is reduced by single
    # lookups, then end one entry into a second and a third chunk
    field = field_make(q)
    rng, vrng = random.Random(q), random.Random(-q)
    for n in (field.k, field.k + 1, 2 * field.k + 1):
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        # the strictly upper part is nilpotent: its kernel chain runs up to n;
        # with the diagonal set to 1 it is invertible, with an empty chain
        upper = [[e if j > i else 0 for j, e in enumerate(row)] for i, row in enumerate(rows)]
        unitri = [[1 if j == i else e for j, e in enumerate(row)] for i, row in enumerate(upper)]
        assert not FqMatrix(field, upper).is_invertible()
        assert FqMatrix(field, unitri).is_invertible()
        for r in (rows, upper, unitri):
            m, dense = FqMatrix(field, r), ref.DenseMatrix(field, r)
            assert m.rows == dense.rows
            assert _square(m).rows == (dense @ dense).rows
            assert rank(field, m.cols) == ref.rank(field, dense.rows)
            assert m.is_invertible() == dense.is_invertible()
            chain = _image_chain(field, m.cols)
            assert _jordan_type(n, chain) == ref.jordan_type(dense)
            # the chain's levels are im b, im b**2, ..., each smaller than the
            # last, up to the first power whose rank equals the one before
            sizes = [len(level) for level in chain]
            assert all(a > b for a, b in zip([n] + sizes, sizes)), sizes
            power = dense
            for size in sizes:
                assert size == ref.rank(field, power.rows)
                power = power @ dense
            assert ref.rank(field, power.rows) == (sizes[-1] if sizes else n)
            # _reduce by each level, of a combination of the level and of
            # seeded vectors: the residue is 0 exactly for v in the span, else
            # it leads off the level's pivots, and it spans what v does
            for level in chain:
                basis = [_unpack(field, w, n) for w in level.values()]
                combo = 0
                for w in level.values():
                    combo = _add_scaled(field, combo, vrng.randrange(q), w)
                seeded = [_pack(field, [vrng.randrange(q) for _ in range(n)]) for _ in range(3)]
                for v in [combo] + seeded:
                    res = _reduce(field, level, v)
                    v_rows, res_rows = _unpack(field, v, n), _unpack(field, res, n)
                    span = ref.rank(field, basis + [v_rows])
                    assert (res == 0) == (span == len(level))
                    if res:
                        j = next(j for j, e in enumerate(res_rows) if e)
                        assert 8 * (j // field.k) + j % field.k not in level
                    assert ref.rank(field, basis + [res_rows]) == span
                    assert ref.rank(field, basis + [v_rows, res_rows]) == span
    # classes, fixed lines and fixed hyperplanes on both sides of the
    # one-chunk kernels' n <= k switch; at n = k + 1, with at most 511 of
    # each, the tested subspaces and their images straddle the two chunks,
    # and so do the span sets of the hyperplanes that the shape
    # (1, n - 2, 1) checks its lines against
    for n in (field.k, field.k + 1):
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        unitri = [
            [1 if i == j else rng.randrange(q) if j > i else 0 for j in range(n)]
            for i in range(n)
        ]
        dense = ref.DenseMatrix(field, unitri)
        expected = ref.jordan_type(ref.shift(dense, field.neg[1]))[0]
        assert unipotent_class_of(FqMatrix(field, unitri)) == expected
        for rows in (ident, unitri):
            m, dense = FqMatrix(field, rows), ref.DenseMatrix(field, rows)
            shapes = [(1, n - 1), (n - 1, 1)]
            # the identity fixes all gauss(n, 1, q) * gauss(n - 1, 1, q) of these
            if n > field.k and (rows is unitri or gauss(n, 1, q) * gauss(n - 1, 1, q) <= 10_000):
                shapes.append((1, n - 2, 1))
            for mu in shapes:
                assert count_fixed_flags(m, mu) == ref.flag_count(dense, mu), (rows, mu)
        while True:
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            m, dense = FqMatrix(field, rows), ref.DenseMatrix(field, rows)
            if m.is_invertible():
                break
        assert conjugacy_family_of(m) == ref.conjugacy_family_of(dense), rows
    # one Jordan block with its first k entries in one chunk, its last in the next
    block = jordan_block_matrix(field, [((field.neg[1], 1), (field.k + 1,))])
    assert unipotent_class_of(block) == (field.k + 1,)
    # an echelon over vectors of which some end in chunk 0 and some reach
    # chunk 1, each kind reduced against the other: e_0 + e_k, then e_0
    n = field.k + 1
    short = [[rng.randrange(q) for _ in range(n - 1)] + [0] for _ in range(3)]
    long = [[rng.randrange(q) for _ in range(n - 1)] + [rng.randrange(1, q)] for _ in range(3)]
    pair = [[1] + [0] * (n - 2) + [1], [1] + [0] * (n - 1)]
    for vecs in (long + short, short + long, pair):
        assert rank(field, FqMatrix(field, list(zip(*vecs))).cols) == ref.rank(field, vecs)


def test_unipotent_counts():
    # the number of unipotent elements of the full matrix group is
    # q^(n(n-1)); each yielded matrix is unipotent by the dense reference
    # and none repeats, so together with the count that pins the set
    for q, field in ((2, F2), (3, F3)):
        for n in (0, 1, 2, 3):
            mats = [m.rows for m in unipotent_matrices(field, n)]
            assert len(mats) == len(set(mats)) == q ** (n * (n - 1))
            for rows in mats:
                b = ref.shift(ref.DenseMatrix(field, rows), field.neg[1])
                assert ref.jordan_type(b)[1] == n, rows
        assert [unipotent_class_of(m) for m in unipotent_matrices(field, 0)] == [()]


def test_count_fixed_flags_examples():
    ident = FqMatrix(F2, [[1, 0], [0, 1]])
    assert count_fixed_flags(ident, (1, 1)) == 3
    trans = FqMatrix(F2, [[1, 1], [0, 1]])
    assert count_fixed_flags(trans, (1, 1)) == 1
    assert count_fixed_flags(trans, (2,)) == 1
    with pytest.raises(ValueError):
        count_fixed_flags(trans, (1, 1, 1))


@pytest.mark.parametrize("q", (2, 3, 4))
def test_flag_memo_across_matrices_and_shapes(q):
    # the walk keeps the memo of the matrix asked about last: A, B, A drops
    # A's memo and builds it again, and every shape of one matrix, zero
    # parts and all, reads its memo in any order
    field = field_make(q)
    rng = random.Random(q)
    for n in range(1, 5):
        upper = [[1 if i == j else rng.randrange(q) if j > i else 0 for j in range(n)] for i in range(n)]
        full = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        a, b = FqMatrix(field, upper), FqMatrix(field, full)
        dense = {a: ref.DenseMatrix(field, upper), b: ref.DenseMatrix(field, full)}
        shapes = sorted(
            {mu for lam in partitions_of(n) for mu in (lam, lam[::-1])}
            | {(0, n), (n, 0), (1, 0, n - 1)}
        )
        for m in (a, b, a):
            rng.shuffle(shapes)
            for mu in shapes:
                assert count_fixed_flags(m, mu) == ref.flag_count(dense[m], mu), (n, m, mu)
            assert _flag_walk.cache_info().currsize == 1
    assert _flag_walk.cache_info().currsize <= 1


def test_flag_counts_test_each_subspace_once(monkeypatch):
    # from a cold memo, every partition and every composition of 4 reads the
    # invariant subspaces of dimensions 1-3 of the identity of F_2^4, so
    # each of the 15 + 35 + 15 subspaces is tested once, however many
    # shapes pass through it
    calls, test = [], oracle.is_invariant

    def counted(walk, slot, rows):
        calls.append(frozenset(rows))
        return test(walk, slot, rows)

    monkeypatch.setattr(oracle, "is_invariant", counted)
    ident = FqMatrix(F2, [[int(i == j) for j in range(4)] for i in range(4)])
    compositions = [mu for k in range(1, 5) for mu in product(range(1, 5), repeat=k)]
    for shapes in (partitions_of(4), [mu for mu in compositions if sum(mu) == 4]):
        _flag_walk.cache_clear()
        calls.clear()
        for mu in shapes:
            count_fixed_flags(ident, mu)
        assert len(set(calls)) == len(calls) == sum(gauss(4, d, 2) for d in (1, 2, 3)) == 65


def test_flag_memo_keys_each_subspace_once():
    # the identity fixes every subspace: after the full flags of F_2^4 the
    # walk holds each subspace of dimension 1, 2 or 3 once, as one basis
    ident = FqMatrix(F2, [[int(i == j) for j in range(4)] for i in range(4)])
    assert count_fixed_flags(ident, (1, 1, 1, 1)) == 1 * 3 * 7 * 15
    walk = _flag_walk(ident)
    assert sorted(walk.levels) == [1, 2, 3]
    for d in (1, 2, 3):
        bases = walk.level(d)
        assert all(len(basis) == d for basis in bases)
        assert len({frozenset(basis.values()) for basis in bases}) == len(bases) == gauss(4, d, 2)


def test_flag_memo_keeps_one_basis_per_subspace():
    # every shape of the identity of F_2^4 reads the lattice of its
    # subspaces; below(a, b) names each subspace by its index in level(a),
    # so each one stays one basis dict: each plane gets its 3 lines and
    # each 3-space its 7 planes, exactly those of which it spans the sum
    ident = FqMatrix(F2, [[int(i == j) for j in range(4)] for i in range(4)])
    for mu in partitions_of(4):
        count_fixed_flags(ident, mu)
    walk = _flag_walk(ident)
    for a, b in ((1, 2), (2, 3)):
        lower, upper, inside = walk.level(a), walk.level(b), walk.below(a, b)
        assert inside is walk.below(a, b)
        assert len(inside) == len(upper)
        for w, indices in zip(upper, inside):
            assert len(set(indices)) == len(indices) == gauss(b, a, 2)
            for i, sub in enumerate(lower):
                joint = rank(F2, list(w.values()) + list(sub.values()))
                assert (i in indices) == (joint == b)


def test_flag_memo_memory_stays_bounded():
    # with the invariant subspaces held once per dimension, every shape of
    # the identity of F_2^5 leaves its walk holding about 0.13 MiB under
    # tracemalloc; the walk up from each subspace held 0.41 MiB, and 1.00
    # MiB with one dict per route to each subspace
    ident = FqMatrix(F2, [[int(i == j) for j in range(5)] for i in range(5)])
    shapes = partitions_of(5)
    # the module's own caches for F_2^5, the pivot tables of every level
    # included, are filled before tracing starts
    count_fixed_flags(FqMatrix(F2, [[int(j >= i) for j in range(5)] for i in range(5)]), (1,) * 5)
    _flag_walk.cache_clear()
    tracemalloc.start()
    try:
        for mu in shapes:
            count_fixed_flags(ident, mu)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 0.6 * 2**20, held


def _regular_unipotent(n):
    """J_n: ones on the diagonal and just above it."""
    return [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]


def test_flag_levels_match_the_dense_filter():
    # level(d) tests each candidate of the pivot table as a tuple of rows and
    # builds a basis only for those that pass: it lists exactly the
    # subspaces the dense check finds invariant, in the table's order.  J_n
    # fixes one subspace of each dimension d, ker (J_n - 1)**d, spanned by
    # e_0, ..., e_(d-1), and a seeded unitriangular F_3 4 x 4 few, so nearly
    # every candidate fails; at n = k + 1 the lines and hyperplanes run the
    # multi-chunk branch of is_invariant
    rng = random.Random(4)
    unitri = [[1 if i == j else rng.randrange(3) if j > i else 0 for j in range(4)] for i in range(4)]
    cases = [(F2, _regular_unipotent(4), range(5)), (F3, unitri, range(5))]
    for q in SUPPORTED_ORDERS:
        n = field_make(q).k + 1
        cases.append((field_make(q), _regular_unipotent(n), (1, n - 1)))
    for field, rows, dims in cases:
        n = len(rows)
        dense = ref.DenseMatrix(field, rows)
        _flag_walk.cache_clear()
        walk = _flag_walk(FqMatrix(field, rows))
        for d in dims:
            found = [tuple(_unpack(field, v, n) for v in sub.values()) for sub in walk.level(d)]
            assert found == ref.invariant_subspaces(dense, d), (field, n, d)
            if rows is not unitri:
                assert found == [tuple(tuple(int(i == j) for j in range(n)) for i in range(d))]


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_pivot_table_names_each_subspace_once(q):
    # each candidate is a reduced echelon basis keyed by its leading
    # entries: _echelon keeps it as it is, and row j is 0 at every other
    # pivot; so the [n choose d]_q distinct candidates are [n choose d]_q
    # distinct subspaces.  n = k + 1 puts the last pivot in a second chunk
    field = field_make(q)
    k = field.k
    sizes = [(n, d) for n in range(4) for d in range(n + 1)] + [(k + 1, 1), (k + 1, k)]
    for n, d in sizes:
        seen = []
        for slot, keys, choices in _pivot_table(field, n, d):
            assert slot == {key: j for j, key in enumerate(keys)} and len(choices) == d
            pivots = [key // 8 * k + key % 8 for key in keys]
            for rows in product(*choices):
                assert _echelon(field, rows) == dict(zip(keys, rows))
                for j, v in enumerate(rows):
                    entries = _unpack(field, v, n)
                    assert [entries[p] for p in pivots] == [int(i == j) for i in range(d)]
                seen.append(rows)
        assert len(set(seen)) == len(seen) == gauss(n, d, q), (n, d)


def test_pivot_tables_memory_stays_bounded():
    # the tables of every level of F_2^8 hold, per level, the sum over pivot
    # sets of the sum over rows of 2**(free columns of the row) packed ints:
    # 0.13 MiB under tracemalloc, built from an empty cache
    _pivot_table.cache_clear()
    tracemalloc.start()
    try:
        for d in range(9):
            _pivot_table(F2, 8, d)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 0.5 * 2**20, held


def test_count_fixed_subspaces_examples():
    # the invariant d-dimensional subspaces are the fixed flags of shape
    # (d, n - d); shapes with a zero part count those of one dimension
    trans = FqMatrix(F2, [[1, 1], [0, 1]])
    assert count_fixed_flags(trans, (0, 2)) == 1
    assert count_fixed_flags(trans, (2, 0)) == 1
    ident3 = FqMatrix(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert count_fixed_flags(ident3, (1, 2)) == 7
    assert count_fixed_flags(ident3, (0, 1, 2)) == 7


def test_schubert_cell_examples():
    assert ref.schubert_cell_count((1, 0), 2) == 1
    assert ref.schubert_cell_count((0, 1), 2) == 2
    assert ref.schubert_cell_count((1, 1, 1), 3) == 1


def test_schubert_cells_match_closed_form():
    for q in (2, 3):
        for n in range(1, 6):
            for x in product((0, 1), repeat=n):
                m = sum(x)
                expected = q ** (sum((i + 1) * xi for i, xi in enumerate(x)) - m * (m + 1) // 2)
                assert ref.schubert_cell_count(x, q) == expected


def test_ext_enumerate_counts_and_shapes():
    empty = FqMatrix(F2, ())
    exts = ext_enumerate(empty, "GLU")
    assert len(exts) == 1 and exts[0].rows == ((1,),)
    one = FqMatrix(F2, [[1]])
    assert len(ext_enumerate(one, "GLU")) == 2
    one3 = FqMatrix(F3, [[1]])
    assert len(ext_enumerate(one3, "GLB")) == 6
    for h in ext_enumerate(one3, "GLB"):
        assert h.rows[1][0] == 0 and h.rows[1][1] != 0


def test_extension_classes_match_every_extension():
    # each extension's type from the parent's image chain against its own
    # classification: every unipotent g over F_2 at n <= 3 and over F_3 at
    # n <= 2, the identity (b = 0), and unitriangular g on both sides of
    # one chunk, so the chain's levels and v reach a second chunk
    cases = []
    for q, top in ((2, 3), (3, 2)):
        for n in range(top + 1):
            cases += unipotent_matrices(field_make(q), n)
    cases += [FqMatrix(F3, [[int(i == j) for j in range(n)] for i in range(n)]) for n in range(4)]
    for q in SUPPORTED_ORDERS:
        field, rng = field_make(q), random.Random(q)
        for n in (field.k - 1, field.k, field.k + 1):
            rows = [
                [1 if i == j else rng.randrange(q) if j > i else 0 for j in range(n)]
                for i in range(n)
            ]
            cases.append(FqMatrix(field, rows))
    for g in cases:
        brute = Counter(unipotent_class_of(h) for h in ext_enumerate(g, "GLU"))
        assert extension_classes(g) == (unipotent_class_of(g), brute), g


def test_irreducible_polys():
    assert irreducible_polys(2, 1) == (("x-1", (1, 1)),)
    assert irreducible_polys(2, 2) == (("x^2+x+1", (1, 1, 1)),)
    assert irreducible_polys(3, 1) == (("x-1", (2, 1)), ("x-2", (1, 1)))
    assert len(irreducible_polys(2, 3)) == 2
    assert len(irreducible_polys(2, 4)) == 3
    assert len(irreducible_polys(3, 2)) == 3
    # each candidate really has no roots
    for _tag, poly in irreducible_polys(3, 2):
        for a in range(3):
            value = (poly[0] + poly[1] * a + poly[2] * a * a) % 3
            assert value != 0


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_irreducible_poly_counts(q):
    # Gauss: d * (number of monic irreducibles of degree d) is the sum of
    # mobius(d / e) * q**e over the divisors e of d; degree 1 leaves out x
    # each tag is the poly's display name, and no two degrees share one
    mobius = {1: 1, 2: -1, 3: -1, 4: 0}
    field, tags = field_make(q), []
    for d in range(1, 5):
        count = sum(mobius[d // e] * q**e for e in range(1, d + 1) if d % e == 0) // d
        pairs = irreducible_polys(q, d)
        polys = [poly for _tag, poly in pairs]
        assert len(polys) == count - (d == 1)
        assert len(set(polys)) == len(polys)
        assert all(len(poly) == d + 1 and poly[-1] == 1 for poly in polys)
        assert all(tag == poly_name(field, poly) for tag, poly in pairs)
        tags += [tag for tag, _poly in pairs]
    assert len(set(tags)) == len(tags)


def test_conjugacy_probes_sieve_only_the_degrees_they_reach():
    # a unitriangular matrix is covered by x - 1 at degree 1, so no higher
    # degree is sieved: sieving every degree up to 20 would take 2^20
    # candidates at degree 20 alone
    rng = random.Random(20)
    n = 20
    rows = [[1 if i == j else rng.randrange(2) if j > i else 0 for j in range(n)] for i in range(n)]
    irreducible_polys.cache_clear()
    fam = conjugacy_family_of(FqMatrix(F2, rows))
    assert [(tag, d) for tag, d, _lam in fam.blocks] == [("x-1", 1)]
    assert irreducible_polys.cache_info().currsize == 1


def test_poly_name_and_division():
    assert poly_name(F2, (1, 1)) == "x-1"
    assert poly_name(F3, (2, 1)) == "x-1"
    assert poly_name(F3, (1, 1)) == "x-2"
    assert poly_name(F2, (1, 1, 1)) == "x^2+x+1"
    assert poly_mul(F2, (1, 1), (1, 1, 1)) == (1, 0, 0, 1)  # x^3 + 1 over F_2


def test_families_enumerate_small():
    fams = families_enumerate(1, 2)
    assert [f.blocks for f in fams] == [((UNIT, 1, (1,)),)]
    fams = families_enumerate(2, 2)
    assert len(fams) == 3
    assert len(families_enumerate(0, 3)) == 1
    # |CY_n| for q=2 matches the number of conjugacy classes of GL(n,2)
    assert len(families_enumerate(3, 2)) == 6


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_families_enumerate_counts_gl_classes(q):
    # GL(n, q) has q - 1, q^2 - 1, q^3 - q, q^4 - q classes for n = 1..4;
    # q = 8 and 9 have over a thousand polynomials of degree <= 4
    classes = [q - 1, q**2 - 1, q**3 - q, q**4 - q]
    assert [len(families_enumerate(n, q)) for n in range(1, 5)] == classes


def test_conjugacy_family_of_representatives():
    m = jordan_block_matrix(F2, [((1, 1, 1), (2, 1))])
    fam = conjugacy_family_of(m)
    assert fam.blocks == (("x^2+x+1", 2, (2, 1)),)
    mixed = FqMatrix(
        F2,
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 1, 0],
            [0, 0, 0, 1],
        ],
    )
    fam = conjugacy_family_of(mixed)
    assert set(fam.blocks) == {
        (UNIT, 1, (1, 1)),
        ("x^2+x+1", 2, (1,)),
    }


def companion_matrix(field, poly):
    """The companion matrix of poly: one block of size one."""
    return jordan_block_matrix(field, [(poly, (1,))])


def test_jordan_block_matrix_entries():
    # a chain of two companion blocks of x^2 + x + 1, then the block of x - 1
    assert jordan_block_matrix(F2, [((1, 1, 1), (2,)), ((1, 1), (1,))]).rows == (
        (0, 1, 1, 0, 0),
        (1, 1, 0, 1, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 1, 1, 0),
        (0, 0, 0, 0, 1),
    )


@pytest.mark.parametrize("lam", [(-1,), (1, 2), (2.0,)])
def test_jordan_block_matrix_checks_partitions(lam):
    # once built as a 0 x 0 matrix, as the type (2, 1), and a bare TypeError
    with pytest.raises(ValueError, match="not a partition"):
        jordan_block_matrix(F2, [((1, 1), (1,)), ((1, 1), lam)])


def test_companion_matrix_annihilated_by_its_polynomial():
    for q, field in ((2, F2), (3, F3)):
        for d in (2, 3):
            for _tag, poly in irreducible_polys(q, d):
                dense = ref.DenseMatrix(field, companion_matrix(field, poly).rows)
                assert ref.rank(field, ref.poly_matrix_eval(field, poly, dense).rows) == 0


@pytest.mark.parametrize(
    "fn, poly, rest",
    [
        (companion_matrix, (-1, 1), ()),  # used to wrap round to [[1]]
        (poly_name, (-1, 1), ()),  # used to print "x-1"
        (companion_matrix, (5, 1), ()),
        (poly_name, (5, 1), ()),
        (companion_matrix, (0.5, 1), ()),
        (companion_matrix, (1, 2), ()),  # not monic; used to give [[2]]
        # jordan_block_matrix takes (poly, lam) pairs, checked before any is built
        (jordan_block_matrix, [((1, 2), (1,))], ()),
        (jordan_block_matrix, [((2, 1), (1,)), ((-1, 1), (2,))], ()),
        (poly_name, (True, 1), ()),
        (poly_name, (3, 1), ()),
        (poly_name, (), ()),
        (poly_name, (1, 0), ()),
    ],
)
def test_polynomial_coefficients_are_checked(fn, poly, rest):
    with pytest.raises(ValueError, match="polynomial over F_3"):
        fn(F3, poly, *rest)


def test_class_representative_round_trip():
    # building the block matrix for a family and re-extracting its class
    # must be the identity map; exercises every Jordan shape per factor.
    # A chunk holds 2 entries from q = 7 on, so from n = 3 the columns
    # span two chunks.
    for q, max_n in ((2, 4), (3, 3), (4, 3), (5, 3), (7, 3), (8, 2), (9, 2)):
        field = field_make(q)
        tags = polys_by_tag(q, max_n)
        for n in range(1, max_n + 1):
            for fam in families_enumerate(n, q):
                m = jordan_block_matrix(field, [(tags[tag], lam) for tag, _d, lam in fam.blocks])
                assert m.is_invertible()
                assert conjugacy_family_of(m) == fam


def test_class_coverage_suite():
    rows = verify.run_suite("class-coverage")
    assert [row for row in rows if row["status"] != "pass"] == []
    check_suite_golden("class-coverage", rows)


def test_companion_base_change_suite():
    rows = verify.run_suite("companion-base-change")
    assert [row for row in rows if row["status"] != "pass"] == []
    check_suite_golden("companion-base-change", rows)
