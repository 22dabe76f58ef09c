"""Brute-force ground truth over explicit small finite fields.

Everything here is deliberately naive: explicit field tables, dense
matrices, exhaustive subspace and flag enumeration.  The point is to be
obviously correct so the closed-form layers can be checked against it.
Field elements are indices 0..q-1 (0 additive zero, 1 multiplicative
unit); for prime powers the index encodes the coefficient vector of the
residue polynomial in base p.  ``FqMatrix(field, rows)`` checks the rows a
caller passes in, and the polynomial functions the coefficients; matrices
computed here (products, shifts, quotients, extensions, enumerations) take
their entries from the field tables and skip the check.  Jordan types and
conjugacy classes are both read off kernel jumps by one routine.
"""

from bisect import bisect_right
from functools import cache
from itertools import combinations, product

from fqtraces.partitions import Partition, partitions_of, transpose
from fqtraces.traces import DiagramFamily

_MODULUS = {
    4: (2, (1, 1, 1)),    # x^2 + x + 1 over F_2
    8: (2, (1, 1, 0, 1)),  # x^3 + x + 1 over F_2
    9: (3, (1, 0, 1)),    # x^2 + 1 over F_3
}

SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9)


class FqField:
    """A finite field given by full addition/multiplication tables."""

    def __init__(self, q: int, add, mul):
        self.q = q
        self.add = add
        self.mul = mul
        self.neg = tuple(next(b for b in range(q) if add[a][b] == 0) for a in range(q))
        self.inv = (None,) + tuple(
            next(b for b in range(1, q) if mul[a][b] == 1) for a in range(1, q)
        )
        self._validate()

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    def _validate(self):
        q, add, mul = self.q, self.add, self.mul
        rng = range(q)
        for a in rng:
            if add[a][0] != a or mul[a][1] != a or mul[a][0] != 0:
                raise AssertionError("identity axioms fail")
        for a in rng:
            for b in rng:
                if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                    raise AssertionError("commutativity fails")
                for c in rng:
                    if add[add[a][b]][c] != add[a][add[b][c]]:
                        raise AssertionError("additive associativity fails")
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise AssertionError("multiplicative associativity fails")
                    if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                        raise AssertionError("distributivity fails")

    def __repr__(self):
        return f"FqField({self.q})"


@cache
def field_make(q: int) -> FqField:
    """Field of order q for q in {2,3,4,5,7,8,9}."""
    if q not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported field order {q}")
    if q not in _MODULUS:
        add = tuple(tuple((a + b) % q for b in range(q)) for a in range(q))
        mul = tuple(tuple((a * b) % q for b in range(q)) for a in range(q))
        return FqField(q, add, mul)
    # residues modulo the modulus over F_p; an element's index is its
    # coefficient vector read in base p
    p, modulus = _MODULUS[q]
    base = field_make(p)
    deg = len(modulus) - 1
    vec = [tuple(i // p**k % p for k in range(deg)) for i in range(q)]

    def index(poly):
        return sum(c * p**k for k, c in enumerate(poly))

    add = tuple(
        tuple(index(base.add[x][y] for x, y in zip(vec[a], vec[b])) for b in range(q))
        for a in range(q)
    )
    mul = tuple(
        tuple(index(poly_divmod(base, poly_mul(base, vec[a], vec[b]), modulus)[1]) for b in range(q))
        for a in range(q)
    )
    return FqField(q, add, mul)


# ---------------------------------------------------------------------------
# Matrices


class FqMatrix:
    """Dense matrix with entries as field indices.

    The constructor takes rows from a caller and rejects anything but a
    rectangle of ints in range(q).
    """

    __slots__ = ("field", "rows")

    def __init__(self, field: FqField, rows):
        rows = tuple(tuple(r) for r in rows)
        width = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != width:
                raise ValueError("matrix rows differ in length")
            for e in r:
                if type(e) is not int or not 0 <= e < field.q:
                    raise ValueError(f"matrix entry {e!r} is not an element index of F_{field.q}")
        self.field = field
        self.rows = rows

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def identity(cls, field: FqField, n: int) -> "FqMatrix":
        return cls(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __eq__(self, other):
        return (
            isinstance(other, FqMatrix)
            and self.field is other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(self.rows)

    def __matmul__(self, other: "FqMatrix") -> "FqMatrix":
        f = self.field
        add, mul = f.add, f.mul
        bt = tuple(zip(*other.rows))
        out = []
        for row in self.rows:
            new = []
            for col in bt:
                acc = 0
                for x, y in zip(row, col):
                    if x and y:
                        acc = add[acc][mul[x][y]]
                new.append(acc)
            out.append(tuple(new))
        return _matrix(f, tuple(out))

    def vec(self, v):
        """Apply to a column vector (given and returned as a tuple)."""
        f = self.field
        add, mul = f.add, f.mul
        out = []
        for row in self.rows:
            acc = 0
            for x, y in zip(row, v):
                if x and y:
                    acc = add[acc][mul[x][y]]
            out.append(acc)
        return tuple(out)

    def rank(self) -> int:
        return rank(self.field, self.rows)

    def kernel_dim(self) -> int:
        return self.ncols - self.rank()

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def __repr__(self):
        return f"FqMatrix(q={self.field.q}, {list(map(list, self.rows))})"


def _matrix(field: FqField, rows: tuple) -> FqMatrix:
    """A matrix computed here: rows is a tuple of tuples of field indices, not checked."""
    m = object.__new__(FqMatrix)
    m.field = field
    m.rows = rows
    return m


def _shift(m: FqMatrix, c: int) -> FqMatrix:
    """m + c*I for a square m."""
    add = m.field.add
    return _matrix(
        m.field,
        tuple(row[:i] + (add[row[i]][c],) + row[i + 1 :] for i, row in enumerate(m.rows)),
    )


def rank(field: FqField, rows) -> int:
    """Row rank by Gaussian elimination (rows are copied, not changed)."""
    mul, inv, sub = field.mul, field.inv, field.sub
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        scale = inv[m[r][c]]
        m[r] = [mul[scale][x] for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                coeff = m[i][c]
                m[i] = [sub(x, mul[coeff][y]) for x, y in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def _jordan_type(b: FqMatrix, d: int = 1) -> tuple[Partition, int]:
    """Jordan type of m at p, read off b = p(m) for p irreducible of degree d,
    and the dimension of the generalized kernel of b.

    The kernel of b**k grows by d times the number of Jordan blocks of size
    at least k until it is the generalized kernel; those counts are the
    columns of the Jordan type.
    """
    n = b.nrows
    cols = []
    prev = 0
    power = b
    while True:
        dim = power.kernel_dim()
        if dim == prev:
            break
        step = dim - prev
        if step % d:
            raise AssertionError("kernel jump not divisible by factor degree")
        cols.append(step // d)
        prev = dim
        if dim == n:
            break
        power = power @ b
    return transpose(tuple(cols)), prev


def all_matrices(field: FqField, n: int):
    """All n x n matrices (use only for tiny n)."""
    for entries in product(range(field.q), repeat=n * n):
        yield _matrix(field, tuple(entries[i * n : (i + 1) * n] for i in range(n)))


def unipotent_matrices(field: FqField, n: int):
    """All unipotent elements of the full matrix group (exhaustive scan)."""
    minus_one = field.neg[1]
    for m in all_matrices(field, n):
        if _jordan_type(_shift(m, minus_one))[1] == n:
            yield m


def unipotent_upper_triangular(field: FqField, n: int):
    """All upper-triangular matrices with unit diagonal."""
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for values in product(range(field.q), repeat=len(positions)):
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), v in zip(positions, values):
            rows[i][j] = v
        yield _matrix(field, tuple(map(tuple, rows)))


def unipotent_class_of(m: FqMatrix) -> Partition:
    """Jordan type of a unipotent matrix, via kernel jumps of (m - I)**k."""
    n = m.nrows
    if m.ncols == n:
        lam, dim = _jordan_type(_shift(m, m.field.neg[1]))
        if dim == n:
            return lam
    raise ValueError("matrix is not unipotent")


# ---------------------------------------------------------------------------
# Subspace and flag enumeration


def reduce_vector(field: FqField, basis_rows, pivots, v):
    """Residual of v after elimination against echelon rows."""
    mul, sub = field.mul, field.sub
    v = list(v)
    for row, p in zip(basis_rows, pivots):
        c = v[p]
        if c:
            v = [sub(x, mul[c][y]) for x, y in zip(v, row)]
    return v


def subspaces(field: FqField, n: int, d: int):
    """All d-dimensional subspaces of F_q**n as (echelon rows, pivot columns).

    Bases are generated in reduced row-echelon form directly from pivot
    patterns, so each subspace appears exactly once.
    """
    if d == 0:
        yield ((), ())
        return
    q = field.q
    for pivots in combinations(range(n), d):
        free = [
            (i, j)
            for i in range(d)
            for j in range(pivots[i] + 1, n)
            if j not in pivots
        ]
        for values in product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(d)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield (tuple(tuple(r) for r in rows), pivots)


def is_invariant(field: FqField, m: FqMatrix, basis_rows, pivots) -> bool:
    for b in basis_rows:
        residual = reduce_vector(field, basis_rows, pivots, m.vec(b))
        if any(residual):
            return False
    return True


def count_fixed_subspaces(m: FqMatrix, d: int) -> int:
    """Number of d-dimensional subspaces mapped to themselves."""
    return _flag_count(m, (d, m.nrows - d))


def quotient_action(field: FqField, m: FqMatrix, basis_rows, pivots) -> FqMatrix:
    """Induced action on the quotient by an invariant subspace.

    Quotient coordinates are the non-pivot columns; images are reduced
    against the echelon basis and read off at those columns.
    """
    n = m.nrows
    others = [j for j in range(n) if j not in pivots]
    cols = []
    for j in others:
        e = tuple(1 if k == j else 0 for k in range(n))
        w = reduce_vector(field, basis_rows, pivots, m.vec(e))
        cols.append([w[k] for k in others])
    rows = tuple(tuple(cols[c][r] for c in range(len(others))) for r in range(len(others)))
    return _matrix(field, rows)


def count_fixed_flags(m: FqMatrix, mu: Partition) -> int:
    """Number of invariant flags with subspace dimensions mu_1, mu_1+mu_2, ...

    Recurses through the quotient: pick an invariant subspace of the first
    prescribed dimension, then count flags of the remaining shape in the
    quotient action.
    """
    if sum(mu) != m.nrows:
        raise ValueError("flag shape must sum to the matrix size")
    return _flag_count(m, tuple(mu))


def _flag_count(m: FqMatrix, mu: tuple) -> int:
    if len(mu) <= 1:
        return 1
    f = m.field
    total = 0
    for rows, piv in subspaces(f, m.nrows, mu[0]):
        if is_invariant(f, m, rows, piv):
            total += _flag_count(quotient_action(f, m, rows, piv), mu[1:])
    return total


def subspace_symbol(field: FqField, basis_rows, n: int) -> tuple:
    """0/1 jump sequence of dim(X intersect span(e_1..e_i)) for i = 1..n."""
    d = len(basis_rows)
    dims = []
    for i in range(1, n + 1):
        tail = [row[i:] for row in basis_rows]
        dims.append(d - rank(field, tail) if tail else 0)
    prev = 0
    out = []
    for v in dims:
        out.append(v - prev)
        prev = v
    return tuple(out)


def schubert_cell_count(x, q: int) -> int:
    """Number of subspaces of F_q**n with the given 0/1 symbol, by enumeration."""
    x = tuple(x)
    n = len(x)
    d = sum(x)
    field = field_make(q)
    count = 0
    for rows, _piv in subspaces(field, n, d):
        if subspace_symbol(field, rows, n) == x:
            count += 1
    return count


def ext_enumerate(g: FqMatrix, variant: str):
    """One-row parabolic extensions of g: last column free, last row zero.

    The new diagonal entry runs over nonzero scalars for the "GLB"
    variant and is pinned to 1 for "GLU".
    """
    if variant not in ("GLB", "GLU"):
        raise ValueError(f"unknown extension variant {variant!r}")
    f = g.field
    n = g.nrows
    corners = range(1, f.q) if variant == "GLB" else (1,)
    out = []
    for col in product(range(f.q), repeat=n):
        for corner in corners:
            rows = tuple(g.rows[i] + (col[i],) for i in range(n))
            out.append(_matrix(f, rows + ((0,) * n + (corner,),)))
    return out


# ---------------------------------------------------------------------------
# Polynomials over the field (ascending coefficient tuples, monic)


def poly_mul(field: FqField, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = field.add[out[i + j]][field.mul[x][y]]
    return tuple(out)


def poly_divmod(field: FqField, a, b):
    a = list(a)
    db, dl = len(b) - 1, len(a) - 1
    inv_lead = field.inv[b[-1]]
    quot = [0] * max(dl - db + 1, 0)
    while dl >= db and any(a):
        while dl >= 0 and a[dl] == 0:
            dl -= 1
        if dl < db:
            break
        c = field.mul[a[dl]][inv_lead]
        quot[dl - db] = c
        for k in range(db + 1):
            a[dl - db + k] = field.sub(a[dl - db + k], field.mul[c][b[k]])
        dl -= 1
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return tuple(quot), tuple(a)


def _check_poly(field: FqField, poly, monic: bool = False) -> tuple:
    """A caller's coefficients: ints in range(q), constant term first, leading one nonzero."""
    poly = tuple(poly)
    if (
        not poly
        or any(type(c) is not int or not 0 <= c < field.q for c in poly)
        or poly[-1] == 0
        or (monic and poly[-1] != 1)
    ):
        what = "a monic polynomial" if monic else "a polynomial"
        raise ValueError(f"{poly!r} is not {what} over F_{field.q}")
    return poly


def poly_matrix_eval(field: FqField, poly, m: FqMatrix) -> FqMatrix:
    """p(m) by Horner's rule with scalar coefficients."""
    poly = _check_poly(field, poly)
    acc = _shift(_matrix(field, ((0,) * m.nrows,) * m.nrows), poly[-1])
    for c in reversed(poly[:-1]):
        acc = _shift(acc @ m, c)
    return acc


def poly_name(field: FqField, poly) -> str:
    """Canonical display tag; linear factors print as "x-a" with a the root."""
    poly = _check_poly(field, poly)
    deg = len(poly) - 1
    if deg == 1:
        root = field.mul[field.neg[poly[0]]][field.inv[poly[1]]]
        return f"x-{root}"
    bits = []
    for k in range(deg, -1, -1):
        c = poly[k]
        if not c:
            continue
        if k == 0:
            bits.append(str(c))
        else:
            xpow = "x" if k == 1 else f"x^{k}"
            bits.append(xpow if c == 1 else f"{c}{xpow}")
    return "+".join(bits)


@cache
def irreducible_polys(q: int, d: int) -> tuple:
    """Monic irreducible degree-d polynomials; degree 1 excludes "x" itself."""
    field = field_make(q)
    if d == 1:
        return tuple((field.neg[a], 1) for a in range(1, q))
    lower = []
    for e in range(1, d // 2 + 1):
        lower.extend(irreducible_polys(q, e))
        if e == 1:
            lower.append((0, 1))  # the polynomial x divides reducibles too
    out = []
    for tail in product(range(q), repeat=d):
        poly = tail + (1,)
        if all(any(r) for r in [poly_divmod(field, poly, g)[1] for g in lower]):
            out.append(poly)
    return tuple(out)


def companion_matrix(field: FqField, poly) -> FqMatrix:
    """Companion matrix: subdiagonal ones, last column minus the coefficients."""
    poly = _check_poly(field, poly, monic=True)
    d = len(poly) - 1
    rows = [
        [0] * d for _ in range(d)
    ]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = field.neg[poly[i]]
    return FqMatrix(field, rows)


def jordan_block_matrix(field: FqField, poly, lam: Partition) -> FqMatrix:
    """Generalized Jordan matrix: companion blocks chained by identity blocks.

    For each part of ``lam`` a chain of that many companion blocks is laid
    on the diagonal with identity blocks directly above the diagonal.
    """
    comp = companion_matrix(field, poly)
    d = comp.nrows
    total = d * sum(lam)
    rows = [[0] * total for _ in range(total)]
    offset = 0
    for part in lam:
        for b in range(part):
            base = offset + b * d
            for i in range(d):
                for j in range(d):
                    rows[base + i][base + j] = comp.rows[i][j]
            if b + 1 < part:
                for i in range(d):
                    rows[base + i][base + d + i] = 1
        offset += part * d
    return FqMatrix(field, rows)


def block_diag(field: FqField, mats) -> FqMatrix:
    total = sum(m.nrows for m in mats)
    rows = [[0] * total for _ in range(total)]
    off = 0
    for m in mats:
        for i in range(m.nrows):
            for j in range(m.ncols):
                rows[off + i][off + j] = m.rows[i][j]
        off += m.nrows
    return FqMatrix(field, rows)


def class_representative(field: FqField, fam: DiagramFamily, polys_by_tag) -> FqMatrix:
    mats = [
        jordan_block_matrix(field, polys_by_tag[tag], lam)
        for tag, _d, lam in fam.blocks
    ]
    return block_diag(field, mats)


def conjugacy_family_of(m: FqMatrix) -> DiagramFamily:
    """Conjugacy class of an invertible matrix as a family of diagrams.

    Factors the action by probing every irreducible polynomial of degree
    at most n: the generalized kernel filtration of p(m) gives the Jordan
    data at p.
    """
    if not m.is_invertible():
        raise ValueError("conjugacy families are defined for invertible matrices")
    field = m.field
    n = m.nrows
    blocks = []
    covered = 0
    for d in range(1, n + 1):
        if covered == n:
            break
        for poly in irreducible_polys(field.q, d):
            lam, dim = _jordan_type(poly_matrix_eval(field, poly, m), d)
            if dim:
                blocks.append((poly_name(field, poly), d, lam))
                covered += dim
    if covered != n:
        raise AssertionError("factorization did not exhaust the space")
    return DiagramFamily(tuple(blocks))


def polys_by_tag(q: int, max_degree: int) -> dict:
    """Display tag -> coefficient tuple for all irreducibles up to a degree."""
    field = field_make(q)
    out = {}
    for d in range(1, max_degree + 1):
        for poly in irreducible_polys(q, d):
            out[poly_name(field, poly)] = poly
    return out


def families_enumerate(n: int, q: int) -> list[DiagramFamily]:
    """All families of total weighted size n over the actual irreducibles."""
    field = field_make(q)
    polys = sorted(
        ((poly_name(field, poly), d) for d in range(1, n + 1) for poly in irreducible_polys(q, d)),
        key=lambda t: (t[1], t[0]),
    )
    degrees = [d for _, d in polys]
    out = []

    def rec(start: int, remaining: int, acc: list):
        # one frame per block: the next block sits on some poly j >= start
        # of degree <= remaining, tried from the last such j down
        if remaining == 0:
            out.append(DiagramFamily(tuple(acc)))
            return
        for j in range(bisect_right(degrees, remaining) - 1, start - 1, -1):
            tag, d = polys[j]
            for k in range(1, remaining // d + 1):
                for lam in partitions_of(k):
                    acc.append((tag, d, lam))
                    rec(j + 1, remaining - d * k, acc)
                    acc.pop()

    rec(0, n, [])
    return out
