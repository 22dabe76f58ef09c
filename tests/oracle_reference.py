"""Dense reference for the packed linear algebra of :mod:`fqtraces.oracle`.

Matrices here are tuples of rows of field indices, and every product,
rank and kernel dimension is computed entry by entry from the field
tables.  Jordan types come from kernel dimensions of explicit powers, and
fixed flags from invariant subspaces and quotient matrices built row by
row.  Tests compare the packed oracle with these functions; nothing in
``src`` imports this module.  Schubert cells give a count check of the
oracle's subspace enumeration, its pivot table.
"""

from itertools import combinations, product

from fqtraces.oracle import _pack, _pivot_table, _unpack, field_make, irreducible_polys, poly_name
from fqtraces.oracle import rank as packed_rank
from fqtraces.partitions import transpose
from fqtraces.traces import DiagramFamily


class DenseMatrix:
    """Square or rectangular matrix as a tuple of rows of field indices."""

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __matmul__(self, other):
        add, mul = self.field.add, self.field.mul
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
        return DenseMatrix(self.field, out)

    def vec(self, v):
        add, mul = self.field.add, self.field.mul
        out = []
        for row in self.rows:
            acc = 0
            for x, y in zip(row, v):
                if x and y:
                    acc = add[acc][mul[x][y]]
            out.append(acc)
        return tuple(out)

    def kernel_dim(self):
        return self.ncols - rank(self.field, self.rows)

    def is_invertible(self):
        return self.nrows == self.ncols and rank(self.field, self.rows) == self.nrows


def shift(m, c):
    """m + c*I for a square m."""
    add = m.field.add
    return DenseMatrix(
        m.field, (row[:i] + (add[row[i]][c],) + row[i + 1 :] for i, row in enumerate(m.rows))
    )


def rank(field, rows):
    """Row rank by Gaussian elimination on a copy of the rows."""
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
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
                m[i] = [add[x][neg[mul[coeff][y]]] for x, y in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def jordan_type(b, d=1):
    """Jordan type at p and generalized kernel dimension, from b = p(m).

    The kernel of b**k grows by d times the number of Jordan blocks of size
    at least k; those counts are the columns of the Jordan type.
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


def poly_matrix_eval(field, poly, m):
    """p(m) by Horner's rule."""
    n = m.nrows
    acc = shift(DenseMatrix(field, ((0,) * n,) * n), poly[-1])
    for c in reversed(poly[:-1]):
        acc = shift(acc @ m, c)
    return acc


def conjugacy_family_of(m):
    """Conjugacy class of an invertible matrix as a family of diagrams."""
    field = m.field
    n = m.nrows
    blocks = []
    covered = 0
    for d in range(1, n + 1):
        if d > n - covered:
            break
        for _tag, poly in irreducible_polys(field.q, d):
            lam, dim = jordan_type(poly_matrix_eval(field, poly, m), d)
            if dim:
                blocks.append((poly_name(field, poly), d, lam))
                covered += dim
                if d > n - covered:
                    break
    return DiagramFamily(tuple(blocks))


def _reduce_vector(field, basis_rows, pivots, v):
    add, mul, neg = field.add, field.mul, field.neg
    v = list(v)
    for row, p in zip(basis_rows, pivots):
        c = v[p]
        if c:
            v = [add[x][neg[mul[c][y]]] for x, y in zip(v, row)]
    return v


def _subspaces(field, n, d):
    if d == 0:
        yield ((), ())
        return
    for pivots in combinations(range(n), d):
        free = [(i, j) for i in range(d) for j in range(pivots[i] + 1, n) if j not in pivots]
        for values in product(range(field.q), repeat=len(free)):
            rows = [[0] * n for _ in range(d)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield (tuple(tuple(r) for r in rows), pivots)


def is_invariant(m, rows, pivots):
    """Whether m maps the span of dense echelon rows into itself: each image
    reduces to 0 by the rows."""
    return not any(any(_reduce_vector(m.field, rows, pivots, m.vec(b))) for b in rows)


def invariant_subspaces(m, d):
    """The d-dimensional subspaces that m maps into themselves, as tuples of
    dense reduced echelon rows, in the order ``_subspaces`` yields them."""
    return [rows for rows, piv in _subspaces(m.field, m.nrows, d) if is_invariant(m, rows, piv)]


def _quotient_action(field, m, basis_rows, pivots):
    n = m.nrows
    others = [j for j in range(n) if j not in pivots]
    cols = []
    for j in others:
        e = tuple(1 if k == j else 0 for k in range(n))
        w = _reduce_vector(field, basis_rows, pivots, m.vec(e))
        cols.append([w[k] for k in others])
    return DenseMatrix(field, (tuple(col[r] for col in cols) for r in range(len(others))))


def flag_count(m, mu):
    """Invariant flags of m with subspace dimensions mu_1, mu_1 + mu_2, ..."""
    if len(mu) <= 1:
        return 1
    f = m.field
    total = 0
    for rows, piv in _subspaces(f, m.nrows, mu[0]):
        if is_invariant(m, rows, piv):
            total += flag_count(_quotient_action(f, m, rows, piv), mu[1:])
    return total


def subspace_symbol(field, basis, n):
    """0/1 jump sequence of dim(X intersect span(e_1..e_i)) for i = 1..n, X a packed basis."""
    d = len(basis)
    rows = [_unpack(field, r, n) for r in basis.values()]
    dims = [0] + [
        d - packed_rank(field, [_pack(field, (0,) * i + r[i:]) for r in rows])
        for i in range(1, n + 1)
    ]
    return tuple(b - a for a, b in zip(dims, dims[1:]))


def subspaces(field, n, d):
    """Each d-dimensional subspace of F_q**n from the oracle's pivot table, as
    a basis dict keyed by leading entry: the candidates of
    ``_FlagWalk.level(d)``, in its order."""
    for _slot, keys, choices in _pivot_table(field, n, d):
        for rows in product(*choices):
            yield dict(zip(keys, rows))


def schubert_cell_count(x, q):
    """Number of subspaces from the oracle's pivot table (:func:`subspaces`) with the given 0/1 symbol."""
    x = tuple(x)
    n = len(x)
    field = field_make(q)
    return sum(
        subspace_symbol(field, basis, n) == x for basis in subspaces(field, n, sum(x))
    )
