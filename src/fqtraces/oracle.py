"""Brute-force ground truth over explicit small finite fields.

Everything here is exhaustive: explicit field tables, enumeration of
matrices, subspaces and flags, classification by kernel jumps.  The point
is to be obviously correct so the closed-form layers can be checked
against it.  Every field is F_p[x]/(f) for one monic irreducible f, a
prime field with f = x, and its tables come from one construction in
integer arithmetic.  Field elements are indices 0..q-1 (0 additive zero,
1 multiplicative unit); an index encodes the coefficient vector of its
residue polynomial in base p.

Vectors are packed into ints.  A vector of n entries is cut into chunks of
k entries, k the largest with q**k <= 256; a chunk holds its entries as
base-q digits (entry i of the chunk is digit i), and chunk c fills bits
8c..8c+7.  Each field keeps tables over chunk values (sums, scalar
multiples, digits, leading entries), so adding or scaling a vector takes
one lookup per chunk: one in all up to n = k (8, 5, 4, 3, 2, 2, 2 for
q = 2, 3, 4, 5, 7, 8, 9).  Chunks of at most 256 values keep those tables
at 256 x 256 entries per field whatever n is; a table over whole vectors
would need q**n x q**n entries, 43 million for n = 4 over F_9.  Each
field builds its chunk tables whole when it is made, one digit at a time
from the field tables, so packing never depends on what was packed
before.  The sum, scale and digit tables hold their rows as ``bytes``,
about a sixth of the memory of rows of ints (see ``FqField``).
A vector of at most k entries is a single chunk, an int below 256, so the
chunk tables act on it whole.  For an n x n matrix with n <= k every
vector is one chunk, and three loops work on chunk values alone: two
elimination kernels, the one-chunk builder of ``_image_chain`` and the
one-chunk loop of ``is_invariant`` (each step one ``clead`` lookup, one
lookup of the row's position and one ``cadd``/``cscale`` lookup), and the
probes p(m) of
``conjugacy_family_of`` (one ``cadd[v][cscale[c][w]]`` per column and
coefficient).  The choice rests on n alone.  Every other elimination is
``_reduce``: a step on operands below 256 is one lookup in line, a longer
one ``_add_scaled``'s loop over chunks, and ``_echelon``, which serves
only ``rank`` and the chain's levels past one chunk, keeps each vector's
non-zero residue.  ``_apply`` sums over the columns directly when they
and x fit one chunk.

A matrix keeps its columns packed.  Dense rows only enter from callers,
through the ``FqMatrix`` constructor, which checks them, and only leave
through the ``rows`` property.  Every matrix computed here (products,
shifts, extensions, enumerations, generalized Jordan matrices) is built on
packed columns by ``_matrix``, unchecked; the polynomial functions check
the coefficients they are given.  Invertibility, Jordan types and
conjugacy classes are all read off one image chain, the echelon bases of
the column spaces of b, b**2, ... while they shrink: that of b**k is b
applied to that of b**(k-1), so no power of b is built, and the chain is
empty exactly when b is invertible.  Every one-row extension of a
unipotent g is classified against g's chain (``extension_classes``).  The probes b = p(m) of a
conjugacy class are combinations of the columns of m**0, m**1, ..., which
are kept for the call, so each p(m) costs no matrix product, and each
irreducible p carries the tag its sieve named it by (``irreducible_polys``).

A subspace has one format: an echelon basis, a dict from the key of each
leading entry to the basis vector with that leading entry.  A fixed flag
is a chain of invariant subspaces, so every flag shape of a matrix reads
one memo, its walk (itself the table of m v for each vector applied): the
invariant subspaces of each dimension asked about, and which of them lie
inside which.  The candidates of each dimension come from one pivot table
per (field, n, d) (``_pivot_table``), which no matrix changes; each is
tested once as a tuple of rows, and only an invariant one is built into a
basis dict.  A matrix then costs the sum of [n choose d]_q tests over
those dimensions d, however few subspaces are invariant.  That suits
callers that ask for every partition of a small n, or for two-part
shapes; a lone many-part shape of a large matrix pays for every
dimension: the complete flags of an F_2 8 x 8 test all 417 197 proper
subspaces of F_2^8.  The memo lives for one matrix, the one asked about
last; asking about another drops it, so callers that keep many matrices
do not keep their walks.
"""

from bisect import bisect_right
from collections import Counter
from functools import cache, lru_cache
from itertools import accumulate, combinations, product

from fqtraces.partitions import Partition, check_partition, partitions_of, transpose
from fqtraces.traces import DiagramFamily

# Every supported field as (p, f): F_p[x]/(f) for f monic and irreducible
# over F_p, f = x for a prime field
_MODULUS = {
    2: (2, (0, 1)),
    3: (3, (0, 1)),
    4: (2, (1, 1, 1)),    # x^2 + x + 1 over F_2
    5: (5, (0, 1)),
    7: (7, (0, 1)),
    8: (2, (1, 1, 0, 1)),  # x^3 + x + 1 over F_2
    9: (3, (1, 0, 1)),    # x^2 + 1 over F_3
}

SUPPORTED_ORDERS = tuple(_MODULUS)

class FqField:
    """A finite field given by full addition/multiplication tables.

    It also holds the chunk tables for packed vectors, indexed by chunk
    value: ``cadd[x][y]``, ``cscale[c][x]``, ``cdigits[x]`` ((i, digit)
    for the nonzero digits) and ``clead[x]`` (the first of those, None for
    0).  They cover every chunk of k entries and are built with the field,
    after its axioms are checked.  Every entry of ``cadd`` and ``cscale``
    is a chunk value below 256, so their rows are ``bytes``, each made
    whole as the build goes.  The four tables of F_2, F_3 or F_4 then hold
    0.09-0.11 MiB and peak at 0.11 MiB while built (tracemalloc), against
    0.55-0.59 MiB as rows of ints; the other fields' tables are smaller.
    """

    __slots__ = ("q", "add", "mul", "neg", "inv", "k", "cadd", "cscale", "cdigits", "clead")

    def __init__(self, q: int, add, mul):
        self.q = q
        self.add = add
        self.mul = mul
        self._validate()
        self.neg = tuple(row.index(0) for row in add)
        self.inv = (None,) + tuple(row.index(1) for row in mul[1:])
        self.k = k = max(j for j in range(1, 9) if q**j <= 256)
        # one top digit a at a time, k times: chunk value a*b + x, x below b
        cadd, cscale, cdigits, clead = [b"\0"], [b"\0"] * q, [()], [None]
        for w in range(k):
            b = q**w
            high = [[add[a][c] * b for c in range(q)] for a in range(q)]
            cadd = [bytes([h + s for h in high[a] for s in row]) for a in range(q) for row in cadd]
            cscale = [
                bytes([mul[c][a] * b + s for a in range(q) for s in row])
                for c, row in enumerate(cscale)
            ]
            cdigits = [ds + ((w, a),) if a else ds for a in range(q) for ds in cdigits]
            clead = [ld or ((w, a) if a else None) for a in range(q) for ld in clead]
        self.cadd, self.cscale = tuple(cadd), tuple(cscale)
        self.cdigits, self.clead = tuple(cdigits), tuple(clead)

    def _validate(self):
        q, add, mul = self.q, self.add, self.mul
        rng = range(q)
        for a in rng:
            if add[a][0] != a or mul[a][1] != a or mul[a][0] != 0:
                raise AssertionError("identity axioms fail")
            if 0 not in add[a]:
                raise AssertionError(f"element {a} has no negative")
            if a and 1 not in mul[a]:
                raise AssertionError(f"element {a} has no inverse")
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
    """Field of order q for q in {2,3,4,5,7,8,9}: F_p[x]/(f) with (p, f) from ``_MODULUS``.

    An element's index is its residue's coefficient vector read in base p.
    Residues are added and multiplied as integer polynomials, reduced from
    the top by the monic f, and each digit is then taken mod p; reducing in
    the integers first gives the same residue, as f is monic.
    """
    if q not in _MODULUS:
        raise ValueError(f"unsupported field order {q}")
    p, f = _MODULUS[q]
    deg = len(f) - 1

    def times(a: list, b: list) -> list:
        out = [0] * (2 * deg - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def index(poly: list) -> int:
        for top in range(len(poly) - 1, deg - 1, -1):
            c = poly[top]
            for j, fj in enumerate(f):
                poly[top - deg + j] -= c * fj
        return sum(c % p * p**j for j, c in enumerate(poly[:deg]))

    vec = [[i // p**j % p for j in range(deg)] for i in range(q)]
    add = tuple(tuple(index([x + y for x, y in zip(a, b)]) for b in vec) for a in vec)
    mul = tuple(tuple(index(times(a, b)) for b in vec) for a in vec)
    return FqField(q, add, mul)


# ---------------------------------------------------------------------------
# Packed vectors and matrices


@cache
def _units(field: FqField, n: int) -> tuple:
    """The packed unit vectors e_0, ..., e_(n-1)."""
    return tuple(field.q ** (j % field.k) << 8 * (j // field.k) for j in range(n))


def _pack(field: FqField, entries) -> int:
    """Packed vector of a sequence of field indices, every entry kept."""
    return sum(e * u for e, u in zip(entries, _units(field, len(entries))))


def _unpack(field: FqField, v: int, n: int) -> tuple:
    """The n field indices of a packed vector."""
    out = [0] * n
    digits, k = field.cdigits, field.k
    base = 0
    while v:
        for i, d in digits[v & 255]:
            out[base + i] = d
        v >>= 8
        base += k
    return tuple(out)


def _all_vectors(field: FqField, n: int) -> list:
    """Every packed vector of n entries, the last entry varying fastest."""
    vecs = [0]
    for u in _units(field, n):
        vecs = [v + c * u for v in vecs for c in range(field.q)]
    return vecs


class FqMatrix:
    """Matrix over F_q, stored as its packed columns.

    The constructor takes rows from a caller and rejects anything but a
    rectangle of ints in range(q); ``rows`` unpacks them again.
    """

    __slots__ = ("field", "nrows", "cols")

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
        self.nrows = len(rows)
        self.cols = tuple(_pack(field, col) for col in zip(*rows))

    @property
    def ncols(self):
        return len(self.cols)

    @property
    def rows(self) -> tuple:
        """The entries as a tuple of rows of field indices."""
        cols = [_unpack(self.field, c, self.nrows) for c in self.cols]
        return tuple(zip(*cols)) if cols else ((),) * self.nrows

    def is_invertible(self) -> bool:
        """Whether m is square with an empty image chain, that is, of full rank."""
        return self.nrows == self.ncols and not _image_chain(self.field, self.cols)

    def __repr__(self):
        return f"FqMatrix(q={self.field.q}, {list(map(list, self.rows))})"


def _matrix(field: FqField, nrows: int, cols: tuple) -> FqMatrix:
    """A matrix computed here from packed columns of nrows entries, not checked."""
    m = object.__new__(FqMatrix)
    m.field = field
    m.nrows = nrows
    m.cols = cols
    return m


def _apply(m: FqMatrix, x: int) -> int:
    """m x for a packed vector x: the columns at x's nonzero entries, scaled and summed.

    When the columns and x each fit one chunk, the sum is taken over the
    columns directly; otherwise each column is added by ``_add_scaled``.
    """
    f = m.field
    add, scale, digits, k = f.cadd, f.cscale, f.cdigits, f.k
    if m.nrows <= k and x < 256:
        acc, cols = 0, m.cols
        for i, d in digits[x]:
            acc = add[acc][scale[d][cols[i]]]
        return acc
    out, cols, base = 0, m.cols, 0
    while x:
        for i, d in digits[x & 255]:
            out = _add_scaled(f, out, d, cols[base + i])
        x >>= 8
        base += k
    return out


def _shift(m: FqMatrix, c: int) -> tuple:
    """The packed columns of m + c*I for a square m."""
    f = m.field
    return tuple([_add_scaled(f, col, c, u) for col, u in zip(m.cols, _units(f, m.nrows))])


def _add_scaled(field: FqField, v: int, c: int, w: int) -> int:
    """v + c*w for packed vectors, one chunk at a time.

    When both fit one chunk (below 256) that is a single lookup.
    """
    add, scale = field.cadd, field.cscale[c]
    if v | w < 256:
        return add[v][scale[w]]
    out = pos = 0
    while v or w:
        out |= add[v & 255][scale[w & 255]] << pos
        v >>= 8
        w >>= 8
        pos += 8
    return out


def _reduce(field: FqField, basis: dict, v: int) -> int:
    """Packed v reduced by an echelon basis until its leading entry is not a
    pivot: 0 exactly when v lies in the span."""
    lead, neg, add, scale = field.clead, field.neg, field.cadd, field.cscale
    while v:
        sh = (v & -v).bit_length() - 1 & -8
        i, d = lead[v >> sh & 255]
        b = basis.get(sh + i)
        if b is None:
            break
        v = add[v][scale[neg[d]][b]] if v | b < 256 else _add_scaled(field, v, neg[d], b)
    return v


def _echelon(field: FqField, vecs) -> dict:
    """Echelon basis of the span of packed vectors.

    Maps a key of each leading entry (8 * chunk + position in the chunk) to
    the basis vector with that leading entry, scaled to lead with 1: each
    vector's non-zero residue by ``_reduce``, in order.
    """
    lead, inv, scale = field.clead, field.inv, field.cscale
    basis = {}
    for v in vecs:
        v = _reduce(field, basis, v)
        if v:
            sh = (v & -v).bit_length() - 1 & -8
            i, d = lead[v >> sh & 255]
            basis[sh + i] = scale[inv[d]][v] if v < 256 else _add_scaled(field, 0, inv[d], v)
    return basis


def rank(field: FqField, rows) -> int:
    """Rank of packed vectors."""
    return len(_echelon(field, rows))


def _jordan_type(n: int, chain: list, d: int = 1) -> tuple[Partition, int]:
    """Jordan type of m at p, read off b = p(m) for p irreducible of degree d,
    and the dimension of the generalized kernel of b; b is n x n and
    ``chain`` is its image chain from ``_image_chain``.

    The kernel of b**k grows by d times the number of Jordan blocks of size
    at least k until it is the generalized kernel; those counts are the
    columns of the Jordan type, read off the sizes of the chain's levels.
    """
    jumps, prev = [], 0
    for level in chain:
        step = n - len(level) - prev
        if step % d:
            raise AssertionError("kernel jump not divisible by factor degree")
        jumps.append(step // d)
        prev = n - len(level)
    return transpose(tuple(jumps)), prev


def _image_chain(field: FqField, cols: tuple) -> list:
    """The echelon bases of im b, im b**2, ... while their dimension falls,
    for b with packed columns: one loop on chunk values for n <= k, else
    ``_echelon`` and ``_apply`` per level.  It is empty exactly when b is
    invertible.
    """
    n, chain = len(cols), []
    if n > field.k:
        b, rank, image = _matrix(field, n, cols), n, _echelon(field, cols)
        while len(image) < rank:
            rank = len(image)
            chain.append(image)
            image = _echelon(field, [_apply(b, v) for v in image.values()])
        return chain
    lead, neg, inv, add, scale, digits = (
        field.clead, field.neg, field.inv, field.cadd, field.cscale, field.cdigits
    )
    rank, vecs = n, cols
    while True:
        image = {}
        for v in vecs:
            while v:
                i, c = lead[v]
                w = image.get(i)
                if w is None:
                    image[i] = scale[inv[c]][v]
                    break
                v = add[v][scale[neg[c]][w]]
        if len(image) == rank:
            return chain
        rank = len(image)
        chain.append(image)
        vecs = []
        for v in image.values():
            acc = 0
            for i, c in digits[v]:
                acc = add[acc][scale[c][cols[i]]]
            vecs.append(acc)


def all_matrices(field: FqField, n: int):
    """All n x n matrices (use only for tiny n)."""
    for cols in product(_all_vectors(field, n), repeat=n):
        yield _matrix(field, n, cols)


def unipotent_matrices(field: FqField, n: int):
    """All unipotent elements of the full matrix group: b + 1 for each nilpotent b scanned."""
    for b in all_matrices(field, n):
        if _jordan_type(n, _image_chain(field, b.cols))[1] == n:
            yield _matrix(field, n, _shift(b, 1))


def unipotent_upper_triangular(field: FqField, n: int):
    """All upper-triangular matrices with unit diagonal."""
    unit = _units(field, n)
    choices = [[v + unit[j] for v in _all_vectors(field, j)] for j in range(n)]
    for cols in product(*choices):
        yield _matrix(field, n, cols)


def unipotent_class_of(m: FqMatrix) -> Partition:
    """Jordan type of a unipotent matrix, via kernel jumps of (m - I)**k."""
    return _unipotent_chain(m)[0]


def _unipotent_chain(m: FqMatrix) -> tuple:
    """The Jordan type of a unipotent m, the packed columns of b = m - 1
    and b's image chain; any other m is refused."""
    n = m.nrows
    if m.ncols == n:
        b = _shift(m, m.field.neg[1])
        chain = _image_chain(m.field, b)
        lam, dim = _jordan_type(n, chain)
        if dim == n:
            return lam, b, chain
    raise ValueError("matrix is not unipotent")


# ---------------------------------------------------------------------------
# Subspace and flag enumeration (a subspace is an echelon basis as from _echelon)


@cache
def _pivot_table(field: FqField, n: int, d: int) -> tuple:
    """The candidates for the d-dimensional subspaces of F_q**n, as one
    entry (slot, keys, choices) per pivot set in ``combinations(range(n), d)``
    order.

    ``keys`` holds the key of each pivot's leading entry, as in
    :func:`_echelon`, ``slot`` maps each key to its row's position, and
    ``choices`` holds, for each pivot, the packed rows it may take: 1 at the
    pivot, 0 at the other pivots and before it, anything at the free columns
    after it.  ``product(*choices)`` then yields each reduced echelon basis
    with those pivots, so the table names each subspace once, [n choose d]_q
    in all, without building one of them.  Bound: per (field, n, d), the sum
    over pivot sets of the sum over rows i of q**(free columns of row i)
    packed ints.  Every level of F_2**8 takes 0.13 MiB (tracemalloc); its
    417 199 bases as dicts would take 94 MiB.
    """
    q, unit, k = field.q, _units(field, n), field.k
    table = []
    for pivots in combinations(range(n), d):
        choices = []
        for p in pivots:
            row = [unit[p]]
            for j in range(p + 1, n):
                if j not in pivots:
                    row = [v + c * unit[j] for v in row for c in range(q)]
            choices.append(tuple(row))
        keys = tuple(8 * (p // k) + p % k for p in pivots)
        table.append(({key: j for j, key in enumerate(keys)}, keys, tuple(choices)))
    return tuple(table)


def is_invariant(walk: "_FlagWalk", slot: dict, rows: tuple) -> bool:
    """Whether m maps the span of ``rows`` into itself, by elimination on
    leading entries; ``rows`` is a reduced echelon basis and ``slot`` maps
    the key of each row's leading entry to its position, as in
    ``_pivot_table``.

    ``walk[v]`` is m v, for every row.  When m is n x n with n <= k, every
    image is one chunk and each step is one ``clead`` lookup, one ``slot``
    lookup and one ``cadd``/``cscale`` lookup; otherwise the rows become a
    basis dict and ``_reduce`` reduces.
    """
    field = walk.m.field
    if walk.m.nrows <= field.k:
        lead, neg, add, scale = field.clead, field.neg, field.cadd, field.cscale
        for v in rows:
            v = walk[v]
            while v:
                i, d = lead[v]
                j = slot.get(i)
                if j is None:
                    return False
                v = add[v][scale[neg[d]][rows[j]]]
        return True
    sub = dict(zip(slot, rows))
    return not any(_reduce(field, sub, walk[v]) for v in rows)


def count_fixed_flags(m: FqMatrix, mu: tuple) -> int:
    """Number of invariant flags with subspace dimensions mu_1, mu_1+mu_2, ...

    One pass up the dimensions d strictly between 0 and n: the chains that
    end at each invariant W are summed over the invariant V just below it.
    """
    n = m.nrows
    if m.ncols != n:
        raise ValueError(f"fixed flags need a square matrix, not {n} x {m.ncols}")
    mu = tuple(mu)
    if any(type(p) is not int or p < 0 for p in mu):
        raise ValueError(f"flag shape must have non-negative int parts: {mu!r}")
    if sum(mu) != n:
        raise ValueError("flag shape must sum to the matrix size")
    dims = [d for part, d in zip(mu, accumulate(mu)) if part and d < n]
    if not dims:
        return 1
    walk = _flag_walk(m)
    counts = [1] * len(walk.level(dims[0]))
    for a, b in zip(dims, dims[1:]):
        counts = [sum(counts[i] for i in inside) for inside in walk.below(a, b)]
    return sum(counts)


@lru_cache(maxsize=1)
def _flag_walk(m: FqMatrix) -> "_FlagWalk":
    """The flag memo of the matrix asked about last; asking about another drops it."""
    return _FlagWalk(m)


class _FlagWalk(dict):
    """The invariant subspaces of one matrix, by dimension; as a dict, v -> m v.

    A missing v is applied on lookup.  ``levels[d]`` holds ``level(d)`` and
    ``inside[a, b]`` holds ``below(a, b)``, each built once.  The candidates
    come from ``_pivot_table``, shared by every matrix of one size and
    field; the walk holds basis dicts for the invariant subspaces alone.
    """

    __slots__ = ("m", "levels", "inside")

    def __init__(self, m: FqMatrix):
        self.m = m
        self.levels, self.inside = {}, {}

    def __missing__(self, v: int) -> int:
        w = self[v] = _apply(self.m, v)
        return w

    def level(self, d: int) -> list:
        """The invariant subspaces of dimension d, as basis dicts: each of
        the [n choose d]_q candidates of ``_pivot_table`` tested once, as a
        tuple of rows, and only those that pass built into a dict."""
        subs = self.levels.get(d)
        if subs is None:
            field, n = self.m.field, self.m.nrows
            subs = self.levels[d] = [
                dict(zip(keys, rows))
                for slot, keys, choices in _pivot_table(field, n, d)
                for rows in product(*choices)
                if is_invariant(self, slot, rows)
            ]
        return subs

    def below(self, a: int, b: int) -> list:
        """For each subspace of ``level(b)``, the indices in ``level(a)`` of
        those inside it: those whose basis lies among its q**b vectors."""
        inside = self.inside.get((a, b))
        if inside is None:
            field, lower = self.m.field, self.level(a)
            inside = self.inside[a, b] = []
            for w in self.level(b):
                span = {0}
                for u in w.values():
                    span = {_add_scaled(field, v, c, u) for v in span for c in range(field.q)}
                inside.append([i for i, sub in enumerate(lower) if span.issuperset(sub.values())])
        return inside


def ext_enumerate(g: FqMatrix, variant: str):
    """One-row parabolic extensions of g: last column free, last row zero.

    The new diagonal entry runs over nonzero scalars for the "GLB"
    variant and is pinned to 1 for "GLU".
    """
    if variant not in ("GLB", "GLU"):
        raise ValueError(f"unknown extension variant {variant!r}")
    f = g.field
    n = g.nrows
    if g.ncols != n:
        raise ValueError(f"extensions need a square matrix, not {n} x {g.ncols}")
    corners = range(1, f.q) if variant == "GLB" else (1,)
    last = _units(f, n + 1)[n]
    return [
        _matrix(f, n + 1, g.cols + (col + corner * last,))
        for col in _all_vectors(f, n)
        for corner in corners
    ]


def extension_classes(g: FqMatrix) -> tuple[Partition, Counter]:
    """The Jordan type lam of a unipotent g and those of its "GLU"
    extensions h = [[g, v], [0, 1]], each v counted, from the one image
    chain of b = g - 1.

    (h - 1)**k = [[b**k, b**(k-1) v], [0, 0]], so rank (h - 1)**k is
    rank b**k plus 1 while b**(k-1) v is not in im b**k; if that holds for
    j values of k, h's type is lam with one box added in column j + 1.
    """
    lam, b, chain = _unipotent_chain(g)
    field, m = g.field, _matrix(g.field, g.nrows, b)
    heights = transpose(lam) + (0,)  # heights[j]: how many parts of lam exceed j
    out = Counter()
    for v in _all_vectors(field, g.nrows):
        j = 0
        for level in chain:
            if not _reduce(field, level, v):
                break
            v = _apply(m, v)
            j += 1
        i = heights[j]
        out[lam[:i] + (j + 1,) + lam[i + 1 :]] += 1
    return lam, out


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


def _check_poly(field: FqField, poly, monic: bool = False) -> tuple:
    """A caller's coefficients: ints in range(q), constant term first, leading one nonzero.

    ``monic`` also asks for a leading 1 and a positive degree.
    """
    poly = tuple(poly)
    if (
        not poly
        or any(type(c) is not int or not 0 <= c < field.q for c in poly)
        or poly[-1] == 0
        or (monic and (poly[-1] != 1 or len(poly) == 1))
    ):
        what = "a monic polynomial" if monic else "a polynomial"
        degree = " of positive degree" if monic else ""
        raise ValueError(f"{poly!r} is not {what} over F_{field.q}{degree}")
    return poly


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
    """(tag, poly) for each monic irreducible poly of degree d, tagged once by
    ``poly_name``; degree 1 runs over x - a by root a, leaving out x itself.

    A sieve: the reducible ones are the products of monic polynomials of
    degrees e and d - e for 1 <= e <= d/2.
    """
    field = field_make(q)
    monic = [[tail + (1,) for tail in product(range(q), repeat=e)] for e in range(d + 1)]
    reducible = {
        poly_mul(field, a, b) for e in range(1, d // 2 + 1) for a in monic[e] for b in monic[d - e]
    }
    polys = [(field.neg[a], 1) for a in range(1, q)] if d == 1 else monic[d]
    return tuple((poly_name(field, poly), poly) for poly in polys if poly not in reducible)


def jordan_block_matrix(field: FqField, blocks) -> FqMatrix:
    """Generalized Jordan matrix of ``(poly, lam)`` pairs, laid on the diagonal in order.

    Every poly (monic, of positive degree) and every partition is checked
    before anything is built.  Each part of ``lam`` is a chain of that
    many companion blocks of ``poly``, each linked to the one before by an
    identity block above the diagonal.  In a companion block of degree d,
    column i < d - 1 is the unit vector one row down and the last column
    is minus the coefficients.
    """
    blocks = [
        (_check_poly(field, poly, monic=True), check_partition(lam)) for poly, lam in blocks
    ]
    n = sum((len(poly) - 1) * sum(lam) for poly, lam in blocks)
    unit = _units(field, n)
    cols = []
    for poly, lam in blocks:
        d = len(poly) - 1
        minus = tuple(field.neg[c] for c in poly[:-1])
        for part in lam:
            for b in range(part):
                top = len(cols)
                # after the first block of a chain, column j also holds
                # the linking identity block's one, in row j - d
                for j in range(top, top + d):
                    col = unit[j + 1] if j < top + d - 1 else _pack(field, (0,) * top + minus)
                    cols.append(col + unit[j - d] if b else col)
    return _matrix(field, len(cols), tuple(cols))


def conjugacy_family_of(m: FqMatrix) -> DiagramFamily:
    """Conjugacy class of an invertible matrix as a family of diagrams.

    Factors the action by probing irreducible polynomials by degree: the
    generalized kernel filtration of p(m) gives the Jordan data at p, and
    p(m) is a combination of the kept powers of m.  When degree d is
    probed, every factor of lower degree is found, so the r dimensions left
    are d j for the factors of degree d, j >= 1, plus 0 or more than d for
    those above: a degree-d factor can occur only if r = d or r >= 2 d.
    """
    if not m.is_invertible():
        raise ValueError("conjugacy families are defined for invertible matrices")
    field = m.field
    n = m.nrows
    add, scale = field.cadd, field.cscale
    one_chunk = n <= field.k
    powers = [_units(field, n)]  # the columns of m**0, m**1, ..., up to the degree probed
    blocks = []
    covered = 0
    for d in range(1, n + 1):
        if d > n - covered:
            break
        powers.append(tuple([_apply(m, v) for v in powers[-1]]))
        for tag, poly in irreducible_polys(field.q, d):
            left = n - covered
            if left != d and left < 2 * d:
                break
            cols = (0,) * n
            for c, pcols in zip(poly, powers):
                if not c:
                    continue
                if one_chunk:
                    sc = scale[c]
                    cols = tuple([add[v][sc[w]] for v, w in zip(cols, pcols)])
                else:
                    cols = tuple([_add_scaled(field, v, c, w) for v, w in zip(cols, pcols)])
            lam, dim = _jordan_type(n, _image_chain(field, cols), d)
            if dim:
                blocks.append((tag, d, lam))
                covered += dim
    if covered != n:
        raise AssertionError("factorization did not exhaust the space")
    return DiagramFamily(tuple(blocks))


def polys_by_tag(q: int, max_degree: int) -> dict:
    """Display tag -> coefficient tuple for all irreducibles up to a degree."""
    return {tag: poly for d in range(1, max_degree + 1) for tag, poly in irreducible_polys(q, d)}


def families_enumerate(n: int, q: int) -> list[DiagramFamily]:
    """All families of total weighted size n over the actual irreducibles."""
    polys = sorted((len(poly) - 1, tag) for tag, poly in polys_by_tag(q, n).items())
    degrees = [d for d, _ in polys]
    out = []

    def rec(start: int, remaining: int, acc: list):
        # one frame per block: the next block sits on some poly j >= start
        # of degree <= remaining, tried from the last such j down
        if remaining == 0:
            out.append(DiagramFamily(tuple(acc)))
            return
        for j in range(bisect_right(degrees, remaining) - 1, start - 1, -1):
            d, tag = polys[j]
            for k in range(1, remaining // d + 1):
                for lam in partitions_of(k):
                    acc.append((tag, d, lam))
                    rec(j + 1, remaining - d * k, acc)
                    acc.pop()

    rec(0, n, [])
    return out
