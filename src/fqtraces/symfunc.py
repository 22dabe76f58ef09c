"""Exact symmetric functions in the power-sum basis.

A degree-n function is an integer row (D, c_rho), sum_rho c_rho p_rho / D
in ``partitions_of(n)`` order, the only format in production.
:class:`PowerSumElement`, with `Fraction` coefficients, and its views
:func:`hl_q_in_p`, :func:`modified_hl_q`, :func:`schur_in_p`,
:func:`schur_expand`, :func:`plethysm_pl` and :func:`sym_character` have
no caller in the library; they stay only because the benchmark's tracer
and workloads name them.
Schur functions enter through one integer character table per degree; every
Schur coefficient of a row is one integer dot product with a table row.
The per-degree tables follow the blocks of ``partitions_of(n)`` by first
part: the partitions with first part k are (k,) + sigma, sigma over a
tail of ``partitions_of(n - k)`` (:func:`~fqtraces.partitions.first_part_blocks`),
so the partition codes and beta-set masks of block k shift a tail of
those of degree n - k, and the character table's column block k sums, by
Murnaghan-Nakayama, signed tails of rows of the degree n - k table, one
per border k-strip, each strip found on a beta-set bitmask.
Hall-Littlewood Q functions come from Jing's vertex operator, Q_lam =
H_{lam_1} Q_{lam[1:]} on the kept Q of the tail, up to
:data:`EXACT_HL_DEGREE_CAP`; each step is computed in integers over one
denominator, on partition codes: a partition is one integer whose digits
in base cap + 1 are its part multiplicities, so the index of a product
p_rho p_sigma is one addition and one lookup, and the expansion of each
p_rho under p_k -> p_k - z**-k is read from a t-free table per degree.
Each Q_lam(t) is kept as an integer row, which specializations evaluate as
one dot product; :func:`modified_hl_q_row` rescales each ``p_k`` by
``1/(1 - t**k)``.  Kostka numbers count tableaux by a recursion over
horizontal strips; charge-weighted Kostka polynomials (:class:`TPolynomial`)
come from tableau enumeration, up to the same degree cap, and are the
independent check on the operator.

Character tables, Schur functions, Kostka numbers, charge polynomials, the
beta-set masks, partition codes, class sizes and p_rho expansions of each
degree, and Hall-Littlewood Q functions (per lam and the integers of t;
the series coefficients q_N of the operator are the one-row Q_(N) in the
same table)
are memoized in module-level ``functools.cache`` tables, so repeated
queries reuse them and ``cache_clear`` drops them.
"""

from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul, neg, sub

from fqtraces.partitions import (
    Partition,
    check_partition,
    first_part_blocks,
    format_partition,
    hook_lengths,
    partitions_of,
    size,
    z_factor,
)
from fqtraces.specializations import power_products


class PowerSumElement:
    """A symmetric function stored as {index partition: rational coefficient}.

    The index partition ``rho`` stands for the product ``p_rho1 * p_rho2 * ...``
    of Newton power sums.  Zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[Partition, Fraction] = {}
        for rho, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[check_partition(rho)] = c
        self.terms = clean

    @classmethod
    def one(cls) -> "PowerSumElement":
        return cls({(): 1})

    def __eq__(self, other):
        return isinstance(other, PowerSumElement) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for rho, c in other.terms.items():
            out[rho] = out.get(rho, Fraction(0)) + c
        return PowerSumElement(out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PowerSumElement({rho: c * other for rho, c in self.terms.items()})
        if not isinstance(other, PowerSumElement):
            return NotImplemented
        out: dict[Partition, Fraction] = {}
        for rho, a in self.terms.items():
            for sigma, b in other.terms.items():
                key = tuple(sorted(rho + sigma, reverse=True))
                out[key] = out.get(key, Fraction(0)) + a * b
        return PowerSumElement(out)

    __rmul__ = __mul__

    def degree(self) -> int:
        """Degree of a homogeneous element (raises if mixed)."""
        degs = {size(rho) for rho in self.terms}
        if len(degs) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop() if degs else 0

    def __repr__(self):
        if not self.terms:
            return "PowerSumElement(0)"
        bits = [
            f"{c}*p[{format_partition(rho)}]"
            for rho, c in sorted(self.terms.items(), reverse=True)
        ]
        return "PowerSumElement(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# Symmetric group characters and Schur functions


@cache
def _beta_masks(n: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """Every beta-set mask of degree n, in ``partitions_of(n)`` order, and mask -> index.

    The mask of lam, with l parts, sets bit lam_i + l - 1 - i of each part.
    The parts of lam[1:] keep their bits, so the mask of (k,) + sigma is
    sigma's with bit k + l(sigma) set: each first-part block is built from
    a tail of the masks of degree n - k.
    """
    masks = [] if n else [0]
    for k, start in first_part_blocks(n):
        masks += (b | 1 << (k + b.bit_count()) for b in _beta_masks(n - k)[0][start:])
    return tuple(masks), {mask: i for i, mask in enumerate(masks)}


@cache
def _character_table(n: int) -> tuple[tuple[tuple[int, ...], ...], dict[Partition, int]]:
    """Every chi^lam(rho) of degree n, and the index of each partition.

    Row lam, column rho, both in ``partitions_of(n)`` order.  The columns
    whose rho has first part k form one block, rho = (k,) + sigma with
    sigma over a tail of ``partitions_of(n - k)``.  By Murnaghan-Nakayama
    (Macdonald, *Symmetric Functions and Hall Polynomials*, I.7, Ex. 5)
    that block of row lam is the sum, over the border k-strips of lam, of
    plus or minus the row of lam minus the strip in the degree n - k table,
    read from the tail's start.  On lam's beta-set mask a k-strip moves a
    set bit b down to a clear bit b - k; its sign is the parity of the set
    bits it passes, and the mask of lam minus the strip is the new mask with
    its trailing ones, the zero parts, shifted off.
    """
    order = partitions_of(n)
    index = {lam: i for i, lam in enumerate(order)}
    if n == 0:
        return ((1,),), index
    # per first part k: the rows and mask index of degree n - k, the tail's
    # start and its width
    blocks = []
    for k, start in first_part_blocks(n):
        sub_rows = _character_table(n - k)[0]
        blocks.append((k, sub_rows, _beta_masks(n - k)[1], start, len(sub_rows) - start))
    rows = []
    for mask in _beta_masks(n)[0]:
        row: list[int] = []
        for k, sub_rows, sub_index, start, width in blocks:
            block = None
            # the set bits b >= k whose b - k is clear
            movable = mask >> k << k & ~(mask << k)
            while movable:
                low = movable & -movable
                movable ^= low
                moved = mask ^ low ^ low >> k
                key = moved >> (((moved + 1) & ~moved).bit_length() - 1)
                src = sub_rows[sub_index[key]][start:]
                odd = (mask & (low - (low >> k))).bit_count() & 1
                if block is None:
                    block = list(map(neg, src)) if odd else src
                else:
                    block = list(map(sub if odd else add, block, src))
            row += block or [0] * width
        rows.append(tuple(row))
    return tuple(rows), index


@cache
def sym_character(lam: Partition, rho: Partition) -> int:
    """Character value chi^lam(rho) of the symmetric group, for |lam| = |rho|."""
    table, index = _character_table(size(lam))
    return table[index[lam]][index[rho]]


@cache
def schur_in_p(lam: Partition) -> PowerSumElement:
    """Schur function expanded over power sums: s_lam = sum_rho chi^lam(rho) p_rho / z_rho."""
    lam = check_partition(lam)
    n = size(lam)
    table, index = _character_table(n)
    return PowerSumElement(
        {
            rho: Fraction(chi, z_factor(rho))
            for rho, chi in zip(partitions_of(n), table[index[lam]])
            if chi
        }
    )


@cache
def _class_sizes(n: int) -> tuple[int, ...]:
    """n!/z_rho, the size of the class of cycle type rho in S_n, in ``partitions_of(n)`` order.

    t-free, one entry per degree that :func:`class_vector` is asked for:
    the trace coefficients stop at ``COEFFICIENT_DEGREE_CAP`` = 20 and Q
    at :data:`EXACT_HL_DEGREE_CAP`, so the table holds at most 21 entries,
    627 ints at degree 20.  They sum to n!.
    """
    whole = factorial(n)
    return tuple(whole // z_factor(rho) for rho in partitions_of(n))


def class_vector(pair, n: int) -> tuple[int, list[int]]:
    """(D, [D * p_rho / z_rho for rho in partitions_of(n)]), p_k = N_k / D_k from ``pair(k)``.

    With p_rho = P_rho / E over the one denominator of
    :func:`~fqtraces.specializations.power_products`, D = n! * E and the
    entry of rho is n!/z_rho * P_rho, n!/z_rho read from the kept
    :func:`_class_sizes`.  As h_n = sum_rho p_rho / z_rho, this is h_n
    specialized, and its :func:`schur_coefficients` are the s_lam.
    """
    den, values = power_products(pair, partitions_of(n))
    return factorial(n) * den, list(map(mul, _class_sizes(n), values))


def schur_coefficients(row: tuple[int, list[int]], n: int) -> list[Fraction]:
    """Every s_lam coefficient of sum_rho c_rho p_rho / D, both in ``partitions_of(n)`` order.

    As p_rho = sum_lam chi^lam(rho) s_lam, each is one integer dot product
    of the row (D, c) with a row of the character table, over D.
    """
    den, coeffs = row
    return [Fraction(sum(map(mul, chi, coeffs)), den) for chi in _character_table(n)[0]]


def schur_expand(f: PowerSumElement) -> dict[Partition, Fraction]:
    """Coefficients d_lam with f = sum d_lam s_lam, for homogeneous f.

    A view of :func:`schur_coefficients` on f's p-coefficients over their
    common denominator; the nonzero d_lam, in ``partitions_of`` order.
    """
    n = f.degree()
    den = lcm(*(c.denominator for c in f.terms.values()))
    row = [int(f.terms.get(rho, 0) * den) for rho in partitions_of(n)]
    return {lam: d for lam, d in zip(partitions_of(n), schur_coefficients((den, row), n)) if d}


# ---------------------------------------------------------------------------
# Tableau enumeration, Kostka numbers, charge


def _strip_removals(shape: Partition, m: int) -> list[Partition]:
    """Partitions obtained from ``shape`` by removing a horizontal m-strip."""
    rows = len(shape)
    out: list[Partition] = []

    def rec(i: int, need: int, acc: list[int]):
        if i == rows:
            if need == 0:
                out.append(tuple(p for p in acc if p))
            return
        lo = shape[i + 1] if i + 1 < rows else 0
        # row i keeps t boxes: it gives up at most need of them, and the rows
        # below can give up at most lo, so every t tried completes a strip
        for t in range(max(lo, shape[i] - need), min(shape[i], shape[i] - need + lo) + 1):
            acc.append(t)
            rec(i + 1, need - (shape[i] - t), acc)
            acc.pop()

    rec(0, m, [])
    return out


def _ssyt_chains(shape: Partition, content: Partition):
    """All chains of shapes realizing column-strict fillings.

    A filling with ``content[i-1]`` copies of letter i is the same thing as
    a chain () = nu0 <= nu1 <= ... <= nuk = shape where consecutive shapes
    differ by a horizontal strip.
    """

    def rec(cur: Partition, i: int):
        if i == 0:
            if not cur:
                yield ((),)
            return
        for smaller in _strip_removals(cur, content[i - 1]):
            for chain in rec(smaller, i - 1):
                yield chain + (cur,)

    yield from rec(tuple(shape), len(content))


def _reading_word(chain) -> list[int]:
    """Row word of the filling encoded by a chain: rows right to left, top down."""
    shape = chain[-1]
    word: list[int] = []
    for r in range(len(shape)):
        row: list[int] = []
        for i in range(1, len(chain)):
            prev = chain[i - 1][r] if r < len(chain[i - 1]) else 0
            cur = chain[i][r] if r < len(chain[i]) else 0
            row.extend([i] * (cur - prev))
        word.extend(reversed(row))
    return word


def charge(word) -> int:
    """Charge of a word with partition content.

    Extraction pass: scan cyclically to the right, starting at the left
    end; pick the first 1, then the first 2 after it, and so on up to the
    largest remaining letter.  Each letter contributes the number of times
    the scan has wrapped around since the pass started (so on a standard
    word the index of r+1 exceeds that of r exactly when r+1 sits to the
    left of r).  Marked letters are removed and passes repeat until the
    word is exhausted; the charge is the total over all passes.

    This reproduces the charge-weighted Kostka polynomials; the test
    suite pins it against two independent Hall-Littlewood constructions.
    """
    w = list(word)
    nw = len(w)
    alive = [True] * nw
    remaining = nw
    total = 0
    while remaining:
        top = max(w[i] for i in range(nw) if alive[i])
        pos = 0
        index = 0
        for letter in range(1, top + 1):
            while not (alive[pos] and w[pos] == letter):
                pos += 1
                if pos == nw:
                    pos = 0
                    if letter > 1:
                        index += 1
            if letter > 1:
                total += index
            alive[pos] = False
            remaining -= 1
    return total


# kostka recurses once per content part above 1, so a few hundred parts
# overflow the stack.  The time is set by the shapes the strip removals
# reach: on the near-staircase (11,10,...,3,1), content 1^64 takes under
# 1 ms, 2^8 1^48 1.7 s and 2^32 5.5 s (fresh process, Xeon, Python 3.11).
# The CLI refuses the last two before any work, by a bound on those shapes
# (KOSTKA_DIAGRAM_CAP in fqtraces.cli); the recursion checks nothing.
KOSTKA_CONTENT_CAP = 64


@cache
def kostka(shape: Partition, content: Partition) -> int:
    """Number of column-strict fillings of ``shape`` with given content."""
    shape = check_partition(shape)
    content = check_partition(content)
    if len(content) > KOSTKA_CONTENT_CAP:
        raise ValueError(
            f"Kostka numbers capped at {KOSTKA_CONTENT_CAP} content parts; got {len(content)}"
        )
    if size(shape) != size(content):
        raise ValueError("kostka requires |shape| = |content|")
    if len(shape) > len(content):
        # a column of letters 1..len(content) is strictly increasing
        return 0
    if not content or content[0] == 1:
        # standard fillings, by the hook length formula
        return factorial(size(shape)) // prod(hook_lengths(shape))
    # the count does not depend on the order of the parts, so the largest
    # letter takes content[0] boxes, and the ones are left to the hooks
    return sum(kostka(smaller, content[1:]) for smaller in _strip_removals(shape, content[0]))


# The slowest Q_lam at degree 16, lam = 1^16, takes about 0.03 s in a fresh
# process, its tails and code tables included, and so do the character
# tables up to degree 16 (2-vCPU Xeon, Python 3.11); both costs
# grow two to three times every two degrees.  The Q memo refuses larger
# degrees before it builds a row.
# Charge enumeration stops there too: at 16 it visits up to 1.2M tableaux.
EXACT_HL_DEGREE_CAP = 16


class TPolynomial(tuple):
    """Integer coefficients of a polynomial in t, constant term first."""

    __slots__ = ()

    def __call__(self, t):
        """Evaluate at an exact rational point by Horner's rule."""
        value = Fraction(0)
        for c in reversed(self):
            value = value * t + c
        return value


@cache
def kostka_foulkes(shape: Partition, content: Partition) -> TPolynomial:
    """Charge generating polynomial over fillings of ``shape`` with ``content``.

    Evaluating at t = 1 recovers :func:`kostka`.  The coefficients run up
    to the largest charge, so the last one is nonzero; no filling gives
    the empty polynomial.
    """
    shape = check_partition(shape)
    content = check_partition(content)
    if size(shape) > EXACT_HL_DEGREE_CAP:
        raise ValueError(
            f"charge enumeration capped at degree {EXACT_HL_DEGREE_CAP}; "
            f"got degree {size(shape)}"
        )
    if size(shape) != size(content):
        raise ValueError("kostka_foulkes requires |shape| = |content|")
    coeffs: dict[int, int] = {}
    for chain in _ssyt_chains(shape, content):
        c = charge(_reading_word(chain))
        coeffs[c] = coeffs.get(c, 0) + 1
    return TPolynomial(coeffs.get(i, 0) for i in range(max(coeffs, default=-1) + 1))


# ---------------------------------------------------------------------------
# Hall-Littlewood Q


# Jing's step works on partition codes: a partition's code is the sum over
# its parts k of _CODE_BASE**(k - 1), so its base-B digits are the part
# multiplicities and the code of rho U sigma is code(rho) + code(sigma).  A
# partition of n <= EXACT_HL_DEGREE_CAP has no multiplicity above n, so no
# digit carries and distinct partitions get distinct codes.  The tables
# below are t-free, one entry per degree up to the cap: 1.6 MiB in all.
_CODE_BASE = EXACT_HL_DEGREE_CAP + 1


@cache
def _codes(n: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """The code of every partition of n in ``partitions_of(n)`` order, and code -> index.

    The code of (k,) + sigma is _CODE_BASE**(k - 1) plus sigma's, so each
    first-part block is one shift of a tail of the codes of degree n - k.
    """
    codes = [] if n else [0]
    for k, start in first_part_blocks(n):
        codes += map((_CODE_BASE ** (k - 1)).__add__, _codes(n - k)[0][start:])
    return tuple(codes), {code: i for i, code in enumerate(codes)}


@cache
def _drops(n: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For each rho of n, in ``partitions_of(n)`` order, p_rho[p_k -> p_k - z**-k].

    Each term is (m, code of the rest, coefficient of z**-m times the rest).
    p_rho expands binomially, one factor (p_k - z**-k)**m_k per distinct part
    k; dropping j copies of p_k contributes (-1)**j * C(m_k, j) * z**(-k j).
    """
    out = []
    for rho, code in zip(partitions_of(n), _codes(n)[0]):
        terms = [(0, code, 1)]
        for k in set(rho):
            mk, digit = rho.count(k), _CODE_BASE ** (k - 1)
            terms = [
                (m + k * j, rest - digit * j, c * (-1) ** j * comb(mk, j))
                for m, rest, c in terms
                for j in range(mk + 1)
            ]
        out.append(tuple(terms))
    return tuple(out)


def check_hl_degree(n: int):
    """Refuse, before any work, a Hall-Littlewood Q function above the degree cap."""
    if n > EXACT_HL_DEGREE_CAP:
        raise ValueError(
            f"exact Hall-Littlewood Q capped at degree {EXACT_HL_DEGREE_CAP}; got degree {n}"
        )


@cache
def _hl_q(lam: Partition, t_num: int, t_den: int) -> tuple[int, tuple[int, ...]]:
    """Q_lam(t) as (D, row), for a checked lam and t = t_num / t_den in lowest terms, t_den > 0.

    The key holds t as its integers, which hash in C, where a `Fraction`
    key runs ``Fraction.__hash__`` in Python on every lookup; a reader
    that has them builds no `Fraction`.  Above :data:`EXACT_HL_DEGREE_CAP`
    it raises before any work and, as the cache keeps no exception, leaves
    the memo as it was; every kept row is under the cap, so a hit costs no
    check.

    The coefficient of p_rho is row[i] / D, with rho the i-th partition of
    ``partitions_of(|lam|)``; D and the row are divided by their gcd, so D
    is the least common denominator of the coefficients.  A lam of at most
    one row is the series coefficient q_n of Q(z) = exp(sum_k (1 - t**k)
    p_k z**k / k), which is h_n at p_k -> 1 - t**k.  For t = a/b every p_rho
    there is over b**n, so the row is the :func:`class_vector` of the
    integers b**k - a**k, with its denominator times b**n.  Any other lam is
    H_{lam_1} Q_{lam[1:]}, with the tail and every q_{lam_1 + m} read from
    this memo; the step stays in integers, every term lifted to the lcm of
    the q denominators.  The tail's p_rho expand by :func:`_drops` into
    terms keyed by code, and each product of a term with a p_rho of
    q_{lam_1 + m} lands at the index of the sum of their codes.
    """
    n = size(lam)
    check_hl_degree(n)
    if len(lam) < 2:
        den, row = class_vector(lambda k: (t_den**k - t_num**k, 1), n)
        den *= t_den**n
    else:
        tail_den, tail = _hl_q(lam[1:], t_num, t_den)
        # the tail translated, split by powers of z: {m: {code: coefficient}}
        parts: dict[int, dict[int, int]] = {}
        for c, terms in zip(tail, _drops(n - lam[0])):
            if c:
                for m, code, b in terms:
                    bucket = parts.setdefault(m, {})
                    bucket[code] = bucket.get(code, 0) + c * b
        series = {m: _hl_q((lam[0] + m,), t_num, t_den) for m in parts}
        # no parts, as for a zero tail, leave the zero row over lcm() = 1
        top = lcm(*(q_den for q_den, _ in series.values()))
        index = _codes(n)[1]
        row = [0] * len(index)
        for m, fm in parts.items():
            q_den, q_row = series[m]
            scale = top // q_den
            fm = [(sigma, b * scale) for sigma, b in fm.items() if b]
            for code, a in zip(_codes(lam[0] + m)[0], q_row):
                if a:
                    for sigma, b in fm:
                        row[index[code + sigma]] += a * b
        den = tail_den * top
    g = gcd(den, *row)
    return den // g, tuple(c // g for c in row)


def hl_q_row(lam: Partition, t) -> tuple[int, tuple[int, ...]]:
    """Hall-Littlewood Q_lam(t) at an exact rational t, as integers (D, row).

    Built by Jing's vertex operator (Adv. Math. 87, 1991; Macdonald III.5),
    Q_lam = H_{lam_1} Q_{lam[1:]} down to one row, where
    H_n f = sum_m q_{n+m} f_m with the series coefficient q_N = Q_(N) and
    f_m the coefficient of z**-m in f[p_k -> p_k - z**-k].  The step adds
    and looks up integer partition codes (digits the part multiplicities)
    in t-free tables per degree, with no sorting of parts.  The coefficient
    of p_rho is row[i] / D, rho the i-th partition of
    ``partitions_of(|lam|)`` and D the least common denominator.  Every
    Q_lam(t), one-row ones included, is kept in one memo, keyed on
    (lam, a, b) with t = a/b in lowest terms and b > 0, so each lam builds
    on the kept Q of its tail and of the rows (N,) it needs, and a repeated
    query costs a lookup.  This is the checked entry for input from outside:
    it checks lam and reads t as a `Fraction`; the memo refuses a degree
    above the cap before any work.  Library readers whose partitions are
    already checked read the memo by the integers of t.
    Specialized, Q_lam is one integer dot product of the row with the
    level's p_rho over one denominator.
    """
    lam = check_partition(lam)
    t = Fraction(t)
    return _hl_q(lam, t.numerator, t.denominator)


def modified_hl_q_row(lam: Partition, t) -> tuple[int, tuple[int, ...]]:
    """Modified Q function: the row of :func:`hl_q_row`, p_rho scaled by prod 1/(1 - t**rho_i).

    For t = a/b the factor is b**n / P_rho, P_rho = prod_i (b**rho_i -
    a**rho_i), the :func:`~fqtraces.specializations.power_products` of
    p_k = b**k / (b**k - a**k).  The row (D, c) goes over D * L, L the lcm
    of every P_rho, keeping their signs (negative for t > 1), and is not
    reduced.
    """
    t = Fraction(t)
    lam = check_partition(lam)
    n = size(lam)
    # the only rational roots of unity are 1 and -1, so k <= 2 suffices
    for k in range(1, min(2, n) + 1):
        if t**k == 1:
            raise ValueError(f"t = {t} has t**{k} = 1; modified Q is undefined")
    # lam and t are checked: read the memo, which refuses a degree above the cap
    a, b = t.numerator, t.denominator
    den, row = _hl_q(lam, a, b)
    top, scales = power_products(lambda k: (b**k, b**k - a**k), partitions_of(n))
    return den * top, tuple(map(mul, row, scales))


def _power_sum_view(lam, row: tuple[int, tuple[int, ...]]) -> PowerSumElement:
    den, coeffs = row
    return PowerSumElement(
        {rho: Fraction(c, den) for rho, c in zip(partitions_of(size(lam)), coeffs) if c}
    )


def hl_q_in_p(lam: Partition, t) -> PowerSumElement:
    """Hall-Littlewood Q function at an exact rational t: a view of :func:`hl_q_row`."""
    return _power_sum_view(lam, hl_q_row(lam, t))


def modified_hl_q(lam: Partition, t) -> PowerSumElement:
    """Modified Q function: a view of :func:`modified_hl_q_row`."""
    return _power_sum_view(lam, modified_hl_q_row(lam, t))


def plethysm_pl(f: PowerSumElement, n: int) -> PowerSumElement:
    """Index-stretching plethysm: every p_k becomes p_{n k}."""
    if n < 1:
        raise ValueError("plethysm degree must be a positive integer")
    return PowerSumElement(
        {tuple(n * part for part in rho): c for rho, c in f.terms.items()}
    )
