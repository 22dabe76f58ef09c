"""Exact symmetric functions in the power-sum basis.

Everything is expressed through :class:`PowerSumElement`, a finite linear
combination of power-sum products ``p_rho`` with `Fraction` coefficients.
Schur functions enter via the Murnaghan-Nakayama expansion, Hall-Littlewood
Q functions via Jing's vertex operator (one Q_lam at a time, up to
:data:`EXACT_HL_DEGREE_CAP`), and the modified Q functions by rescaling each
``p_k`` by ``1/(1 - t**k)``.  Kostka numbers count tableaux by a recursion
over horizontal strips; charge-weighted Kostka polynomials
(:class:`TPolynomial`) come from tableau enumeration, up to the same degree
cap, and are the independent check on the operator.

Characters, Schur functions, Kostka numbers, charge polynomials and the
series coefficients q_N of the operator are memoized, so repeated queries
reuse them.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb

from fqtraces.partitions import (
    Partition,
    check_partition,
    format_partition,
    partitions_of,
    size,
    z_factor,
)


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
def sym_character(lam: Partition, rho: Partition) -> int:
    """Character value of the symmetric group, by border-strip recursion.

    Strips are removed through the first-column hook encoding: removing a
    strip of length k maps one shifted part ``b`` to ``b - k``, with sign
    given by the number of shifted parts jumped over.
    """
    if not rho:
        return 1 if not lam else 0
    k, rest = rho[0], rho[1:]
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    beta_set = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted([c for c in beta if c != b] + [nb], reverse=True)
        parts = (new_beta[j] - (ell - 1 - j) for j in range(ell))
        mu = tuple(p for p in parts if p > 0)
        total += (-1) ** height * sym_character(mu, rest)
    return total


@cache
def schur_in_p(lam: Partition) -> PowerSumElement:
    """Schur function expanded over power sums via character values."""
    lam = check_partition(lam)
    n = size(lam)
    terms = {}
    for rho in partitions_of(n):
        chi = sym_character(lam, rho)
        if chi:
            terms[rho] = Fraction(chi, z_factor(rho))
    return PowerSumElement(terms)


def schur_expand(f: PowerSumElement) -> dict[Partition, Fraction]:
    """Coefficients d_lam with f = sum d_lam s_lam, for homogeneous f.

    Uses orthogonality <p_rho, p_sigma> = z_rho delta, under which the
    Schur coefficient is the character-weighted sum of p-coefficients.
    """
    if not f:
        return {}
    n = f.degree()
    out = {}
    for lam in partitions_of(n):
        d = sum(
            (c * sym_character(lam, rho) for rho, c in f.terms.items()),
            Fraction(0),
        )
        if d:
            out[lam] = d
    return out


# ---------------------------------------------------------------------------
# Tableau enumeration, Kostka numbers, charge


def _strip_removals(shape: Partition, m: int) -> list[Partition]:
    """Partitions obtained from ``shape`` by removing a horizontal m-strip."""
    rows = len(shape)
    out: list[Partition] = []

    def rec(i: int, need: int, acc: list[int]):
        if need < 0:
            return
        if i == rows:
            if need == 0:
                out.append(tuple(p for p in acc if p))
            return
        lo = shape[i + 1] if i + 1 < rows else 0
        for t in range(lo, shape[i] + 1):
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


@cache
def kostka(shape: Partition, content: Partition) -> int:
    """Number of column-strict fillings of ``shape`` with given content."""
    shape = check_partition(shape)
    content = check_partition(content)
    if size(shape) != size(content):
        raise ValueError("kostka requires |shape| = |content|")
    if not content:
        return 1
    return sum(
        kostka(smaller, content[:-1]) for smaller in _strip_removals(shape, content[-1])
    )


# One Q_lam at degree 16 costs under half a second, and the cost about
# triples every two degrees; hl_q_in_p refuses larger degrees up front.
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

    def to_list(self) -> list:
        """Coefficient list, constant term first (the wire format)."""
        return list(self)


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


@cache
def _q_series(n: int, t: Fraction) -> tuple[tuple[Partition, Fraction], ...]:
    """Degree-n part of Q(z) = exp(sum_k (1 - t**k) p_k z**k / k), as (rho, coefficient) pairs."""
    out = []
    for rho in partitions_of(n):
        c = Fraction(1, z_factor(rho))
        for part in rho:
            c *= 1 - t**part
        if c:
            out.append((rho, c))
    return tuple(out)


def _translate(f: dict[Partition, Fraction]) -> dict[int, dict[Partition, Fraction]]:
    """f[p_k -> p_k - z**-k] split by powers of z: {m: coefficient of z**-m}.

    Each p_rho expands binomially, one factor (p_k - z**-k)**m_k per
    distinct part k; dropping j copies of p_k contributes
    (-1)**j * C(m_k, j) * z**(-k j).
    """
    out: dict[int, dict[Partition, Fraction]] = {}
    for rho, c in f.items():
        mult = Counter(rho)
        for drops in product(*(range(m + 1) for m in mult.values())):
            coeff, m, rest = c, 0, []
            for (k, mk), j in zip(mult.items(), drops):
                coeff *= comb(mk, j)
                m += k * j
                rest += [k] * (mk - j)
            if sum(drops) % 2:
                coeff = -coeff
            bucket = out.setdefault(m, {})
            key = tuple(rest)
            bucket[key] = bucket.get(key, 0) + coeff
    return out


def hl_q_in_p(lam: Partition, t) -> PowerSumElement:
    """Hall-Littlewood Q function at an exact rational parameter t.

    Built by Jing's vertex operator (Adv. Math. 87, 1991; Macdonald III.5),
    Q_lam = H_{lam_1} ... H_{lam_l} . 1 with the last part applied first,
    where H_n f = sum_m q_{n+m} f_m with q_N from :func:`_q_series` and f_m
    from :func:`_translate`.
    """
    lam = check_partition(lam)
    if size(lam) > EXACT_HL_DEGREE_CAP:
        raise ValueError(
            f"exact Hall-Littlewood Q capped at degree {EXACT_HL_DEGREE_CAP}; "
            f"got degree {size(lam)}"
        )
    t = Fraction(t)
    f = {(): Fraction(1)}
    for n in reversed(lam):
        out: dict[Partition, Fraction] = {}
        for m, fm in _translate(f).items():
            for rho, a in _q_series(n + m, t):
                for sigma, b in fm.items():
                    key = tuple(sorted(rho + sigma, reverse=True))
                    out[key] = out.get(key, 0) + a * b
        f = {rho: c for rho, c in out.items() if c}
    return PowerSumElement(f)


def modified_hl_q(lam: Partition, t) -> PowerSumElement:
    """Modified Q function: rescale the p_rho coefficient by prod 1/(1 - t**rho_i)."""
    t = Fraction(t)
    # the only rational roots of unity are 1 and -1, so k <= 2 suffices
    for k in range(1, min(2, size(check_partition(lam))) + 1):
        if t**k == 1:
            raise ValueError(f"t = {t} has t**{k} = 1; modified Q is undefined")
    out = {}
    for rho, c in hl_q_in_p(lam, t).terms.items():
        for part in rho:
            c /= 1 - t**part
        out[rho] = c
    return PowerSumElement(out)


def plethysm_pl(f: PowerSumElement, n: int) -> PowerSumElement:
    """Index-stretching plethysm: every p_k becomes p_{n k}."""
    if n < 1:
        raise ValueError("plethysm degree must be a positive integer")
    return PowerSumElement(
        {tuple(n * part for part in rho): c for rho, c in f.terms.items()}
    )
