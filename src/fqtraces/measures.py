"""Central measures on infinite unipotent upper-triangular matrices.

A central measure assigns to every finite unipotent corner a cylinder
probability that depends only on the corner's Jordan type.  The measure
is parameterized by row frequencies ``r`` and column frequencies ``c``
with total mass at most 1; the column side always enters through its
geometric spread with ratio 1/q.

The cylinder probability of type lam is an explicit q-power prefactor
times the Q weight W(lam), a specialized Hall-Littlewood Q function.
Each :class:`MeasureParams` resolves, once, to the object of its family
that computes W: closed forms for the Haar, delta and single-row
families, at any level, and the exact Hall-Littlewood expansion up to
its degree cap for every other parameter set: one integer dot product
of the kept row of Q_lam(1/q) with the vector of the level's p_rho.  In
trace coordinates the same probability is the trace's value on the
unipotent class lam times q**(-n(n-1)/2);
:func:`fqtraces.traces.unipotent_block_value` reads that value off the
same kept row as the weight, dotted with the p_rho of p_k(sp) / (1 - q**-k).
Both vectors come from :func:`fqtraces.specializations.power_products`
for the call; a parameter set keeps its specialization, but no p_k.  Both
routes keep the value an integer pair (N, D), prefactor included, and
build one `Fraction` from it at the end.

The growth of the Jordan type under adding one row and column is an
explicit Markov chain on Young diagrams.  A family is a weight W plus a
walk: one builder, shared by every family, turns the weights of a
diagram's successors into the chain's transition row out of it, the
extension counts times the Q-weight ratios as integer numerators over
their least common denominator, and keeps it; no family overrides
that row with a closed form.  Everything except the Monte Carlo
summary statistics is exact.  A step of the chain reads a uniform variate
u / 2**64 and moves to the first successor whose cumulative probability
exceeds it, decided in integers; a trial's n variates come from one
64 * n-bit draw of its own stream, split into 64-bit words, and a family
whose walk reads no variate gets zeros, with no stream drawn.  Each family
takes a trial's steps in one call of its walk, which keeps a diagram
only where the caller asks for every level: a trajectory builds each
level once, and an lln trial keeps only its last.  Searching the kept
row is the default walk; the closed-form families take their own way to
the same successors: the delta and single-row chains have one successor
(the delta chain's come from one table of columns shared by every delta
chain), and the Haar row telescopes, so its walk bisects one ascending
table of exact bounds on u, kept per parameter set, without building the
row, and adds each box to one list in place.  The table holds one entry
per row of the longest diagram a walk has started from or reached and
stops at its first bound of 2**64: 66 entries at most for q >= 2, and
CHAIN_LEVEL_CAP + 1 (about 88 KB) at most on a capped chain with q near 1.
"""

import _random
import struct
from bisect import bisect_right
from fractions import Fraction
from functools import cache
from itertools import repeat
from math import gcd, lcm, sqrt
from operator import mul

from fqtraces.partitions import (
    Partition,
    add_box,
    addable_corners,
    box_additions,
    check_partition,
    n_stat,
    partitions_of,
    size,
    transpose,
)
from fqtraces.specializations import (
    EMPTY,
    FinitePowerSums,
    FrozenRecord,
    GeometricSpread,
    Specialization,
    _as_fractions,
    _check_weakly_decreasing_nonneg,
    _over_common_denominator,
    check_q,
    check_q_power,
    power_products,
    row_pair,
)
from fqtraces.symfunc import EXACT_HL_DEGREE_CAP, _hl_q
from fqtraces.traces import _block_pair, _check_blocks


class MeasureParams(FrozenRecord):
    """Row frequencies, column frequencies, and the field size q.

    ``r`` may be an explicit finite tuple or a :class:`GeometricSpread`
    (the latter is how the Haar family is expressed exactly); ``c`` is a
    finite tuple.  The total mass sum(r) + sum(c) may not exceed 1.
    """

    # eq, hash and repr are those of (r, c, q)
    _fields = ("r", "c", "q")

    def __init__(self, r, c: tuple[Fraction, ...], q: Fraction):
        q = check_q(q)
        if isinstance(r, (tuple, list)):
            r = FinitePowerSums(_as_fractions(r))
        if isinstance(r, FinitePowerSums):
            _check_weakly_decreasing_nonneg(r.values, r._scaled[1], "row frequencies")
        elif not isinstance(r, GeometricSpread):
            raise TypeError("r must be a sequence or a GeometricSpread")
        c = _as_fractions(c)
        c_scaled = c_den, c_nums = _over_common_denominator(c)
        _check_weakly_decreasing_nonneg(c, c_nums, "column frequencies")
        # sum(r) + sum(c) > 1, over positive denominators
        r_num, r_den = r.power_pair(1)
        if r_num * c_den + sum(c_nums) * r_den > r_den * c_den:
            raise ValueError("total frequency mass must not exceed 1")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "q", q)
        # the weight object of the parameter family, picked once from r, c, q,
        # and the specialization behind the weights, built once from the
        # column frequencies checked above
        object.__setattr__(self, "family", _resolve_family(self))
        beta = GeometricSpread._unchecked(c, q, c_scaled) if c else EMPTY
        object.__setattr__(self, "_spec", Specialization(r, beta, Fraction(1)))

    @classmethod
    def haar(cls, q) -> "MeasureParams":
        """Geometric row frequencies (1 - 1/q) * q**(1-i): the uniform measure."""
        return cls(GeometricSpread((Fraction(1),), Fraction(q)), (), Fraction(q))

    @classmethod
    def delta_identity(cls, q) -> "MeasureParams":
        """Column frequency 1: the point mass at the identity matrix."""
        return cls((), (Fraction(1),), Fraction(q))

    @classmethod
    def single_row(cls, q) -> "MeasureParams":
        """Row frequency 1: uniform on corners with one full Jordan block."""
        return cls((Fraction(1),), (), Fraction(q))

    def specialization(self) -> Specialization:
        """The multiplicative functional behind the cylinder probabilities.

        One object per parameter set, built with it; it keeps no p_k, so
        each evaluation reads the p_k it needs once, in that call.
        """
        return self._spec


def extension_count(lam: Partition, mu: Partition, q) -> Fraction:
    """Number of one-row parabolic extensions moving Jordan type lam to mu.

    Of the q**n extensions of a unipotent corner of type lam (n = |lam|),
    counts those of type mu.  Nonzero only when mu adds a single box to
    lam; with the new box in column j the count is
    q**(n - lam'_j) * (1 - q**(lam'_j - lam'_{j-1})), where the
    convention lam'_0 = infinity kills the subtracted term at j = 1.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    q = check_q(q)
    if size(mu) != size(lam) + 1:
        raise ValueError("extension counts need |mu| = |lam| + 1")
    for nu, col in box_additions(lam):
        if nu == mu:
            # column lengths, with lam'_j = 0 for the column a new first-row box opens
            conj = transpose(lam) + (0,)
            count = q ** (size(lam) - conj[col - 1])
            if col > 1:
                count *= 1 - q ** (conj[col - 1] - conj[col - 2])
            return count
    return Fraction(0)


# ---------------------------------------------------------------------------
# Cylinder probabilities


@cache
def hl_weight(params: MeasureParams, lam: Partition) -> Fraction:
    """Specialized Hall-Littlewood Q weight, through the exact expansion.

    ``_Generic(params).weight(lam)``: the generic route for any parameter
    set, closed-form families included, so that ``verify`` can hold it
    against their closed forms; above the degree cap of the Q memo behind
    :func:`hl_q_row` it raises before any work.  :func:`cyl_prob` goes
    through the family's own ``weight`` and does not fill this memo.
    """
    return _Generic(params).weight(check_partition(lam))


# Bound on the largest power of q a cylinder probability builds,
# q**(n(n-1)/2), in bits of numerator plus denominator; see check_q_power.
# At the cap (level 1155 at q = 2 and 3, 378 at q = 10001/10000 and 246 at
# q = 2**64 + 1) the Haar, delta and single-row forms take 0.16-1.13 s in a
# fresh process (2-vCPU Xeon, Python 3.11); at twice the cap, up to 3.9 s.
CYLINDER_Q_BITS_CAP = 2_000_000


def cyl_prob(params: MeasureParams, lam: Partition) -> Fraction:
    """Probability of the cylinder over one unipotent corner of type lam.

    The prefactor q**(-n(n-1)/2) * (1 - 1/q)**(-n) * q**n(lam) is, for
    q = a/b, a**(n - e) * b**e / (a - b)**n with e = n(n-1)/2 - n(lam) >= 0;
    it multiplies the weight's integer pair, and the product is one
    `Fraction`.
    """
    lam = check_partition(lam)
    n = size(lam)
    q = params.q
    check_q_power(q, n * (n - 1) // 2, CYLINDER_Q_BITS_CAP, "cylinder probabilities")
    num, den = params.family.weight_pair(lam)
    a, b = q.numerator, q.denominator
    e = n * (n - 1) // 2 - n_stat(lam)
    num *= b**e
    den *= (a - b) ** n
    if e > n:
        den *= a ** (e - n)
    else:
        num *= a ** (n - e)
    return Fraction(num, den)


def cyl_prob_from_trace(sp: Specialization, lam: Partition, q) -> Fraction:
    """Cylinder probability computed from trace parameters directly.

    The trace's value on the unipotent class lam, times q**(-n(n-1)/2);
    agrees with :func:`cyl_prob` under the parameter map r = spread(alpha),
    c = beta.
    """
    lam = check_partition(lam)
    q = check_q(q)
    # the value first: above the degree cap it raises before the prefactor,
    # whose size grows with n**2, is built; the value's integer pair times
    # b**e / a**e, q = a/b and e = n(n-1)/2, is one Fraction
    _check_blocks(sp, ((1, lam),), q)
    num, den = _block_pair(sp, 1, lam, q)
    n = size(lam)
    e = n * (n - 1) // 2
    return Fraction(num * q.denominator**e, den * q.numerator**e)


# ---------------------------------------------------------------------------
# Measure families
#
# A family is a ``weight`` and a ``walk``, and every family object answers
# three questions: ``weight(lam)`` is the Q weight W(lam), the one
# `Fraction` of ``weight_pair(lam)``, W(lam) as integers (N, D), which
# ``cyl_prob`` multiplies by its prefactor's integers; ``row(lam)`` is
# the chain's transition row out of lam as (successors, den, nums): the
# one-box successors in :func:`box_additions` order, and non-negative
# integers over one positive den, one per successor, summing to den; and
# ``walk(lam, us, out=None)`` is where the chain is after one step from lam
# per uniform variate u / 2**64, 0 <= u < 2**64, of the sequence us, each
# diagram it steps to appended to the list ``out`` as a tuple when one is
# given; ``step(lam, u)`` is its one-step case.  A step's successor is
# the first corner whose cumulative probability acc / den exceeds
# u / 2**64, compared in integers as u * den < acc * 2**64, so it comes
# out the same whether a family builds its row or not.  The only sampling
# error is the grid: at most one grid point per successor can be
# misassigned, so the bias per step is below (corners + 1) * 2**-64 <
# 2**-60 at every level the chains reach.  ``row`` and ``walk`` raise
# ValueError where W(lam) = 0, before anything is appended.  A family whose
# walk never reads a variate says so by ``reads_variates = False``, and an
# lln run then walks once for all its trials.
#
# The row is N_{lam,mu} * cyl(mu) / cyl(lam).  The q**(n(n-1)/2) prefactors
# cancel: with the new box in column j the probability is
#
#     (1 - q**(lam'_j - lam'_{j-1})) * W(mu) / W(lam) / (1 - 1/q),
#
# without the bracket at j = 1.  A box lengthening the block of equal rows
# whose top row is i (0-based) has lam'_j = i, and lam'_{j-1} is the top row
# of the next block, or len(lam).  As the row sums to 1, the bracketed W(mu)
# add up to W(lam) * (1 - 1/q), so ``_Family`` builds it, in integers, from
# one call of ``weights(n, lams)`` on the successors, keeps it, and by
# default walks by searching it.  As it divides by their total, the weights
# may carry one common positive factor.  ``_Generic``'s weights share one
# vector of p_rho for the call and fill no memo of their own; they are
# integers, the dot products with it of the rows of Q, read from the Q
# memo by the integers of 1/q, over the lcm of the rows' denominators, all
# sharing one factor, as Haar's are.  Its
# ``weight_pair``, for ``cyl_prob``, is one dot product over its row's
# denominator times that of the vector, and fills no memo either.  The Haar,
# delta and single-row families have closed-form weights, valid at any
# level, and walk without building the row: the delta and single-row chains
# have one successor, and the Haar row telescopes (see ``_Haar.walk``).
# Haar's successor weights drop the powers of q they share (see there).


_U64 = 2**64


def _zero_source(lam: Partition) -> ValueError:
    return ValueError(f"source class {lam} has zero probability")


class _Family:
    """The base of every family: its transition rows, built from ``weights``.

    Each diagram's row is built once and kept with its successors, since a
    chain revisits the few diagrams below the cap at every trial; searching
    it is the default ``walk``.  A subclass defines ``weight_pair``, and
    ``weight`` is its one `Fraction`; ``weights(n, lams)``, the weights of
    a diagram's successors at level n as ints or Fractions, may be scaled
    by one common positive factor, since the row divides by their total.
    """

    # whether ``walk`` reads its variates; a chain with one successor out of
    # every diagram does not, so each of its trials is the same walk
    reads_variates = True

    def __init__(self, params: MeasureParams):
        self.params = params
        self.q = params.q
        self.built_rows: dict[Partition, tuple[list[Partition], int, list[int]]] = {}

    def weight(self, lam: Partition) -> Fraction:
        return Fraction(*self.weight_pair(lam))

    def weights(self, n: int, lams) -> list[Fraction]:
        return [self.weight(lam) for lam in lams]

    def row(self, lam: Partition) -> tuple[list[Partition], int, list[int]]:
        if lam not in self.built_rows:
            self.built_rows[lam] = self._build_row(lam)
        return self.built_rows[lam]

    def step(self, lam: Partition, u: int) -> Partition:
        return self.walk(lam, (u,))

    def walk(self, lam: Partition, us, out: list | None = None) -> Partition:
        for u in us:
            # the row sums to den and u < 2**64, so the search stops at the
            # last successor at the latest
            successors, den, nums = self.row(lam)
            target = u * den
            acc = 0
            for mu, num in zip(successors, nums):
                acc += num
                if target < acc << 64:
                    break
            lam = mu
            if out is not None:
                out.append(lam)
        return lam

    def _build_row(self, lam: Partition) -> tuple[list[Partition], int, list[int]]:
        rows = [i for i, _ in addable_corners(lam)]
        successors = [add_box(lam, i) for i in rows]
        # each term W(mu) * (1 - q**-d), d the rows to the next corner, as
        # (num, den): with q = a/b the bracket is (a**d - b**d) / a**d
        a, b = self.q.numerator, self.q.denominator
        terms = []
        for k, (i, weight) in enumerate(zip(rows, self.weights(size(lam) + 1, successors))):
            num, den = weight.numerator, weight.denominator
            if i <= len(lam):
                d = rows[k + 1] - i
                num, den = num * (a**d - b**d), den * a**d
            terms.append((num, den))
        common = lcm(*(den for _, den in terms))
        nums = [num * (common // den) for num, den in terms]
        total = sum(nums)  # over common, W(lam) * (1 - 1/q) up to the weights' factor
        if total <= 0:
            raise _zero_source(lam)
        g = gcd(total, *nums)
        return successors, total // g, [num // g for num in nums]


class _Generic(_Family):
    """Any parameter set: the exact Hall-Littlewood weights, up to their cap.

    W(lam) is the kept row (D, c) of Q_lam(1/q) dotted with the level's
    vector (E, P) of p_rho, over D * E.  The rows are read from the Q memo
    of :func:`hl_q_row` by the integers (b, a) of 1/q, q = a/b, for
    partitions already checked.  The successor weights are the dot
    products over the lcm L of their rows' D, as integers: each is W(mu)
    times L * E, one factor for them all.
    """

    def __init__(self, params: MeasureParams):
        super().__init__(params)
        # t = 1/q = b/a in lowest terms, a > 0
        self.t_num, self.t_den = params.q.denominator, params.q.numerator

    def weight_pair(self, lam: Partition) -> tuple[int, int]:
        # the row first: above the degree cap the memo raises before any work
        row = _hl_q(lam, self.t_num, self.t_den)
        return row_pair(row, self._vector(size(lam)))

    def weights(self, n: int, lams) -> list[int]:
        # the rows first, as in weight_pair
        rows = [_hl_q(lam, self.t_num, self.t_den) for lam in lams]
        _, values = self._vector(n)
        common = lcm(*(den for den, _ in rows))
        return [sum(map(mul, coeffs, values)) * (common // den) for den, coeffs in rows]

    def _vector(self, n: int) -> tuple[int, list[int]]:
        return power_products(self.params.specialization().power_pair, partitions_of(n))


class _Haar(_Family):
    """Geometric row frequencies: W(lam) = (1 - 1/q)**|lam| / q**n(lam).

    The row builder gets the successors' weights without the powers of q
    they share (see ``weights``): from the absolute weights, whose powers
    of q grow with n(mu), the rows along one 300-level chain at
    q = 10001/10000 took 16 s against 0.05 s (2-vCPU Xeon, Python 3.11).

    The chain's bounds S_r = 2**64 - T_r (see ``walk``) are kept for
    r = 0, 1, ... up to the most rows of a diagram that a walk started
    from or reached, its last included, and stop at the first
    S_r = 2**64: 66 entries at most for q >= 2, and at most
    CHAIN_LEVEL_CAP + 1, each at most 2**64, on a capped chain.  No entry
    is kept for a row that no diagram grew.  A walk takes its bisections
    in one lazy C pass over its variates, extends the table only when a
    step adds a row, steps one list in place and builds a tuple of it only
    for each level a trajectory keeps and for the last.  At q = 2 a
    1000-step walk takes about 0.13 ms, 0.13 us a step, and its draws
    0.04 ms more; the trajectory, its tuples included, about 0.23 ms.
    Setting up the pass costs about 0.2 us a walk, so a one-step walk
    takes about 0.55 us against 0.3 us stepped from Python.  An
    lln trial of 2000 steps at q = 10001/10000, whose diagrams grow about
    1800 rows, takes about 0.6 ms, and a 2000-step trajectory there about
    7.5 ms, nearly all of it the tuples of its levels (in process, 2-vCPU
    Xeon, Python 3.11).
    """

    def __init__(self, params: MeasureParams):
        super().__init__(params)
        self.bounds = [0]
        # (b**r, a**r) for the last r in the table
        self.powers = (1, 1)

    def weight_pair(self, lam: Partition) -> tuple[int, int]:
        # (1 - 1/q)**n / q**n(lam) = (a - b)**n * b**n(lam) / a**(n + n(lam))
        a, b = self.q.numerator, self.q.denominator
        n, m = size(lam), n_stat(lam)
        return (a - b) ** n * b**m, a ** (n + m)

    def weights(self, n: int, lams) -> list[int]:
        # W(mu) times a**(high - low) * q**low / (1 - 1/q)**n, one factor for
        # every successor, with q = a/b and low, high the least and largest n(mu)
        stats = [n_stat(mu) for mu in lams]
        low, high = min(stats), max(stats)
        a, b = self.q.numerator, self.q.denominator
        return [b ** (s - low) * a ** (high - s) for s in stats]

    def walk(self, lam: Partition, us, out: list | None = None) -> Partition:
        # The row telescopes, P = q**-lam'_j - q**-lam'_{j-1}: through the
        # block whose successor block starts at row r (r = l for the last
        # block) the cumulative probability is 1 - q**-r, with q = a/b
        # (a**r - b**r) / a**r, so u / 2**64 below it reads
        # b**r * 2**64 < (2**64 - u) * a**r.  As u is an integer, that holds
        # exactly when u < S_r = 2**64 - floor(2**64 * b**r / a**r).  S does
        # not depend on lam and, as q > 1, rises from S_0 = 0 to 2**64, so
        # the test holds for every r from some least i >= 1 on, the number
        # of bounds at most u: one bisection of the kept table.  The first
        # block it accepts is the one holding row i - 1, and the box goes to
        # that block's top row; if i > l, to a new row.  The diagram is one
        # list, stepped in place; a block's top row is always an addable
        # corner, so no step checks it.  The bisections are one lazy C pass
        # over us: the table is extended for the start's rows, then only
        # when a step adds a row, and in place, so each bisection sees it
        # as the step before left it.
        mu = list(lam)
        ell = len(mu)
        bounds = self.bounds
        if len(bounds) <= ell and bounds[-1] != _U64:
            self._extend(ell)
        for i in map(bisect_right, repeat(bounds), us):
            if i > ell:
                mu.append(1)
                ell += 1
                if len(bounds) <= ell and bounds[-1] != _U64:
                    self._extend(ell)
            else:
                mu[mu.index(mu[i - 1])] += 1
            if out is not None:
                out.append(tuple(mu))
        return tuple(mu)

    def _extend(self, ell: int):
        """Append S_r up to r = ell, or to the first S_r = 2**64, from the kept powers."""
        a, b = self.q.numerator, self.q.denominator
        bounds = self.bounds
        b_pow, a_pow = self.powers
        while len(bounds) <= ell and bounds[-1] != _U64:
            b_pow *= b
            a_pow *= a
            bounds.append(_U64 - (b_pow << 64) // a_pow)
        self.powers = b_pow, a_pow


class _Delta(_Family):
    """Column frequency 1: W(lam) = (1 - 1/q)**|lam| on one-column lam, else 0.

    The chain's diagrams (), (1,), (1, 1), ... do not depend on q, so every
    delta chain steps through one shared table of them, kept up to the
    longest column stepped so far: CHAIN_LEVEL_CAP + 1 tuples at most, 15
    MiB.  A trajectory then holds references into the table instead of
    n**2 / 2 entries of its own, and building or freeing it costs O(n),
    not O(n**2), once the table is built.
    """

    columns: list = [()]
    reads_variates = False

    def weight_pair(self, lam: Partition) -> tuple[int, int]:
        if lam and lam[0] > 1:
            return 0, 1
        a, b = self.q.numerator, self.q.denominator
        return (a - b) ** len(lam), a ** len(lam)

    def walk(self, lam: Partition, us, out: list | None = None) -> Partition:
        if lam and lam[0] > 1:
            raise _zero_source(lam)
        start = len(lam)
        end = start + len(us)
        columns = self.columns
        while len(columns) <= end:
            columns.append(columns[-1] + (1,))
        if out is not None:
            out += columns[start + 1 : end + 1]
        return columns[end]


class _Row(_Family):
    """Row frequency 1: W = 1 on the empty diagram, 1 - 1/q on one row, else 0."""

    reads_variates = False

    def weight_pair(self, lam: Partition) -> tuple[int, int]:
        if len(lam) > 1:
            return 0, 1
        a, b = self.q.numerator, self.q.denominator
        return (a - b, a) if lam else (1, 1)

    def walk(self, lam: Partition, us, out: list | None = None) -> Partition:
        if len(lam) > 1:
            raise _zero_source(lam)
        start = lam[0] if lam else 0
        end = start + len(us)
        if out is not None:
            out += [(k,) for k in range(start + 1, end + 1)]
        return (end,) if end else ()


def _resolve_family(params: MeasureParams):
    """The family object of validated parameters; equal parameters, equal kind."""
    q, r, c = params.q, params.r, params.c
    if isinstance(r, GeometricSpread):
        if r.seq == (1,) and r.q == q and not c:
            return _Haar(params)
    elif r.values == () and c == (1,):
        return _Delta(params)
    elif r.values == (1,) and not c:
        return _Row(params)
    return _Generic(params)


# ---------------------------------------------------------------------------
# The growth chain


def transition_distribution(
    params: MeasureParams, lam: Partition
) -> list[tuple[Partition, Fraction]]:
    """All one-box successors with their transition probabilities.

    Successors come in :func:`box_additions` order, zero-probability ones
    included.
    """
    lam = check_partition(lam)
    successors, den, nums = params.family.row(lam)
    return [(mu, Fraction(num, den)) for mu, num in zip(successors, nums)]


def _trial_rng(seed: int, trial: int) -> _random.Random:
    """Deterministic per-trial stream, independent of evaluation order.

    The C generator behind :class:`random.Random`, whose ``__init__`` and
    ``seed`` hand an int seed straight to it, so the stream is the same;
    skipping them saves about a sixth of a one-step trial.
    """
    return _random.Random(((seed % _U64) << 64) | (trial % _U64))


def _trial_variates(seed: int, trial: int, n: int) -> tuple[int, ...]:
    """The trial's n 64-bit variates, from one draw of 64 * n bits.

    They equal n successive ``getrandbits(64)`` of the trial's stream:
    CPython builds a draw from 32-bit words, low word first, so the i-th
    64-bit word of the long draw, read little-endian whatever the host's
    byte order, is the i-th 64-bit draw.
    """
    bits = _trial_rng(seed, trial).getrandbits(64 * n)
    return struct.unpack(f"<{n}Q", bits.to_bytes(8 * n, "little"))


def _walk_variates(family: _Family, seed: int, trial: int, n: int) -> tuple[int, ...]:
    """The n variates a trial of ``family`` walks on.

    The trial's draws, or n zeros for a family whose walk reads none
    (``reads_variates``), so that no stream is seeded or drawn for it.
    """
    if family.reads_variates:
        return _trial_variates(seed, trial, n)
    return (0,) * n


# A delta chain is at a k-tuple at level k, so the shared table of columns
# holds n**2 / 2 entries at level n, 15 MiB at level 2000; `sample --measure
# delta --format json` takes 0.4 s and 45 MiB peak at level 2000, most of it
# the JSON (before this cap, 1.2 s and 79 MiB at 3000, 1.9 s and 126 MiB at
# 4000).  In an lln run at q = 2 a Haar step costs about 0.17 us, its
# variate included, and a trial's stream about 7 us: Haar 1000 x 200 trials
# takes 0.10-0.12 s and Haar 2000 x 100 0.10-0.11 s, but 1 x 200000, all
# streams, 1.8-2.2 s.  The delta and single-row chains walk once for all
# their trials and draw nothing: delta 2000 x 100 takes 0.08-0.09 s (31 MiB
# peak, the table included) and single-row 1 x 200000 0.05 s, the start-up
# floor (fresh process, start-up included, 2-vCPU Xeon, Python 3.11).
# A Haar step bisects its table of bounds, one per row, and lengthens one
# list in place, and an lln trial keeps only its last diagram, so chains
# with q near 1, which grow many rows, cost little more: 2000 x 100 takes
# 0.11-0.13 s at q = 5/4 and 0.15-0.18 s at q = 10001/10000, whose diagrams
# reach about 1800 rows; `sample --nmax 2000` there takes 0.3 s, most of
# it the tuples of the levels it prints.  A diagram on a capped
# chain has at most CHAIN_LEVEL_CAP rows and columns, which bounds the Haar
# table and the delta columns at CHAIN_LEVEL_CAP + 1 entries and how many
# rows and columns an lln run may track.
CHAIN_LEVEL_CAP = 2000
CHAIN_STEP_CAP = 200_000


def _check_chain_length(params: MeasureParams, n_max: int, least: int):
    if n_max < least:
        raise ValueError(f"growth chains need a level of at least {least}; got level {n_max}")
    # a step out of level n needs weights of degree n + 1, so a generic chain
    # ends at the weight's cap; say so before the first step
    if isinstance(params.family, _Generic) and n_max > EXACT_HL_DEGREE_CAP:
        raise ValueError(
            f"growth chains of generic parameters are capped at degree {EXACT_HL_DEGREE_CAP} "
            f"by the exact Hall-Littlewood expansion; got level {n_max}"
        )
    if n_max > CHAIN_LEVEL_CAP:
        raise ValueError(f"growth chains capped at level {CHAIN_LEVEL_CAP}; got level {n_max}")


def sample_trajectory(params: MeasureParams, n_max: int, seed: int) -> list[Partition]:
    """Growth trajectory of Jordan types, from the empty diagram to level n_max."""
    _check_chain_length(params, n_max, 0)
    out: list[Partition] = [()]
    params.family.walk((), _walk_variates(params.family, seed, 0, n_max), out)
    return out


# ---------------------------------------------------------------------------
# Law-of-large-numbers experiments


class LLNRow(FrozenRecord):
    """One row of an lln report: a statistic's empirical mean and its prediction."""

    _fields = ("statistic", "index", "empirical", "predicted", "stderr")

    def __init__(
        self, statistic: str, index: int, empirical: float, predicted: Fraction, stderr: float
    ):
        object.__setattr__(self, "statistic", statistic)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "empirical", empirical)
        object.__setattr__(self, "predicted", predicted)
        object.__setattr__(self, "stderr", stderr)


def _mean_stderr(s1: int, s2: int, t: int, n: int) -> tuple[float, float]:
    """Mean and standard error of t samples a_j / n, from s1 = sum a_j and s2 = sum a_j**2."""
    mean = Fraction(s1, t * n)
    if t < 2:
        return float(mean), 0.0
    # the exact sample variance: sum (a_j / n - mean)**2 = (t s2 - s1**2) / (t n**2)
    var = Fraction(t * s2 - s1 * s1, t * (t - 1) * n * n)
    return float(mean), sqrt(float(var) / t)


def lln_experiment(
    params: MeasureParams,
    n_max: int,
    trials: int,
    seed: int,
    track: int = 4,
) -> tuple[LLNRow, ...]:
    """Empirical scaled row/column lengths at level n_max versus predictions.

    One row per tracked row length, then one per tracked column length.
    Each trial uses its own stream derived from (seed, trial index), so the
    rows do not depend on scheduling; they are byte-identical across runs
    with equal inputs.  Only the summary columns are floating point.  A
    family whose walk reads no variate (the delta and single-row chains)
    walks once, with none drawn, and its sums count that walk ``trials``
    times.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    _check_chain_length(params, n_max, 1)
    if n_max * trials > CHAIN_STEP_CAP:
        raise ValueError(
            f"lln runs capped at {CHAIN_STEP_CAP} chain steps; got {n_max} x {trials} trials"
        )
    if track < 1:
        raise ValueError(f"lln runs track at least one row and column; got {track}")
    if track > CHAIN_LEVEL_CAP:
        raise ValueError(f"tracked rows and columns capped at {CHAIN_LEVEL_CAP}; got {track}")
    # per tracked row and column, the sum of its lengths and of their squares;
    # a row or column past the diagram has length 0 and adds nothing
    rows = [[0, 0] for _ in range(track)]
    cols = [[0, 0] for _ in range(track)]
    family = params.family
    # a walk that reads no variate is the same in every trial: walk it once
    walks = trials if family.reads_variates else 1
    times = trials // walks
    lasts = (family.walk((), _walk_variates(family, seed, trial, n_max)) for trial in range(walks))
    for lam in lasts:
        for sums, lengths in ((rows, lam), (cols, transpose(lam))):
            for acc, length in zip(sums, lengths):
                acc[0] += times * length
                acc[1] += times * length * length
    predicted_r = params.r.frequencies(track)
    predicted_c = FinitePowerSums(params.c).frequencies(track)
    out = []
    for i in range(track):
        mean, err = _mean_stderr(*rows[i], trials, n_max)
        out.append(LLNRow("lambda_i/n", i + 1, mean, predicted_r[i], err))
    for i in range(track):
        mean, err = _mean_stderr(*cols[i], trials, n_max)
        out.append(LLNRow("lambda_conj_i/n", i + 1, mean, predicted_c[i], err))
    return tuple(out)
