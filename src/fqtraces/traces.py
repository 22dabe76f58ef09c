"""Closed-form character quantities for invertible matrices over F_q.

Irreducible representations and conjugacy classes are both indexed by
families of Young diagrams: a finite set of blocks, one per irreducible
characteristic-polynomial factor, each carrying the factor's degree and a
nonempty diagram.  Tags are opaque strings; the reserved tag ``"x-1"``
denotes the eigenvalue-one (unipotent) block.

The quantities computed here are rational functions of q evaluated
exactly: dimensions by the q-hook formula, values of the extreme
unipotent traces through modified Hall-Littlewood specializations, and
the coefficient expansions of traces over irreducible characters.  Each
is built in integers and becomes one `Fraction` at the end: for q = a/b
the q-hook products are an integer numerator and denominator, a block
value is the kept integer row of Q dotted with the p_rho of the
specialization's power sums, stretched and modified for the block, times
a power of q, a class's value is the product of its blocks' pairs, and
each trace coefficient is a row of the integer character table dotted
with one class vector.
"""

from collections import Counter
from fractions import Fraction
from math import prod

from fqtraces.partitions import (
    Partition,
    box_removals,
    check_partition,
    format_partition,
    hook_lengths,
    n_stat,
    parse_partition,
    partitions_of,
    size,
)
from fqtraces.specializations import (
    FrozenRecord,
    Specialization,
    check_q,
    check_q_power,
    power_products,
    row_pair,
)
from fqtraces.symfunc import (
    CHARACTER_DEGREE_CAP,
    _hl_q,
    check_hl_degree,
    class_vector,
    schur_coefficients,
)

UNIT = "x-1"


class DiagramFamily(FrozenRecord):
    """A finitely supported map from tagged polynomial factors to diagrams.

    ``blocks`` is kept sorted by (degree, tag) so that equal families
    compare equal structurally.  Used both for representation labels and
    for conjugacy-class labels.
    """

    _fields = ("blocks",)
    __slots__ = _fields

    def __init__(self, blocks: tuple[tuple[str, int, Partition], ...]):
        canon = []
        seen = set()
        for tag, d, lam in blocks:
            lam = check_partition(lam)
            if not lam:
                raise ValueError("family blocks must carry nonempty diagrams")
            if isinstance(d, bool) or not isinstance(d, int) or d < 1:
                raise ValueError(f"block degree must be a positive integer: {d!r}")
            if not isinstance(tag, str):
                raise ValueError(f"family tag must be a string: {tag!r}")
            if tag in seen:
                raise ValueError(f"duplicate tag in family: {tag!r}")
            if tag == UNIT and d != 1:
                raise ValueError("the unit tag always has degree 1")
            seen.add(tag)
            canon.append((tag, d, lam))
        canon.sort(key=lambda b: (b[1], b[0]))
        object.__setattr__(self, "blocks", tuple(canon))

    @property
    def degree(self) -> int:
        return sum(d * size(lam) for _, d, lam in self.blocks)

    def diagram(self, tag: str) -> Partition:
        for t, _, lam in self.blocks:
            if t == tag:
                return lam
        return ()

    def with_diagram(self, tag: str, d: int, lam: Partition) -> "DiagramFamily":
        rest = tuple(b for b in self.blocks if b[0] != tag)
        if lam:
            rest = rest + ((tag, d, lam),)
        return DiagramFamily(rest)

    def has_unit(self) -> bool:
        return any(tag == UNIT for tag, _, _ in self.blocks)

    def linear_blocks(self) -> list[tuple[str, int, Partition]]:
        return [b for b in self.blocks if b[1] == 1]

    def to_json_obj(self) -> list[dict]:
        return [
            {"tag": tag, "d": d, "lambda": format_partition(lam)}
            for tag, d, lam in self.blocks
        ]

    @classmethod
    def from_json_obj(cls, records) -> "DiagramFamily":
        return cls(
            tuple(
                (r["tag"], r["d"], parse_partition(r["lambda"]))
                for r in records
            )
        )

    def __repr__(self):
        inner = ", ".join(
            f"({tag!r}, {d}, {format_partition(lam)!r})" for tag, d, lam in self.blocks
        )
        return f"DiagramFamily([{inner}])"


EMPTY_FAMILY = DiagramFamily(())


def family(*blocks) -> DiagramFamily:
    """Convenience constructor: family(("x-1", 1, (2, 1)), ...)."""
    return DiagramFamily(tuple(blocks))


def _check_linear_capacity(f: DiagramFamily, q: Fraction, reserve_unit: bool = False):
    # families are formula-level objects and do not know q; once q is
    # supplied, only q - 1 distinct linear factors exist, one fewer when
    # the unit's factor is reserved
    if q.denominator != 1:
        return
    capacity = int(q) - 1 - int(reserve_unit)
    if len(f.linear_blocks()) > capacity:
        raise ValueError(
            f"family uses {len(f.linear_blocks())} degree-1 tags, "
            f"but F_{q} has only {capacity} linear factors"
            + (" besides the unit" if reserve_unit else "")
        )


def q_hook_weight(lam: Partition, d: int, q: Fraction) -> tuple[int, int]:
    """The per-block factor q**(d n(lam)) / prod (q**(d h) - 1) as integers (N, D).

    For q = a/b, q**(d h) - 1 = (a**(d h) - b**(d h)) / b**(d h), so
    N = a**(d n(lam)) * b**(d (sum h - n(lam))) and D = prod (a**(d h) - b**(d h)),
    not reduced.
    """
    a, b = q.numerator, q.denominator
    hooks = hook_lengths(lam)
    n = n_stat(lam)
    den = 1
    for h, m in Counter(hooks).items():
        den *= (a ** (d * h) - b ** (d * h)) ** m
    return a ** (d * n) * b ** (d * (sum(hooks) - n)), den


# Bounds on the powers of q that `dim` and `trace` build, in bits of
# numerator plus denominator; see check_q_power.  A dimension of degree k
# builds the product of q**i - 1 up to k.  A trace block of degree d builds
# q**(d n(lam)) and evaluates Q at t = q**-d with factors 1/(1 - t**k) up to
# k = |lam|: the exponent is d (|lam| + n(lam)).  At the
# caps, for q = 2, 3, 10001/10000 and 2**64 + 1, one-row and one-column
# dimensions take 0.23-1.13 s, and trace blocks with |lam| <= 16 at
# alpha = (1/2, 1/4), beta = (1/8) take 0.10-0.72 s, each in a fresh
# process (2-vCPU Xeon, Python 3.11).  Dimensions at 2-8 times the cap
# took 0.6-20 s, and trace blocks up to 2.0 s at twice the cap.
DIMENSION_Q_BITS_CAP = 500_000
TRACE_Q_BITS_CAP = 10_000


def check_dimension(f: DiagramFamily, q) -> Fraction:
    """Refuse, before any work, what :func:`green_dimension` refuses; q as a `Fraction`."""
    q = check_q(q)
    _check_linear_capacity(f, q)
    k = f.degree
    check_q_power(q, k * (k + 1) // 2, DIMENSION_Q_BITS_CAP, "dimensions")
    return q


def green_dimension(f: DiagramFamily, q) -> Fraction:
    """Dimension of the irreducible representation labeled by ``f``.

    Computed by the q-hook formula; a positive integer whenever q is a
    prime power (not enforced here -- q is treated as a rational).
    """
    q = check_dimension(f, q)
    a, b = q.numerator, q.denominator
    k = f.degree
    weight, hooks = _hook_weights(f, q)
    # prod (q**i - 1) for i <= k, over b**(k (k + 1) / 2); the hook factors
    # divide it as polynomials in q, so their homogeneous forms in a and b
    # divide exactly too, and the Fraction's gcd sees no hook product
    num = prod(a**i - b**i for i in range(1, k + 1)) // hooks
    return Fraction(num * weight, b ** (k * (k + 1) // 2))


def _hook_weights(f: DiagramFamily, q: Fraction) -> tuple[int, int]:
    """The product of every block's :func:`q_hook_weight`, as integers (N, D)."""
    weight = hooks = 1
    for _, d, lam in f.blocks:
        n, m = q_hook_weight(lam, d, q)
        weight *= n
        hooks *= m
    return weight, hooks


def branching_predecessors(f: DiagramFamily, variant: str) -> list[DiagramFamily]:
    """Families covered by ``f`` in the branching order.

    ``variant="GLB"``: one box is removed from the unit-tag diagram (the
    embedding that frees the new diagonal entry).  ``variant="GLU"``: one
    box is removed from the diagram at any degree-1 tag (the embedding
    that pins the new diagonal entry to 1).
    """
    if variant not in ("GLB", "GLU"):
        raise ValueError(f"unknown branching variant: {variant!r}")
    out = []
    if variant == "GLB":
        lam = f.diagram(UNIT)
        for smaller in box_removals(lam):
            out.append(f.with_diagram(UNIT, 1, smaller))
    else:
        for tag, d, lam in f.linear_blocks():
            for smaller in box_removals(lam):
                out.append(f.with_diagram(tag, 1, smaller))
    return out


def _check_blocks(sp: Specialization, blocks, q: Fraction):
    """Refuse, before any work, a trace value on the (d, lam) ``blocks``."""
    for d, lam in blocks:
        # the degree first, so that a block above it is refused as such
        check_hl_degree(size(lam))
        check_q_power(q, d * (size(lam) + n_stat(lam)), TRACE_Q_BITS_CAP, "trace values")
    if blocks and sp.gamma != 1:
        raise ValueError("unipotent trace values need gamma = 1")


def _block_pair(sp: Specialization, d: int, lam: Partition, q: Fraction) -> tuple[int, int]:
    """:func:`unipotent_block_value` as integers (N, D), not reduced, for a checked block.

    With q = a/b, t = q**-d = b**d / a**d in lowest terms, a**d > 0, so
    the row of Q_lam(t) is read from the memo by those integers, with no
    `Fraction` built, and dotted with the p_rho of
    p_k -> p_{dk}(sp) * a**(dk) / (a**(dk) - b**(dk)), the (N, D) of
    :func:`row_pair`; q**(d n(lam)) multiplies N by a**(d n(lam)) and D by
    b**(d n(lam)).
    """
    a, b = q.numerator, q.denominator
    a_d, b_d = a**d, b**d
    row = _hl_q(lam, b_d, a_d)

    def pair(k: int) -> tuple[int, int]:
        num, den = sp.power_pair(d * k)
        a_dk = a_d**k
        return num * a_dk, den * (a_dk - b_d**k)

    num, den = row_pair(row, power_products(pair, partitions_of(size(lam))))
    m = n_stat(lam)
    return num * a_d**m, den * b_d**m


def unipotent_block_value(sp: Specialization, d: int, lam: Partition, q) -> Fraction:
    """Extreme unipotent trace value on a single primary block.

    The block is a Jordan structure ``lam`` attached to an irreducible
    factor of degree ``d``; the value is q**(d n(lam)) times the
    specialization of the degree-stretched modified Q function at
    parameter t = q**(-d).  The modified Q'_lam is Q_lam with each p_k
    divided by 1 - t**k, and the stretch sends p_k to p_{dk}, so with
    t = a/b the value is the kept integer row of Q_lam(t), the memo of
    :func:`hl_q_row` read by a and b, dotted with the p_rho of
    p_k -> p_{dk}(sp) * b**k / (b**k - a**k), with no modified or
    stretched copy of Q_lam built: the integer pair of
    :func:`_block_pair`, as one `Fraction`.
    """
    q = check_q(q)
    _check_blocks(sp, ((d, lam),), q)
    return Fraction(*_block_pair(sp, d, check_partition(lam), q))


def unipotent_trace_value(sp: Specialization, cls: DiagramFamily, q) -> Fraction:
    """Trace value on an arbitrary conjugacy class: product over blocks.

    ``cls`` is a family of diagrams read as a conjugacy class (Jordan data
    per irreducible factor) rather than as a representation label.  The
    blocks' integer pairs from :func:`_block_pair` are multiplied, and the
    product becomes one `Fraction`.
    """
    q = check_q(q)
    _check_linear_capacity(cls, q)
    _check_blocks(sp, [(d, lam) for _, d, lam in cls.blocks], q)
    num = den = 1
    for _, d, lam in cls.blocks:
        n, m = _block_pair(sp, d, lam, q)
        num *= n
        den *= m
    return Fraction(num, den)


# A cold `coeffs --n N --alpha 1/2,1/4 --beta 1/8` in a fresh process
# (character tables built from nothing, CSV to a pipe) takes 0.25 s at
# N = 16, 0.6-0.7 s at 20, 0.9 s at 21 and 1.1-1.3 s at 22; with two
# --glu-params labels it is 1.4-1.6 s at 20 (2-vCPU Xeon, Python 3.11).
# The time grows 1.5 to 1.9 times every two degrees; building the
# character table is about half of it at 22.  More labels mean many more
# rows: three labels at degree 20 give 341649 of them, 20 MB of CSV in
# 11.3 s.  So --glu-params is also capped at the row count of two labels at
# the degree cap.  The cap is that of the character tables.
COEFFICIENT_DEGREE_CAP = CHARACTER_DEGREE_CAP
GLU_ROW_CAP = 24842


def _check_coefficient_degree(n: int):
    if n > COEFFICIENT_DEGREE_CAP:
        raise ValueError(
            f"trace coefficients capped at degree {COEFFICIENT_DEGREE_CAP}; got degree {n}"
        )


def _schur_values(sp: Specialization, n: int) -> dict[Partition, Fraction]:
    """Every s_lam(sp), |lam| = n: the :func:`schur_coefficients` of the class vector."""
    return dict(zip(partitions_of(n), schur_coefficients(class_vector(sp.power_pair, n), n)))


def trace_coefficients(sp: Specialization, n: int) -> dict[Partition, Fraction]:
    """Decomposition of a unipotent trace over the degree-n unipotent characters.

    The coefficient of the character labeled by ``lam`` is the
    specialization of the Schur function; the same numbers give the
    restriction of the trace to the rank-n Hecke subalgebra.  All of them
    come from one pass over the integer character table of degree n: the
    class vector p_rho(sp) / z_rho is built once over one denominator, each
    p_k read once, and each coefficient is one integer dot product with a
    row of the table.
    """
    _check_coefficient_degree(n)
    if sp.gamma != 1:
        raise ValueError("trace coefficients need gamma = 1")
    return _schur_values(sp, n)


def biregular_coefficient(f: DiagramFamily, q) -> Fraction:
    """Weight of a unit-free family in the biregular decomposition."""
    q = check_q(q)
    if f.has_unit():
        raise ValueError("biregular weights are indexed by unit-free families")
    _check_linear_capacity(f, q, reserve_unit=True)
    # (q - 1)**k = (a - b)**k / b**k; not a polynomial in q, so reduced by gcd
    a, b = q.numerator, q.denominator
    weight, hooks = _hook_weights(f, q)
    return Fraction((a - b) ** f.degree * weight, b**f.degree * hooks)


# ---------------------------------------------------------------------------
# Traces for the unit-diagonal tower: one parameter triple per eigenvalue


class GLUTraceParams(FrozenRecord):
    """Trace data with one specialization per nonzero field element.

    ``entries`` maps eigenvalue labels (tags of linear factors) to
    specializations; gammas must sum to 1.  ``background`` is the fixed
    part of the family and may not use degree-1 tags at all.
    """

    _fields = ("entries", "background")
    __slots__ = _fields

    def __init__(
        self,
        entries: tuple[tuple[str, Specialization], ...],
        background: DiagramFamily = EMPTY_FAMILY,
    ):
        labels = [label for label, _ in entries]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate eigenvalue labels")
        total = sum((sp.gamma for _, sp in entries), Fraction(0))
        if total != 1:
            raise ValueError(f"gammas must sum to 1, got {total}")
        if background.linear_blocks():
            raise ValueError("background family may not contain degree-1 blocks")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "background", background)


def _partition_tuples(total: int, slots: int):
    if slots == 0:
        if total == 0:
            yield ()
        return
    for head_size in range(total + 1):
        for head in partitions_of(head_size):
            for tail in _partition_tuples(total - head_size, slots - 1):
                yield (head,) + tail


def _row_count(m: int, labels: int) -> int:
    """Number of ``labels``-tuples of partitions of total size m.

    That is the x**m coefficient of P(x)**labels, with P the partition
    generating function.
    """
    p = [len(partitions_of(k)) for k in range(m + 1)]
    counts = [1] + [0] * m
    for _ in range(labels):
        counts = [sum(counts[j] * p[k - j] for j in range(k + 1)) for k in range(m + 1)]
    return counts[m]


def glu_trace_coefficients(
    params: GLUTraceParams, n: int
) -> dict[tuple[Partition, ...], Fraction]:
    """Coefficients of a unit-diagonal-tower trace over irreducible characters.

    Keys are tuples of diagrams, one per eigenvalue label in the order of
    ``params.entries``; the key describes the character whose family is
    the background plus those diagrams at the linear tags.  Empty when n
    is smaller than the background degree.
    """
    m = n - params.background.degree
    if m < 0:
        return {}
    _check_coefficient_degree(m)
    rows = _row_count(m, len(params.entries))
    if rows > GLU_ROW_CAP:
        raise ValueError(
            f"trace coefficients capped at {GLU_ROW_CAP} rows; "
            f"{len(params.entries)} labels at degree {m} give {rows}"
        )
    # one table of Schur values per label and degree, then products of entries
    tables = [[_schur_values(sp, k) for k in range(m + 1)] for _, sp in params.entries]
    return {
        key: prod((t[size(lam)][lam] for t, lam in zip(tables, key)), start=Fraction(1))
        for key in _partition_tuples(m, len(tables))
    }
