"""Integer partitions as plain tuples of weakly decreasing positive integers.

A partition is always a tuple like ``(3, 1, 1)``; trailing zeros are never
stored, and the empty partition is ``()``.  Everything here is a pure
function of that tuple, so results can be cached and shared freely.
"""

from functools import cache
from math import factorial
from operator import ge

Partition = tuple[int, ...]


def is_partition(parts) -> bool:
    """True if ``parts`` is a weakly decreasing tuple of positive integers.

    Each part must be exactly an `int`: a bool is an `int` to Python but
    not a part, and ``(True, True)`` would equal ``(1, 1)`` as a memo key.
    """
    # every transition row pays this check, so it loops in C, not in a
    # generator: the parts' types, then each adjacent pair, and the last
    # part, the least when the parts decrease
    return (
        {*map(type, parts)} <= {int}
        and all(map(ge, parts, parts[1:]))
        and (not parts or parts[-1] >= 1)
    )


def check_partition(parts) -> Partition:
    lam = tuple(parts)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam!r}")
    return lam


def parse_partition(text: str) -> Partition:
    """Parse the serialized form ``"3,1,1"``; the empty string is ``()``."""
    if not isinstance(text, str):
        raise TypeError(f"a partition is written like '3,1,1', not {text!r}")
    text = text.strip()
    if not text:
        return ()
    return check_partition(int(p) for p in text.split(","))


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam)


def size(lam: Partition) -> int:
    return sum(lam)


def transpose(lam: Partition) -> Partition:
    """Conjugate diagram: column lengths become row lengths."""
    if not lam:
        return ()
    # one pass: column j has i boxes, i the rows of length at least j; as j
    # grows, i walks down from the bottom row
    conj = []
    i = len(lam)
    for j in range(1, lam[0] + 1):
        while lam[i - 1] < j:
            i -= 1
        conj.append(i)
    return tuple(conj)


def n_stat(lam: Partition) -> int:
    """The weighted row statistic sum((i-1) * lam_i)."""
    return sum(i * p for i, p in enumerate(lam))


def hook_lengths(lam: Partition) -> list[int]:
    """All hook lengths, one per box (arm + leg + 1), in row-major order."""
    conj = transpose(lam)
    return [
        lam[i] - j + conj[j - 1] - i
        for i in range(len(lam))
        for j in range(1, lam[i] + 1)
    ]


def z_factor(rho: Partition) -> int:
    """Centralizer order of a permutation with cycle type ``rho``."""
    z = 1
    for part in set(rho):
        m = rho.count(part)
        z *= part**m * factorial(m)
    return z


def addable_corners(lam: Partition) -> list[tuple[int, int]]:
    """1-indexed (row, column) positions where one box may be added."""
    # one corner per block of equal parts, at its top row; the parts weakly
    # decrease, so lam.count(part) is the length of the block
    corners = []
    i = 0
    while i < len(lam):
        corners.append((i + 1, lam[i] + 1))
        i += lam.count(lam[i])
    corners.append((len(lam) + 1, 1))
    return corners


def add_box(lam: Partition, row: int) -> Partition:
    """Add a box in the given 1-indexed row (must be an addable corner)."""
    if row == len(lam) + 1:
        return lam + (1,)
    if not (1 <= row <= len(lam)) or (row > 1 and lam[row - 2] == lam[row - 1]):
        raise ValueError(f"row {row} is not an addable corner of {lam}")
    return lam[: row - 1] + (lam[row - 1] + 1,) + lam[row:]


def box_additions(lam: Partition) -> list[tuple[Partition, int]]:
    """All one-box extensions, as (new partition, column of the new box)."""
    return [(add_box(lam, row), col) for row, col in addable_corners(lam)]


def box_removals(lam: Partition) -> list[Partition]:
    """All partitions obtained by removing a single corner box."""
    out = []
    for i in range(len(lam)):
        if i + 1 == len(lam) or lam[i] > lam[i + 1]:
            mu = lam[:i] + (lam[i] - 1,) + lam[i + 1 :]
            out.append(tuple(p for p in mu if p > 0))
    return out


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n`` in decreasing lexicographic order.

    Built from the tables of lower degree along :func:`first_part_blocks`:
    block k, the partitions with first part k, is one concatenation of
    (k,) with a tail of ``partitions_of(n - k)``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return ((),)
    out: list[Partition] = []
    for k, start in first_part_blocks(n):
        out += map((k,).__add__, partitions_of(n - k)[start:])
    return tuple(out)


@cache
def first_part_blocks(n: int) -> tuple[tuple[int, int], ...]:
    """(k, start) for each first part k = n, ..., 1 of a partition of n.

    In ``partitions_of(n)`` the partitions with first part k form one
    block, (k,) + sigma for sigma in ``partitions_of(n - k)[start:]``: the
    sigma with first part at most k, a tail, since larger first parts come
    first.  Every per-degree table in that order is built block by block
    from these tails of the tables of lower degree.
    """
    return tuple((k, tail_starts(n - k)[min(k, n - k)]) for k in range(n, 0, -1))


@cache
def tail_starts(n: int) -> tuple[int, ...]:
    """Entry k, for 0 <= k <= n: where first parts of at most k begin in ``partitions_of(n)``.

    Entry n is 0, and entry 0 the number of partitions of n, or 0 for n = 0,
    whose one partition has no parts.
    """
    starts = [0] * (n + 1)
    for k, start in first_part_blocks(n):
        starts[k - 1] = starts[k] + len(partitions_of(n - k)) - start
    return tuple(starts)
