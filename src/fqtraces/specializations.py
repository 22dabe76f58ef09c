"""Multiplicative specializations of symmetric functions.

A specialization is the algebra homomorphism determined by its values on
the power sums: ``p_1`` goes to ``gamma`` and for k >= 2

    p_k  ->  sum_i alpha_i**k  +  (-1)**(k-1) * sum_i beta_i**k.

The two parameter sequences are represented by "power sum providers" so
that infinite geometric-spread families can be evaluated in closed form
alongside explicit finite sequences.

Evaluation is integer arithmetic over one denominator.  A provider puts
its sequence over the common denominator once, when it is made, sums
the k-th powers of those integers and returns p_k as an integer pair
(N, D), not reduced; :meth:`Specialization.power_pair` joins its two
sides over the lcm of their D.  :func:`power_products` takes any such
pair function, reads each distinct p_k it needs once in the call and
puts the products p_rho over one common denominator E, the lcm of their
denominators; a caller that needs p_k in another form, such as a trace
block's stretched and modified p_k, passes its own pair function.  An
integer coefficient row over the same p_rho, such as a kept
Hall-Littlewood Q, is evaluated by :func:`row_pair` as one integer dot
product over one denominator, again a pair (N, D).  A specialized value
stays such a pair through every later factor (a trace block's power of
q, a cylinder's prefactor, the other blocks of a class) and becomes one
`Fraction` only where a function returns it; the transition rows'
successor weights never do, as integers sharing one common factor.
:func:`row_value` is the `Fraction` of one :func:`row_pair`, and
:meth:`Specialization.apply` reads it for a :class:`PowerSumElement`,
whose coefficients it first puts over one denominator.  Nothing is kept
between calls.  :meth:`Specialization.power_sum` is the one `Fraction`
view of a p_k.

The parameter records of the package (the power sum providers and
:class:`Specialization` here, ``MeasureParams`` and ``LLNRow`` in
:mod:`fqtraces.measures`, ``DiagramFamily`` and ``GLUTraceParams`` in
:mod:`fqtraces.traces`) are :class:`FrozenRecord` subclasses.
"""

from fractions import Fraction
from math import lcm
from operator import mul


def _fraction(v) -> Fraction:
    """``Fraction(v)``, without building a copy of a `Fraction`."""
    return v if type(v) is Fraction else Fraction(v)


def _as_fractions(values) -> tuple[Fraction, ...]:
    return tuple(map(_fraction, values))


def check_q(q) -> Fraction:
    """The field size q as a `Fraction`; it must exceed 1."""
    q = _fraction(q)
    if q.numerator <= q.denominator:
        raise ValueError(f"q must exceed 1, got {q}")
    return q


def check_q_power(q: Fraction, exponent: int, cap: int, what: str):
    """Refuse, before any work, a request that builds q**exponent above ``cap`` bits.

    The bits of numerator and denominator both count: q = 10001/10000 makes
    both large.
    """
    bits = exponent * (q.numerator.bit_length() + q.denominator.bit_length())
    if bits > cap:
        raise ValueError(f"{what} capped at {cap} bits in powers of q; got {bits}")


def _largest(values, count: int) -> list[Fraction]:
    """The ``count`` largest of ``values`` in decreasing order, padded with zeros."""
    out = sorted(values, reverse=True)[:count]
    return out + [Fraction(0)] * (count - len(out))


def _check_weakly_decreasing_nonneg(values, nums: tuple[int, ...], what: str):
    """Refuse ``values`` with a negative entry or an increase, the first fault first.

    ``nums`` are the values times one positive common denominator, as
    :func:`_over_common_denominator` gives them, so the checks compare
    integers; a message names the value itself.
    """
    for i, v in enumerate(nums):
        if v < 0:
            raise ValueError(f"{what} must be non-negative, got {values[i]}")
        if i and nums[i - 1] < v:
            raise ValueError(f"{what} must be weakly decreasing")


def _over_common_denominator(values: tuple[Fraction, ...]) -> tuple[int, tuple[int, ...]]:
    """(D, (D * v for v in values)), D the values' common denominator."""
    dens = [v.denominator for v in values]
    den = lcm(*dens)
    return den, tuple([v.numerator * (den // d) for v, d in zip(values, dens)])


class FrozenRecord:
    """An immutable record, compared and hashed as the tuple of its fields.

    A subclass names its fields in ``_fields``, in order: they are what its
    ``repr`` shows, what ``==`` compares, against a record of the very same
    class only, and what ``hash`` hashes, as one tuple.  Its ``__init__``
    checks its arguments and sets the fields, and anything it derives from
    them once, with ``object.__setattr__``; every later assignment or
    deletion raises AttributeError.  Records have no ``__slots__``: they
    take weak references, and ``vars`` shows what they hold.
    """

    _fields: tuple[str, ...] = ()

    def _field_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values() == other._field_values()
        return NotImplemented

    def __hash__(self):
        return hash(self._field_values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FinitePowerSums(FrozenRecord):
    """Power sums of an explicit finite sequence, taken as given."""

    _fields = ("values",)

    def __init__(self, values: tuple[Fraction, ...]):
        object.__setattr__(self, "values", values)
        # the values over their common denominator, built once
        object.__setattr__(self, "_scaled", _over_common_denominator(values))

    def power_pair(self, k: int) -> tuple[int, int]:
        den, nums = self._scaled
        return sum(v**k for v in nums), den**k

    def frequencies(self, count: int) -> list[Fraction]:
        return _largest(self.values, count)


class GeometricSpread(FrozenRecord):
    """The doubly indexed sequence (1 - 1/q) * seq_i * q**(1-j), j = 1, 2, ...

    Each entry of ``seq`` is smeared into a geometric series with ratio 1/q;
    the k-th power sum of the whole array has the closed form

        (1 - 1/q)**k / (1 - q**(-k)) * sum_i seq_i**k

    and the total mass equals ``sum(seq)``.
    """

    _fields = ("seq", "q")

    def __init__(self, seq: tuple[Fraction, ...], q: Fraction):
        seq = _as_fractions(seq)
        q = check_q(q)
        scaled = _over_common_denominator(seq)
        _check_weakly_decreasing_nonneg(seq, scaled[1], "spread sequence")
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "q", q)
        # the sequence over its common denominator, built once
        object.__setattr__(self, "_scaled", scaled)

    def power_pair(self, k: int) -> tuple[int, int]:
        # for q = a/b, (1 - 1/q)**k / (1 - q**-k) = (a - b)**k / (a**k - b**k)
        a, b = self.q.numerator, self.q.denominator
        den, nums = self._scaled
        return (a - b) ** k * sum(v**k for v in nums), (a**k - b**k) * den**k

    def frequencies(self, count: int) -> list[Fraction]:
        """The ``count`` largest entries of the array, in decreasing order."""
        # each row decreases, so they are among the first ``count`` of each row
        scale = 1 - 1 / self.q
        return _largest((scale * s / self.q**j for s in self.seq for j in range(count)), count)


EMPTY = FinitePowerSums(())


def power_products(pair, rhos) -> tuple[int, list[int]]:
    """(E, [E * p_rho for rho in rhos]): products of power sums over one denominator.

    ``pair(k)`` gives p_k = N_k / D_k as integers, as
    :meth:`Specialization.power_pair` does, and is called once for each
    distinct k.  With D_rho = D_rho1 * D_rho2 * ..., E is the lcm of the
    D_rho and the entry of rho is N_rho1 * N_rho2 * ... * (E / D_rho).  E
    divides B**L, B the lcm of the D_k and L the length of the longest rho,
    and can be far smaller: when each D_k divides 8**k, E divides 8**n for
    rhos of size n.
    """
    pairs = {k: pair(k) for k in set().union(*rhos)}
    nums, dens = [], []
    for rho in rhos:
        num = den = 1
        for k in rho:
            n, d = pairs[k]
            num *= n
            den *= d
        nums.append(num)
        dens.append(den)
    e = lcm(*dens)
    return e, [num * (e // den) for num, den in zip(nums, dens)]


def row_pair(row: tuple[int, tuple[int, ...]], vector: tuple[int, list[int]]) -> tuple[int, int]:
    """sum_i c_i p_i as integers (N, D), for c_i = row[1][i] / row[0] and p_i = vector[1][i] / vector[0].

    One integer dot product over row[0] * vector[0], not reduced: a
    coefficient row such as :func:`fqtraces.symfunc.hl_q_row` gives against
    p_rho values in the same order, such as :func:`power_products` gives.
    """
    (den, coeffs), (e, values) = row, vector
    return sum(map(mul, coeffs, values)), den * e


def row_value(row: tuple[int, tuple[int, ...]], vector: tuple[int, list[int]]) -> Fraction:
    """The :func:`row_pair` of a row and a vector as one `Fraction`."""
    return Fraction(*row_pair(row, vector))


class Specialization(FrozenRecord):
    """The homomorphism with parameter data (alpha side, beta side, gamma)."""

    _fields = ("alpha", "beta", "gamma")

    def __init__(self, alpha, beta, gamma: Fraction):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

    @classmethod
    def finite(cls, alphas=(), betas=(), gamma=1) -> "Specialization":
        """Explicit parameter sequences; validates the mass constraint."""
        alpha = FinitePowerSums(_as_fractions(alphas))
        beta = FinitePowerSums(_as_fractions(betas))
        gamma = _fraction(gamma)
        _check_weakly_decreasing_nonneg(alpha.values, alpha._scaled[1], "alpha")
        _check_weakly_decreasing_nonneg(beta.values, beta._scaled[1], "beta")
        # sum(alpha) + sum(beta) > gamma, over positive denominators
        (na, da), (nb, db) = alpha.power_pair(1), beta.power_pair(1)
        if (na * db + nb * da) * gamma.denominator > gamma.numerator * da * db:
            raise ValueError("sum(alpha) + sum(beta) must not exceed gamma")
        return cls(alpha, beta, gamma)

    def power_pair(self, k: int) -> tuple[int, int]:
        """p_k as integers (N, D), p_k = N / D, not reduced.

        The two sides are joined over the lcm of their denominators, not
        their product, which would grow E in :func:`power_products`.
        """
        if k < 1:
            raise ValueError("power sum index must be >= 1")
        if k == 1:
            return self.gamma.numerator, self.gamma.denominator
        na, da = self.alpha.power_pair(k)
        nb, db = self.beta.power_pair(k)
        den = lcm(da, db)
        if k % 2 == 0:
            nb = -nb
        return na * (den // da) + nb * (den // db), den

    def power_sum(self, k: int) -> Fraction:
        return Fraction(*self.power_pair(k))

    def apply(self, f) -> Fraction:
        """The value of f, a PowerSumElement: sum over rho of c_rho * p_rho1 * p_rho2 * ...

        The coefficients over their common denominator, dotted by
        :func:`row_value` with the p_rho from :func:`power_products`.
        """
        terms = f.terms
        coeffs = _over_common_denominator(tuple(terms.values()))
        return row_value(coeffs, power_products(self.power_pair, terms))
