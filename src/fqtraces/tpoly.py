"""Dense univariate polynomials in a formal parameter t.

The carrier of the charge (Kostka-Foulkes) polynomials: integer
coefficients stored constant term first, normalized so the leading
coefficient is nonzero, evaluated exactly at rational points.
"""

from fractions import Fraction


class TPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, TPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, t):
        """Evaluate at an exact rational point by Horner's rule."""
        value = Fraction(0)
        for c in reversed(self.coeffs):
            value = value * t + c
        return value

    def __repr__(self):
        if not self.coeffs:
            return "TPolynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                base = "t" if i == 1 else f"t^{i}"
                terms.append(base if c == 1 else f"{c}*{base}")
        return "TPolynomial(" + " + ".join(terms) + ")"

    def to_list(self) -> list:
        """Coefficient list, constant term first (the wire format)."""
        return list(self.coeffs)
