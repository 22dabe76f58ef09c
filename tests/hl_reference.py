"""Independent reference constructions used only by the tests.

Two ways to get Hall-Littlewood data without the charge statistic:

* Gram-Schmidt: orthogonalize the monomial basis under the t-deformed
  power-sum inner product; the result is the P basis, and the transition
  coefficients from Schur functions are the charge polynomials evaluated
  at t.
* Branching: build P as an explicit polynomial in finitely many variables
  by peeling one variable at a time with horizontal-strip weights, and
  solve for the Schur transition coefficients by matching monomials.

Both are deliberately different from the production paths: charge
enumeration for the Kostka-Foulkes polynomials and Jing's vertex operator
for Q.

Symmetric-group characters also get a reference here: the border-strip
recursion one (lam, rho) pair at a time, against which the per-degree
character table is checked.

Specializations too: :func:`apply_reference` evaluates term by term in
`Fraction`s, reading p_k again for every part, and
:func:`schur_value_reference` is one Schur function at a time through it,
the references for ``Specialization.apply`` and the character-table pass
behind the trace coefficients.

Kostka numbers get one too: :func:`kostka_by_strips` peels a horizontal
strip per part of the content, the smallest part first, with no shortcut
for parts equal to 1.

The dominance order, which the charge polynomials are triangular in, is
here as well.
"""

from fractions import Fraction
from functools import cache

from fqtraces.partitions import partitions_of, size, z_factor
from fqtraces.symfunc import PowerSumElement, _strip_removals, kostka, schur_in_p


def dominance_leq(lam, mu) -> bool:
    """Dominance order: partial sums of ``lam`` never exceed those of ``mu``."""
    if size(lam) != size(mu):
        raise ValueError("dominance compares partitions of equal size")
    total_l = total_m = 0
    for k in range(max(len(lam), len(mu))):
        total_l += lam[k] if k < len(lam) else 0
        total_m += mu[k] if k < len(mu) else 0
        if total_l > total_m:
            return False
    return True


@cache
def kostka_by_strips(shape, content) -> int:
    """Column-strict fillings of shape with the given content, letter len(content) first.

    Its boxes form a horizontal strip on the rim; the rest is a filling of
    what is left with the other letters.  The reference for ``kostka``.
    """
    if len(shape) > len(content):
        return 0
    if not content:
        return 1
    return sum(
        kostka_by_strips(smaller, content[:-1])
        for smaller in _strip_removals(shape, content[-1])
    )


def apply_reference(sp, f: PowerSumElement) -> Fraction:
    """f at the specialization sp, one `Fraction` product per term."""
    total = Fraction(0)
    for rho, c in f.terms.items():
        value = c
        for part in rho:
            value *= sp.power_sum(part)
        total += value
    return total


def schur_value_reference(sp, lam) -> Fraction:
    """s_lam(sp) through the Schur function's own power-sum expansion."""
    return apply_reference(sp, schur_in_p(lam))


@cache
def sym_character_reference(lam, rho) -> int:
    """chi^lam(rho) by removing a border strip of length rho_1 and recursing.

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
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted([c for c in beta if c != b] + [nb], reverse=True)
        parts = (new_beta[j] - (ell - 1 - j) for j in range(ell))
        mu = tuple(p for p in parts if p > 0)
        total += (-1) ** height * sym_character_reference(mu, rest)
    return total


def t_inner(f: PowerSumElement, g: PowerSumElement, t: Fraction) -> Fraction:
    """Deformed inner product with <p_rho, p_rho> = z_rho / prod (1 - t**rho_i)."""
    total = Fraction(0)
    for rho, a in f.terms.items():
        b = g.terms.get(rho)
        if b is None:
            continue
        w = Fraction(z_factor(rho))
        for part in rho:
            w /= 1 - t**part
        total += a * b * w
    return total


def monomial_in_p(n: int) -> dict:
    """Monomial symmetric functions in the p basis via inverse Kostka."""
    order = partitions_of(n)
    m = len(order)
    K = [[kostka(order[i], order[j]) for j in range(m)] for i in range(m)]
    inv = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        inv[i][i] = Fraction(1)
    for span in range(1, m):
        for i in range(m - span):
            j = i + span
            inv[i][j] = -sum(K[i][k] * inv[k][j] for k in range(i + 1, j + 1))
    out = {}
    for jj, lam in enumerate(order):
        acc = PowerSumElement()
        for ii in range(m):
            if inv[jj][ii]:
                acc = acc + schur_in_p(order[ii]) * inv[jj][ii]
        out[lam] = acc
    return out


def gram_schmidt_hl_p(n: int, t: Fraction) -> dict:
    """The P basis at degree n, orthogonalized smallest-dominance first."""
    order = list(partitions_of(n))[::-1]
    mono = monomial_in_p(n)
    P: dict = {}
    for lam in order:
        f = mono[lam]
        for mu in P:
            c = t_inner(f, P[mu], t) / t_inner(P[mu], P[mu], t)
            if c:
                f = f + P[mu] * (-c)
        P[lam] = f
    return P


def kostka_foulkes_reference(shape, content, t: Fraction) -> Fraction:
    """Charge polynomial value via orthogonality, no tableaux involved."""
    P = gram_schmidt_hl_p(sum(shape), t)
    lam = tuple(content)
    return t_inner(schur_in_p(tuple(shape)), P[lam], t) / t_inner(P[lam], P[lam], t)


def _mult(lam, i):
    return sum(1 for p in lam if p == i)


def _psi_strip(lam, mu, t):
    """Branch weight for the horizontal strip lam / mu."""
    v = Fraction(1)
    for i in range(1, (lam[0] if lam else 0) + 1):
        if _mult(mu, i) == _mult(lam, i) + 1:
            v *= 1 - t ** _mult(mu, i)
    return v


def hl_p_monomials(lam, nvars: int, t: Fraction) -> dict:
    """P as an explicit polynomial: exponent tuple -> coefficient."""
    if nvars == 0:
        return {(): Fraction(1)} if not lam else {}
    out: dict = {}
    for k in range(sum(lam) + 1):
        for mu in _strip_removals(tuple(lam), k):
            w = _psi_strip(tuple(lam), mu, t)
            if not w:
                continue
            for expo, c in hl_p_monomials(mu, nvars - 1, t).items():
                key = expo + (k,)
                out[key] = out.get(key, Fraction(0)) + c * w
    return {k: v for k, v in out.items() if v}


def schur_monomials(lam, nvars: int) -> dict:
    """Schur polynomial by column-strict fillings: exponent tuple -> coeff."""
    if nvars == 0:
        return {(): Fraction(1)} if not lam else {}
    out: dict = {}
    for k in range(sum(lam) + 1):
        for mu in _strip_removals(tuple(lam), k):
            for expo, c in schur_monomials(mu, nvars - 1).items():
                key = expo + (k,)
                out[key] = out.get(key, Fraction(0)) + c
    return out


def kostka_foulkes_branching(shape, t: Fraction) -> dict:
    """Full row {content: K(shape, content)(t)} via monomial matching."""
    n = sum(shape)
    order = partitions_of(n)
    P = {lam: hl_p_monomials(lam, n, t) for lam in order}
    rest = dict(schur_monomials(tuple(shape), n))
    out = {}
    for lam in order:
        key = tuple(lam[i] if i < len(lam) else 0 for i in range(n))
        lead = P[lam].get(key, Fraction(0))
        c = rest.get(key, Fraction(0))
        if lead == 0:
            assert c == 0
            continue
        coef = c / lead
        if coef:
            out[lam] = coef
            for expo, v in P[lam].items():
                rest[expo] = rest.get(expo, Fraction(0)) - coef * v
    assert not any(rest.values()), "branching expansion left a remainder"
    return out
