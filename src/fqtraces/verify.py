"""Named verification suites: every closed-form layer against ground truth.

Each suite cross-checks one exact identity, either internally (two
independent computation paths) or against the brute-force finite-field
oracle.  Suites return structured rows so the command line can emit CSV
and CI can shard them by name.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from fqtraces.measures import (
    MeasureParams,
    cyl_prob,
    cyl_prob_from_trace,
    extension_count,
    hl_weight,
    lln_experiment,
    transition_distribution,
)
from fqtraces.oracle import (
    FqMatrix,
    all_matrices,
    conjugacy_family_of,
    count_fixed_flags,
    ext_enumerate,
    families_enumerate,
    field_make,
    jordan_block_matrix,
    unipotent_class_of,
    unipotent_matrices,
    unipotent_upper_triangular,
)
from fqtraces.partitions import (
    format_partition,
    hook_lengths,
    n_stat,
    partitions_of,
    size,
)
from fqtraces.specializations import EMPTY, GeometricSpread, Specialization
from fqtraces.symfunc import (
    PowerSumElement,
    hl_q_in_p,
    kostka,
    kostka_foulkes,
    modified_hl_q,
    schur_expand,
    schur_in_p,
)
from fqtraces.traces import (
    UNIT,
    biregular_coefficient,
    branching_predecessors,
    family,
    green_dimension,
    trace_coefficients,
    unipotent_trace_value,
)


@dataclass(frozen=True)
class CheckRow:
    suite: str
    instance: str
    left: str
    right: str
    ok: bool


@dataclass(frozen=True)
class SuiteResult:
    name: str
    rows: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)


_SUITES: dict[str, object] = {}


def _suite(name):
    def deco(fn):
        _SUITES[name] = fn
        return fn

    return deco


def suite_names() -> list[str]:
    return list(_SUITES)


def run_suite(name: str) -> SuiteResult:
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(_SUITES)}")
    return SuiteResult(name, tuple(_SUITES[name]()))


def _row(suite, instance, left, right) -> CheckRow:
    return CheckRow(suite, instance, str(left), str(right), left == right)


def _agg(suite, instance, mismatches, checked) -> CheckRow:
    return CheckRow(
        suite, instance, f"{mismatches} mismatches", f"0 of {checked}", mismatches == 0
    )


# ---------------------------------------------------------------------------
# 1. Hall-Littlewood Q from the vertex operator vs charge polynomials


def hl_q_by_charge(lam, t) -> PowerSumElement:
    """Q_lam(t) from one charge column, independently of :func:`hl_q_in_p`.

    The modified function sum_mu K_{mu,lam}(t) s_mu, with each p_rho
    coefficient multiplied by prod_i (1 - t**rho_i).
    """
    f = PowerSumElement()
    for mu in partitions_of(size(lam)):
        f = f + schur_in_p(mu) * kostka_foulkes(mu, lam)(t)
    return PowerSumElement(
        {rho: c * prod(1 - t**part for part in rho) for rho, c in f.terms.items()}
    )


@_suite("hl-schur-identity")
def _check_hl_schur_identity():
    rows = []
    # symbolic identity in the polynomial ring.  On both sides every p
    # coefficient is a polynomial in t of degree at most n(n+1)/2.  Operator
    # side: q_N has degree N, so H_k raises the degree by at most k plus the
    # degree of the function it acts on, at most n(n+1)/2 in total.  Charge
    # side: n(lam) + n.  Agreement at n(n+1)/2 + 1 points proves the identity.
    for n in range(1, 6):
        top = n * (n + 1) // 2
        points = [Fraction(k, top + 1) for k in range(top + 1)]
        bad = sum(
            any(hl_q_in_p(lam, t) != hl_q_by_charge(lam, t) for t in points)
            for lam in partitions_of(n)
        )
        rows.append(_agg("hl-schur-identity", f"symbolic-degree-{n}", bad, len(partitions_of(n))))
    for t in (Fraction(1, 2), Fraction(1, 3)):
        for n in range(1, 7):
            bad = checked = 0
            for lam in partitions_of(n):
                got = schur_expand(modified_hl_q(lam, t))
                for mu in partitions_of(n):
                    checked += 1
                    if got.get(mu, Fraction(0)) != kostka_foulkes(mu, lam)(t):
                        bad += 1
            rows.append(_agg("hl-schur-identity", f"t={t}-degree-{n}", bad, checked))
    return rows


# ---------------------------------------------------------------------------
# 2. Sum of squared dimensions = group order


@_suite("dimension-squares")
def _check_dimension_squares():
    rows = []
    for q in (2, 3):
        for n in range(1, 5):
            total = sum(
                green_dimension(f, q) ** 2 for f in families_enumerate(n, q)
            )
            order = 1
            for i in range(n):
                order *= q**n - q**i
            rows.append(_row("dimension-squares", f"n={n}-q={q}", total, Fraction(order)))
    return rows


# ---------------------------------------------------------------------------
# 3. Branching dimension inequality, both embedding variants


@_suite("branching")
def _check_branching():
    rows = []
    for q in (2, 3):
        for n in range(1, 5):
            fams = families_enumerate(n, q)
            for variant in ("GLB", "GLU"):
                bad = 0
                for f in fams:
                    dim = green_dimension(f, q)
                    pred = sum(
                        (green_dimension(g, q) for g in branching_predecessors(f, variant)),
                        Fraction(0),
                    )
                    if not dim >= pred:
                        bad += 1
                rows.append(_agg("branching", f"{variant}-n={n}-q={q}", bad, len(fams)))
    return rows


# ---------------------------------------------------------------------------
# 4. Extension counts against brute-force classification


def _classify_extensions(g: FqMatrix) -> dict:
    counts: dict = {}
    for h in ext_enumerate(g, "GLU"):
        mu = unipotent_class_of(h)
        counts[mu] = counts.get(mu, 0) + 1
    return counts


@_suite("extension-counts")
def _check_extension_counts():
    rows = []
    for q, top in ((2, 5), (3, 4)):
        field = field_make(q)
        for n in range(0, top + 1):
            if n <= 3:
                mats = list(unipotent_matrices(field, n)) if n else [FqMatrix(field, ())]
                scope = "all-unipotent"
            else:
                # every Jordan class appears among unit upper-triangular
                # matrices, and the classification is a class function
                mats = list(unipotent_upper_triangular(field, n))
                scope = "upper-triangular"
            bad = checked = 0
            for g in mats:
                lam = unipotent_class_of(g) if n else ()
                got = _classify_extensions(g)
                for mu in partitions_of(n + 1):
                    checked += 1
                    if Fraction(got.get(mu, 0)) != extension_count(lam, mu, q):
                        bad += 1
            rows.append(
                _agg("extension-counts", f"n={n}-q={q}-{scope}", bad, checked)
            )
    return rows


# ---------------------------------------------------------------------------
# 5. Haar flatness of cylinder probabilities


@_suite("haar-flatness")
def _check_haar_flatness():
    rows = []
    for q in (2, 3):
        params = MeasureParams.haar(q)
        for n in range(0, 9):
            bad = 0
            flat = Fraction(q) ** (-(n * (n - 1)) // 2)
            for lam in partitions_of(n):
                closed = (1 - Fraction(1, q)) ** n / Fraction(q) ** n_stat(lam)
                if hl_weight(params, lam) != closed:
                    bad += 1
                if cyl_prob(params, lam) != flat:
                    bad += 1
            rows.append(_agg("haar-flatness", f"n={n}-q={q}", bad, 2 * len(partitions_of(n))))
    return rows


# ---------------------------------------------------------------------------
# 6. Growth chain rows sum to one


@_suite("growth-normalization")
def _check_growth_normalization():
    # the closed forms to level 20, the generic Hall-Littlewood route to 8;
    # each family checks only the diagrams of positive weight
    cases = [
        ("haar-q2", MeasureParams.haar(2), 20),
        ("haar-q3", MeasureParams.haar(3), 20),
        ("delta-q2", MeasureParams.delta_identity(2), 20),
        ("single-row-q2", MeasureParams.single_row(2), 20),
        ("grid-r=1/4,c=1/4,q=2", MeasureParams((Fraction(1, 4),), (Fraction(1, 4),), 2), 8),
        ("grid-r=1/2+1/4,q=2", MeasureParams((Fraction(1, 2), Fraction(1, 4)), (), 2), 8),
        ("grid-c=1/2+1/4,q=3", MeasureParams((), (Fraction(1, 2), Fraction(1, 4)), 3), 8),
        (
            "grid-r=1/3,c=1/3+1/6,q=2",
            MeasureParams((Fraction(1, 3),), (Fraction(1, 3), Fraction(1, 6)), 2),
            8,
        ),
    ]
    rows = []
    for label, params, top in cases:
        bad = checked = 0
        for n in range(0, top + 1):
            for lam in partitions_of(n):
                if not params.family.weight(lam) > 0:
                    continue
                checked += 1
                if sum(p for _, p in transition_distribution(params, lam)) != 1:
                    bad += 1
        rows.append(_agg("growth-normalization", f"{label}-to-{top}", bad, checked))
    return rows


# ---------------------------------------------------------------------------
# 7. Law of large numbers for the uniform measure


@_suite("lln")
def _check_lln():
    stats = lln_experiment(MeasureParams.haar(2), n_max=1000, trials=200, seed=20240817)
    bands = {1: (0.49, 0.51), 2: (0.24, 0.26)}
    rows = []
    for stat_row in stats:
        if stat_row.statistic != "lambda_i/n" or stat_row.index not in bands:
            continue
        lo, hi = bands[stat_row.index]
        ok = lo <= stat_row.empirical <= hi
        rows.append(
            CheckRow(
                "lln",
                f"haar-q2-lambda_{stat_row.index}/n",
                f"{stat_row.empirical!r}",
                f"[{lo},{hi}]",
                ok,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# 8. Trace-parameter map between the two cylinder formulas


@_suite("trace-measure-map")
def _check_trace_measure_map():
    grid = [
        ((Fraction(1),), ()),
        ((), (Fraction(1),)),
        ((Fraction(1, 2), Fraction(1, 2)), ()),
        ((Fraction(1, 4),), (Fraction(1, 4),)),
    ]
    rows = []
    for q in (2, 3):
        for alphas, betas in grid:
            sp = Specialization.finite(alphas, betas, 1)
            params = MeasureParams(GeometricSpread(alphas, q), betas, q)
            bad = checked = 0
            for n in range(0, 6):
                for lam in partitions_of(n):
                    checked += 1
                    if cyl_prob_from_trace(sp, lam, q) != cyl_prob(params, lam):
                        bad += 1
            label = f"alpha={list(map(str, alphas))}-beta={list(map(str, betas))}-q={q}"
            rows.append(_agg("trace-measure-map", label, bad, checked))
    return rows


# ---------------------------------------------------------------------------
# 9. Flag characters vs Kostka combinations of unipotent character values


def _unipotent_character_value(lam, nu, q) -> Fraction:
    """Value of the unipotent character lam on the unipotent class nu."""
    return Fraction(q) ** n_stat(nu) * kostka_foulkes(lam, nu)(Fraction(1, q))


@_suite("flag-kostka")
def _check_flag_kostka():
    rows = []
    for q, top in ((2, 4), (3, 3)):
        field = field_make(q)
        for n in range(1, top + 1):
            bad = checked = 0
            predicted = {}  # (class, flag shape) -> Kostka-combined value
            for g in unipotent_matrices(field, n):
                nu = unipotent_class_of(g)
                for mu in partitions_of(n):
                    checked += 1
                    if (nu, mu) not in predicted:
                        predicted[nu, mu] = sum(
                            kostka(lam, mu) * _unipotent_character_value(lam, nu, q)
                            for lam in partitions_of(n)
                        )
                    if Fraction(count_fixed_flags(g, mu)) != predicted[nu, mu]:
                        bad += 1
            rows.append(_agg("flag-kostka", f"n={n}-q={q}", bad, checked))
    return rows


# ---------------------------------------------------------------------------
# 10. Fixed-subspace generating function vs Schur-weighted characters


def _unipotent_characters_from_flags(m: FqMatrix) -> dict:
    """Solve the flag decomposition for the unipotent character values."""
    n = m.nrows
    order = partitions_of(n)
    psi = {mu: Fraction(count_fixed_flags(m, mu)) for mu in order}
    chi: dict = {}
    for mu in order:  # decreasing lexicographic refines dominance
        value = psi[mu]
        for lam in chi:
            value -= kostka(lam, mu) * chi[lam]
        chi[mu] = value
    return chi


@_suite("spherical")
def _check_spherical():
    rows = []
    q = 2
    field = field_make(q)
    for t1 in (Fraction(1, 2), Fraction(1, 3)):
        t2 = 1 - t1
        sp = Specialization.finite(tuple(sorted((t1, t2), reverse=True)), (), 1)
        for n in range(1, 4):
            bad = checked = 0
            schur_values = trace_coefficients(sp, n)
            for g in all_matrices(field, n):
                if not g.is_invertible():
                    continue
                checked += 1
                lhs = sum(
                    t1**d * t2 ** (n - d) * count_fixed_flags(g, (d, n - d))
                    for d in range(n + 1)
                )
                chi = _unipotent_characters_from_flags(g)
                rhs = sum(schur_values[lam] * chi[lam] for lam in partitions_of(n))
                if lhs != rhs:
                    bad += 1
            rows.append(_agg("spherical", f"n={n}-t1={t1}", bad, checked))
    return rows


# ---------------------------------------------------------------------------
# 11. Biregular decomposition identities


def _principal_schur(q, n: int) -> dict:
    """Every s_lam of size n at the principal specialization: beta = (1) spread with ratio 1/q."""
    beta = GeometricSpread((Fraction(1),), q)
    return trace_coefficients(Specialization(EMPTY, beta, Fraction(1)), n)


@_suite("biregular")
def _check_biregular():
    rows = []
    for q in (2, 3, 4):
        bad = checked = 0
        for n in range(1, 7):
            schur = _principal_schur(q, n)
            for lam in partitions_of(n):
                checked += 1
                closed = Fraction(q - 1) ** n * Fraction(q) ** n_stat(lam)
                for h in hook_lengths(lam):
                    closed /= q**h - 1
                if schur[lam] != closed:
                    bad += 1
        rows.append(_agg("biregular", f"principal-schur-q={q}", bad, checked))
    # regular-character coefficients at q = 2: the weight of every
    # irreducible in the biregular decomposition must match the regular
    # representation normalization times its dimension.
    q = 2
    for n in (2, 3):
        schur = {}
        for k in range(n + 1):
            schur.update(_principal_schur(q, k))
        norm = Fraction(1)
        for i in range(1, n + 1):
            norm *= Fraction(q - 1, q**i - 1)
        total = Fraction(0)
        for f in families_enumerate(n, q):
            unit_diagram = f.diagram(UNIT)
            background = f.with_diagram(UNIT, 1, ())
            coeff = biregular_coefficient(background, q) * schur[unit_diagram]
            expected = norm * green_dimension(f, q)
            total += coeff
            if n == 2:
                rows.append(
                    _row(
                        "biregular",
                        f"coefficient-{'+'.join(t for t, _, _ in f.blocks) or 'empty'}"
                        f"-{format_partition(unit_diagram) or '0'}",
                        coeff,
                        expected,
                    )
                )
            elif coeff != expected:
                rows.append(_row("biregular", f"coefficient-n={n}-mismatch", coeff, expected))
        dim_sum = sum(green_dimension(f, q) for f in families_enumerate(n, q))
        rows.append(
            _row("biregular", f"coefficient-total-n={n}-q=2", total, norm * dim_sum)
        )
    return rows


# ---------------------------------------------------------------------------
# 12. Steinberg values


@_suite("steinberg")
def _check_steinberg():
    rows = []
    sp = Specialization.finite((), (Fraction(1),), 1)
    for q in (2, 3):
        for n in range(1, 5):
            cls = family((UNIT, 1, (1,) * n))
            value = unipotent_trace_value(sp, cls, q)
            rows.append(
                _row(
                    "steinberg",
                    f"identity-n={n}-q={q}",
                    value,
                    Fraction(q) ** (n * (n - 1) // 2),
                )
            )
        elliptic = family(("irreducible-quadratic", 2, (1,)))
        rows.append(
            _row(
                "steinberg",
                f"elliptic-q={q}",
                unipotent_trace_value(sp, elliptic, q),
                Fraction(-1),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Extra oracle suites (module invariants, addressable from the CLI)


@_suite("companion-base-change")
def _check_companion_base_change():
    """Flag counts of companion-block matrices match the extension field."""
    rows = []
    q, k = 2, 2
    f2 = field_make(q)
    f4 = field_make(q**k)
    quad = (1, 1, 1)  # the irreducible quadratic over F_2
    y = 2  # a root of it inside F_4
    for m in (1, 2):
        for nu in partitions_of(m):
            g = jordan_block_matrix(f2, quad, nu)
            gy = jordan_block_matrix(f4, (f4.neg[y], 1), nu)
            for mu in partitions_of(2 * m):
                lhs = count_fixed_flags(g, mu)
                halves = tuple(p // 2 for p in mu)
                if all(p % 2 == 0 for p in mu):
                    rhs = count_fixed_flags(gy, halves)
                else:
                    rhs = 0
                rows.append(
                    _row(
                        "companion-base-change",
                        f"nu={format_partition(nu)}-mu={format_partition(mu)}",
                        lhs,
                        rhs,
                    )
                )
    return rows


@_suite("trace-values-oracle")
def _check_trace_values_oracle():
    """Trace values on arbitrary classes vs flag-derived character sums.

    The restriction of an extreme unipotent trace decomposes over the
    unipotent irreducibles with Schur-specialization coefficients, and
    each unipotent character value at any invertible matrix can be read
    off fixed-flag counts via inverse Kostka.  Comparing that sum with
    the multiplicative block-product formula checks the multiplicativity
    and the degree-stretching of the block values in one sweep.
    """
    from fqtraces.oracle import class_representative, polys_by_tag

    specs = [
        ("alpha=1", Specialization.finite((Fraction(1),), (), 1)),
        ("beta=1", Specialization.finite((), (Fraction(1),), 1)),
        ("mixed", Specialization.finite((Fraction(1, 2),), (Fraction(1, 4),), 1)),
    ]
    rows = []
    for q in (2, 3):
        field = field_make(q)
        tags = polys_by_tag(q, 3)
        for n in range(1, 4):
            schur_specialized = {label: trace_coefficients(sp, n) for label, sp in specs}
            bad = checked = 0
            for fam in families_enumerate(n, q):
                rep = class_representative(field, fam, tags)
                chi = _unipotent_characters_from_flags(rep)
                for label, sp in specs:
                    checked += 1
                    from_flags = sum(
                        schur_specialized[label][lam] * chi[lam]
                        for lam in partitions_of(n)
                    )
                    if unipotent_trace_value(sp, fam, q) != from_flags:
                        bad += 1
            rows.append(_agg("trace-values-oracle", f"n={n}-q={q}", bad, checked))
    return rows


@_suite("class-coverage")
def _check_class_coverage():
    """Every invertible matrix lands on exactly one enumerated family."""
    rows = []
    for q in (2, 3):
        field = field_make(q)
        for n in range(1, 4):
            fams = set(f.blocks for f in families_enumerate(n, q))
            seen = set()
            bad = 0
            for m in all_matrices(field, n):
                if not m.is_invertible():
                    continue
                fam = conjugacy_family_of(m)
                if fam.blocks not in fams:
                    bad += 1
                seen.add(fam.blocks)
            rows.append(_agg("class-coverage", f"membership-n={n}-q={q}", bad, len(seen)))
            rows.append(
                _row("class-coverage", f"count-n={n}-q={q}", len(seen), len(fams))
            )
    return rows
