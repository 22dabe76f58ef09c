"""Named verification suites: every closed-form layer against ground truth.

Each suite cross-checks one exact identity, either internally (two
independent computation paths) or against the brute-force finite-field
oracle.  A suite is a generator registered under its name by ``@_suite``.
It yields ``(instance, left, right, ok)`` rows, built by ``_row`` for one
comparison, by ``_tally`` for a count of mismatching pairs, or written
out as a bare 4-tuple (as ``lln`` does).  ``run_suite`` turns them into
the rows ``fqtraces verify`` prints: one dict per check, keyed by
``COLUMNS``, with the status ``"pass"`` or ``"fail"``, so the command line
can emit CSV and CI can shard the suites by name.
"""

from fractions import Fraction
from functools import cache, partial
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
    extension_classes,
    families_enumerate,
    field_make,
    jordan_block_matrix,
    polys_by_tag,
    unipotent_class_of,
    unipotent_matrices,
    unipotent_upper_triangular,
)
from fqtraces.partitions import (
    box_additions,
    format_partition,
    hook_lengths,
    n_stat,
    partitions_of,
    size,
    transpose,
)
from fqtraces.specializations import EMPTY, GeometricSpread, Specialization
from fqtraces.symfunc import kostka, kostka_foulkes, modified_hl_q_row, schur_coefficients
from fqtraces.traces import (
    UNIT,
    biregular_coefficient,
    branching_predecessors,
    family,
    green_dimension,
    trace_coefficients,
    unipotent_trace_value,
)


COLUMNS = ["suite", "instance", "left", "right", "status"]

_SUITES: dict[str, object] = {}


def _suite(name):
    def deco(fn):
        _SUITES[name] = fn
        return fn

    return deco


def suite_names() -> list[str]:
    return list(_SUITES)


def run_suite(name: str) -> list[dict]:
    """The suite's checks as printed rows, keyed by ``COLUMNS``."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(_SUITES)}")
    return [
        dict(zip(COLUMNS, (name, instance, left, right, "pass" if ok else "fail")))
        for instance, left, right, ok in _SUITES[name]()
    ]


def _row(instance, left, right) -> tuple:
    return instance, str(left), str(right), left == right


def _tally(instance, pairs) -> tuple:
    """One row counting the ``(left, right)`` pairs that differ."""
    bad = checked = 0
    for left, right in pairs:
        checked += 1
        bad += left != right
    return instance, f"{bad} mismatches", f"0 of {checked}", bad == 0


def _invertible(field, n: int):
    return (m for m in all_matrices(field, n) if m.is_invertible())


# ---------------------------------------------------------------------------
# 1. Modified Hall-Littlewood Q in Schur functions vs charge polynomials


def _hl_schur_sides(lam, t) -> tuple:
    """The s_mu coefficients of the modified Q'_lam(t), and K_{mu,lam}(t), mu in order."""
    n = size(lam)
    return (
        schur_coefficients(modified_hl_q_row(lam, t), n),
        [kostka_foulkes(mu, lam)(t) for mu in partitions_of(n)],
    )


@_suite("hl-schur-identity")
def _check_hl_schur_identity():
    # symbolic identity in the rational functions of t.  L(t) = lcm over rho of
    # prod_i (1 - t**rho_i) = prod_k Phi_k(t)**(n // k) has degree sum_k phi(k)
    # (n // k) = n(n+1)/2 and no root in [0, 1).  The p coefficients of Q_lam(t)
    # have degree at most n(n+1)/2 and K_{mu,lam}(t) less, so L times either
    # side is a polynomial of degree at most n(n+1): agreement at the n(n+1) + 1
    # points k/(n(n+1) + 1) proves the identity.
    for n in range(1, 6):
        top = n * (n + 1)
        points = [Fraction(k, top + 1) for k in range(top + 1)]
        yield _tally(
            f"symbolic-degree-{n}",
            (zip(*(_hl_schur_sides(lam, t) for t in points)) for lam in partitions_of(n)),
        )
    for t in (Fraction(1, 2), Fraction(1, 3)):
        for n in range(1, 7):
            pairs = []
            for lam in partitions_of(n):
                pairs += zip(*_hl_schur_sides(lam, t))
            yield _tally(f"t={t}-degree-{n}", pairs)


# ---------------------------------------------------------------------------
# 2. Sum of squared dimensions = group order


@_suite("dimension-squares")
def _check_dimension_squares():
    for q in (2, 3):
        for n in range(1, 5):
            total = sum(
                green_dimension(f, q) ** 2 for f in families_enumerate(n, q)
            )
            yield _row(f"n={n}-q={q}", total, prod(q**n - q**i for i in range(n)))


# ---------------------------------------------------------------------------
# 3. Branching dimension inequality, both embedding variants


@_suite("branching")
def _check_branching():
    for q in (2, 3):
        for n in range(1, 5):
            fams = families_enumerate(n, q)
            for variant in ("GLB", "GLU"):
                pairs = []
                for f in fams:
                    pred = sum(
                        (green_dimension(g, q) for g in branching_predecessors(f, variant)),
                        Fraction(0),
                    )
                    pairs.append((green_dimension(f, q) >= pred, True))
                yield _tally(f"{variant}-n={n}-q={q}", pairs)


# ---------------------------------------------------------------------------
# 4. Extension counts against the class of every extension, each read off
#    its parent's one image chain, which gives its class too (``extension_classes``)


@_suite("extension-counts")
def _check_extension_counts():
    for q, top in ((2, 5), (3, 4)):
        field = field_make(q)
        for n in range(0, top + 1):
            if n <= 3:
                mats = unipotent_matrices(field, n)
                scope = "all-unipotent"
            else:
                # every Jordan class appears among unit upper-triangular
                # matrices, and the classification is a class function
                mats = unipotent_upper_triangular(field, n)
                scope = "upper-triangular"
            mus = partitions_of(n + 1)
            predicted = {}  # class -> its extension_count for each mu
            pairs = []
            for g in mats:
                lam, got = extension_classes(g)
                if lam not in predicted:
                    predicted[lam] = [extension_count(lam, mu, q) for mu in mus]
                pairs += zip([got[mu] for mu in mus], predicted[lam])
            yield _tally(f"n={n}-q={q}-{scope}", pairs)


# ---------------------------------------------------------------------------
# 5. Haar flatness of cylinder probabilities


@_suite("haar-flatness")
def _check_haar_flatness():
    for q in (2, 3):
        params = MeasureParams.haar(q)
        for n in range(0, 9):
            flat = Fraction(q) ** (-(n * (n - 1)) // 2)
            pairs = []
            for lam in partitions_of(n):
                closed = (1 - Fraction(1, q)) ** n / Fraction(q) ** n_stat(lam)
                pairs += [(hl_weight(params, lam), closed), (cyl_prob(params, lam), flat)]
            yield _tally(f"n={n}-q={q}", pairs)


# ---------------------------------------------------------------------------
# 6. Growth chain rows against the cylinder ratios they stand for


def _growth_rows(params: MeasureParams, top: int):
    """(built row, reference row) for each diagram of positive weight up to level top.

    The reference does not go through the row builder: the telescoping
    closed form q**-lam'_j - q**-lam'_{j-1} (lam'_0 = infinity) for Haar,
    N(lam, mu) * cyl(mu) / cyl(lam) for the other families.
    """
    q = params.q
    haar = params == MeasureParams.haar(q)
    cyl = cache(partial(cyl_prob, params))
    for n in range(top + 1):
        for lam in partitions_of(n):
            if not params.family.weight(lam) > 0:
                continue
            if haar:
                conj = transpose(lam) + (0,)
                expected = [
                    q ** -conj[col - 1] - (q ** -conj[col - 2] if col > 1 else 0)
                    for _, col in box_additions(lam)
                ]
            else:
                expected = [
                    extension_count(lam, mu, q) * cyl(mu) / cyl(lam)
                    for mu, _ in box_additions(lam)
                ]
            yield [p for _, p in transition_distribution(params, lam)], expected


@_suite("growth-normalization")
def _check_growth_normalization():
    # The built row divides by the successors' total, so it sums to one
    # whatever the weights; each row is held instead against a route that
    # does not go through the builder.  Equal rows sum to one, which is the
    # criterion.  The closed forms run to level 20, the generic
    # Hall-Littlewood route to 8.
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
    for label, params, top in cases:
        yield _tally(f"{label}-to-{top}", _growth_rows(params, top))


# ---------------------------------------------------------------------------
# 7. Law of large numbers for the uniform measure


@_suite("lln")
def _check_lln():
    stats = lln_experiment(MeasureParams.haar(2), n_max=1000, trials=200, seed=20240817)
    bands = {1: (0.49, 0.51), 2: (0.24, 0.26)}
    for stat_row in stats:
        if stat_row.statistic != "lambda_i/n" or stat_row.index not in bands:
            continue
        lo, hi = bands[stat_row.index]
        yield (
            f"haar-q2-lambda_{stat_row.index}/n",
            f"{stat_row.empirical!r}",
            f"[{lo},{hi}]",
            lo <= stat_row.empirical <= hi,
        )


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
    for q in (2, 3):
        for alphas, betas in grid:
            sp = Specialization.finite(alphas, betas, 1)
            params = MeasureParams(GeometricSpread(alphas, q), betas, q)
            yield _tally(
                f"alpha={list(map(str, alphas))}-beta={list(map(str, betas))}-q={q}",
                (
                    (cyl_prob_from_trace(sp, lam, q), cyl_prob(params, lam))
                    for n in range(0, 6)
                    for lam in partitions_of(n)
                ),
            )


# ---------------------------------------------------------------------------
# 9. Flag characters vs Kostka combinations of unipotent character values


def _unipotent_character_value(lam, nu, q) -> Fraction:
    """Value of the unipotent character lam on the unipotent class nu."""
    return Fraction(q) ** n_stat(nu) * kostka_foulkes(lam, nu)(Fraction(1, q))


@_suite("flag-kostka")
def _check_flag_kostka():
    for q, top in ((2, 4), (3, 3)):
        field = field_make(q)
        for n in range(1, top + 1):
            predicted = {}  # (class, flag shape) -> Kostka-combined value
            pairs = []
            for g in unipotent_matrices(field, n):
                nu = unipotent_class_of(g)
                for mu in partitions_of(n):
                    if (nu, mu) not in predicted:
                        predicted[nu, mu] = sum(
                            kostka(lam, mu) * _unipotent_character_value(lam, nu, q)
                            for lam in partitions_of(n)
                        )
                    pairs.append((count_fixed_flags(g, mu), predicted[nu, mu]))
            yield _tally(f"n={n}-q={q}", pairs)


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
    q = 2
    field = field_make(q)
    for t1 in (Fraction(1, 2), Fraction(1, 3)):
        t2 = 1 - t1
        sp = Specialization.finite(tuple(sorted((t1, t2), reverse=True)), (), 1)
        for n in range(1, 4):
            schur_values = trace_coefficients(sp, n)
            pairs = []
            for g in _invertible(field, n):
                lhs = sum(
                    t1**d * t2 ** (n - d) * count_fixed_flags(g, (d, n - d))
                    for d in range(n + 1)
                )
                chi = _unipotent_characters_from_flags(g)
                rhs = sum(schur_values[lam] * chi[lam] for lam in partitions_of(n))
                pairs.append((lhs, rhs))
            yield _tally(f"n={n}-t1={t1}", pairs)


# ---------------------------------------------------------------------------
# 11. Biregular decomposition identities


def _principal_schur(q, n: int) -> dict:
    """Every s_lam of size n at the principal specialization: beta = (1) spread with ratio 1/q."""
    beta = GeometricSpread((Fraction(1),), q)
    return trace_coefficients(Specialization(EMPTY, beta, Fraction(1)), n)


@_suite("biregular")
def _check_biregular():
    for q in (2, 3, 4):
        pairs = []
        for n in range(1, 7):
            schur = _principal_schur(q, n)
            pairs += [
                (
                    schur[lam],
                    Fraction(
                        (q - 1) ** n * q ** n_stat(lam),
                        prod(q**h - 1 for h in hook_lengths(lam)),
                    ),
                )
                for lam in partitions_of(n)
            ]
        yield _tally(f"principal-schur-q={q}", pairs)
    # regular-character coefficients at q = 2: the weight of every
    # irreducible in the biregular decomposition must match the regular
    # representation normalization times its dimension.
    q = 2
    for n in (2, 3):
        schur = {}
        for k in range(n + 1):
            schur.update(_principal_schur(q, k))
        norm = prod(Fraction(q - 1, q**i - 1) for i in range(1, n + 1))
        total = Fraction(0)
        for f in families_enumerate(n, q):
            unit_diagram = f.diagram(UNIT)
            background = f.with_diagram(UNIT, 1, ())
            coeff = biregular_coefficient(background, q) * schur[unit_diagram]
            expected = norm * green_dimension(f, q)
            total += coeff
            if n == 2:
                yield _row(
                    f"coefficient-{'+'.join(t for t, _, _ in f.blocks) or 'empty'}"
                    f"-{format_partition(unit_diagram) or '0'}",
                    coeff,
                    expected,
                )
            elif coeff != expected:
                yield _row(f"coefficient-n={n}-mismatch", coeff, expected)
        dim_sum = sum(green_dimension(f, q) for f in families_enumerate(n, q))
        yield _row(f"coefficient-total-n={n}-q=2", total, norm * dim_sum)


# ---------------------------------------------------------------------------
# 12. Steinberg values


@_suite("steinberg")
def _check_steinberg():
    sp = Specialization.finite((), (Fraction(1),), 1)
    for q in (2, 3, 4, 5):
        for n in range(1, 5):
            cls = family((UNIT, 1, (1,) * n))
            value = unipotent_trace_value(sp, cls, q)
            yield _row(f"identity-n={n}-q={q}", value, Fraction(q) ** (n * (n - 1) // 2))
        elliptic = family(("irreducible-quadratic", 2, (1,)))
        yield _row(f"elliptic-q={q}", unipotent_trace_value(sp, elliptic, q), Fraction(-1))


# ---------------------------------------------------------------------------
# Extra oracle suites (module invariants, addressable from the CLI)


@_suite("companion-base-change")
def _check_companion_base_change():
    """Flag counts of companion-block matrices match the extension field.

    Take g of type nu at an irreducible poly of degree k over F_q.  Its
    invariant subspaces are modules over F_q[x]/(poly**j), a ring isomorphic
    to F_(q^k)[x]/((x - y)**j) for a root y of poly.  So they are those of
    gy, of type nu at y over F_(q^k), with k times the dimension: g has as
    many invariant flags of shape mu as gy has of shape mu / k, and none
    unless k divides every part.
    """
    cases = (
        # q, k, poly, index of y in F_(q^k), largest |nu|, instance prefix
        (2, 2, (1, 1, 1), 2, 2, ""),
        (3, 2, (1, 0, 1), 3, 2, "q=3-k=2-"),
        (2, 3, (1, 1, 0, 1), 2, 1, "q=2-k=3-"),
    )
    for q, k, poly, y, top, prefix in cases:
        small, big = field_make(q), field_make(q**k)
        for m in range(1, top + 1):
            for nu in partitions_of(m):
                g = jordan_block_matrix(small, [(poly, nu)])
                gy = jordan_block_matrix(big, [((big.neg[y], 1), nu)])
                for mu in partitions_of(k * m):
                    lhs = count_fixed_flags(g, mu)
                    if all(p % k == 0 for p in mu):
                        rhs = count_fixed_flags(gy, tuple(p // k for p in mu))
                    else:
                        rhs = 0
                    instance = f"{prefix}nu={format_partition(nu)}-mu={format_partition(mu)}"
                    yield _row(instance, lhs, rhs)


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
    specs = [
        ("alpha=1", Specialization.finite((Fraction(1),), (), 1)),
        ("beta=1", Specialization.finite((), (Fraction(1),), 1)),
        ("mixed", Specialization.finite((Fraction(1, 2),), (Fraction(1, 4),), 1)),
    ]
    for q, top in ((2, 5), (3, 4), (4, 3), (5, 3)):
        field = field_make(q)
        tags = polys_by_tag(q, top)
        for n in range(1, top + 1):
            schur_specialized = {label: trace_coefficients(sp, n) for label, sp in specs}
            pairs = []
            for fam in families_enumerate(n, q):
                blocks = [(tags[tag], lam) for tag, _d, lam in fam.blocks]
                rep = jordan_block_matrix(field, blocks)
                chi = _unipotent_characters_from_flags(rep)
                for label, sp in specs:
                    from_flags = sum(
                        schur_specialized[label][lam] * chi[lam]
                        for lam in partitions_of(n)
                    )
                    pairs.append((unipotent_trace_value(sp, fam, q), from_flags))
            yield _tally(f"n={n}-q={q}", pairs)


@_suite("class-coverage")
def _check_class_coverage():
    """Every invertible matrix lands on exactly one enumerated family."""
    for q in (2, 3):
        field = field_make(q)
        for n in range(1, 4):
            fams = set(f.blocks for f in families_enumerate(n, q))
            seen = {conjugacy_family_of(m).blocks for m in _invertible(field, n)}
            yield _tally(f"membership-n={n}-q={q}", ((b in fams, True) for b in seen))
            yield _row(f"count-n={n}-q={q}", len(seen), len(fams))
