"""The benchmark's four closed-loop workloads: inputs, op, exactness check.

Every workload turns the seed into a list of ops up front (that is part of
set-up), runs one op at a time, and checks each output outside the timed
region.  A check returns None when the output is exact and a short reason
otherwise.  Where a cheap independent identity exists the check uses it:

* Hall-Littlewood values are rebuilt from one column of Kostka-Foulkes
  polynomials (charge enumeration), never from the unitriangular inverse
  that the library uses: Q'_lam = sum_mu K_{mu,lam}(t) s_mu, and Q_lam
  rescales each p_rho coefficient of Q'_lam by prod_i (1 - t**rho_i);
* growth trajectories are replayed from the seed with closed-form step
  probabilities (Haar cylinders are flat, q**(-n(n-1)/2));
* transition rows equal N_{lam,mu} cyl(mu) / cyl(lam) with charge-built
  cylinders;
* cyl_prob equals cyl_prob_from_trace under r = spread(alpha), c = beta;
* brute-force counts over explicit fields equal the formulas.

Ops are grouped in rounds: each round holds every kind in fixed
proportions, in a seeded order, so the op mix does not depend on the seed.
A run makes ceil(seconds / nominal_round_s) rounds, so every run of one
setting times the same number of ops.
"""

import contextlib
import io
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial, prod

from fqtraces import measures, oracle, partitions, symfunc, traces
from fqtraces.measures import MeasureParams
from fqtraces.partitions import Partition, format_partition, n_stat, size
from fqtraces.specializations import GeometricSpread, Specialization
from fqtraces.symfunc import PowerSumElement
from fqtraces.traces import UNIT, DiagramFamily


class Op:
    __slots__ = ("kind", "args")

    def __init__(self, kind: str, *args):
        self.kind = kind
        self.args = args


# ---------------------------------------------------------------------------
# Independent reference values


@cache
def hl_q_by_charge(lam: Partition, t: Fraction, modified: bool) -> PowerSumElement:
    """Q_lam(t), or the modified Q'_lam(t), from one Kostka-Foulkes column."""
    f = PowerSumElement()
    for mu in partitions.partitions_of(size(lam)):
        c = symfunc.kostka_foulkes(mu, lam)(t)
        if c:
            f = f + symfunc.schur_in_p(mu) * c
    if modified:
        return f
    return PowerSumElement(
        {rho: c * prod(1 - t**part for part in rho) for rho, c in f.terms.items()}
    )


def cyl_by_charge(params: MeasureParams, lam: Partition) -> Fraction:
    """Cylinder probability from the charge-built Q function."""
    q, n = params.q, size(lam)
    weight = params.specialization().apply(hl_q_by_charge(lam, 1 / q, modified=False))
    return q ** (-(n * (n - 1)) // 2) / (1 - 1 / q) ** n * q ** n_stat(lam) * weight


def class_function(fam: DiagramFamily, q) -> PowerSumElement:
    """sum_lam chi^lam(fam) s_lam: product over blocks of q**(d n(lam)) Q'_lam(q**-d)[p_k -> p_dk]."""
    q = Fraction(q)
    f = PowerSumElement.one()
    for _, d, lam in fam.blocks:
        block = symfunc.plethysm_pl(symfunc.modified_hl_q(lam, q**-d), d)
        f = f * block * q ** (d * n_stat(lam))
    return f


def dimension_by_charge(fam: DiagramFamily, q) -> Fraction:
    """Irreducible degree from K_{lam,1^m}(1/Q): Q**(m(m-1)/2) K(1/Q) / prod (Q**i - 1) per block."""
    q = Fraction(q)
    value = prod((q**i - 1 for i in range(1, fam.degree + 1)), start=Fraction(1))
    for _, d, lam in fam.blocks:
        big, m = q**d, size(lam)
        block = big ** (m * (m - 1) // 2) * symfunc.kostka_foulkes(lam, (1,) * m)(1 / big)
        value *= block / prod(big**i - 1 for i in range(1, m + 1))
    return value


def standard_tableaux(lam: Partition) -> int:
    return factorial(size(lam)) // prod(partitions.hook_lengths(lam))


def transition_row_by_charge(params: MeasureParams, lam: Partition) -> dict:
    """The chain's row from its definition, with charge-built cylinders.

    P(lam -> mu) = N_{lam,mu} cyl(mu) / cyl(lam) for every one-box
    successor mu; a new box in column j has N_{lam,mu} = q**(n - lam'_j) -
    q**(n - lam'_{j-1}), without the second term when j = 1.
    """
    q, n = params.q, size(lam)
    cols = partitions.transpose(lam)
    source = cyl_by_charge(params, lam)
    row = {}
    for i in range(len(lam) + 1):
        part = lam[i] if i < len(lam) else 0
        if i and lam[i - 1] == part:
            continue
        # the box goes to column j = part + 1, where lam'_j = i
        count = q ** (n - i) - (q ** (n - cols[part - 1]) if part else 0)
        mu = lam[:i] + (part + 1,) + lam[i + 1 :]
        row[mu] = count * cyl_by_charge(params, mu) / source
    return row


def replay_trajectory(family: str, n_max: int, seed: int) -> list:
    """The trajectory sample_trajectory(params, n_max, seed) must return.

    Rebuilt from the chain's definition, not from the library's chain code:
    P(lam -> mu) = N_{lam,mu} cyl(mu) / cyl(lam), where a new box in column
    j has N_{lam,mu} = q**(n - lam'_j) - q**(n - lam'_{j-1}) (lam'_0 =
    infinity).  Haar cylinders are flat, q**(-n(n-1)/2), so a Haar step has
    probability q**(-lam'_j) - q**(-lam'_{j-1}); the delta family only grows
    the first column and the single-row family only the first row.  Each
    step draws u = getrandbits(64) / 2**64 from the seed's stream and takes
    the first addable corner, top row first, whose cumulative probability
    exceeds u.  All arithmetic is in integers over the denominator q**lam'_1.
    """
    kind, q = family.rsplit("-q", 1)
    q = int(q)
    rng = random.Random((seed % 2**64) << 64)
    lam = []
    out = [()]
    for _ in range(n_max):
        u = rng.getrandbits(64)
        rows = len(lam)
        corners = [i for i in range(rows) if i == 0 or lam[i - 1] > lam[i]] + [rows]
        den = q**rows if kind == "haar" else 1
        acc = 0
        for i in corners:
            if kind == "haar" and i == rows:
                acc += 1
            elif kind == "haar":
                # rows i .. b - 1 have the length of row i, so lam'_j = i and
                # lam'_{j-1} = b for the box that lengthens row i
                b = next((k for k in range(i, rows) if lam[k] != lam[i]), rows)
                acc += (q ** (b - i) - 1) * q ** (rows - b)
            elif kind == "delta":
                acc += 1 if i == rows and all(p == 1 for p in lam) else 0
            else:
                acc += 1 if i == 0 and rows <= 1 else 0
            if u * den < acc << 64:
                break
        if i == rows:
            lam.append(1)
        else:
            lam[i] += 1
        out.append(tuple(lam))
    return out


def _bump(x):
    """A deliberately wrong copy of an output (for the corrupted-output test)."""
    if isinstance(x, (bytes, str)):
        return x + x[-1:]
    if isinstance(x, (int, Fraction)):
        return x + 1
    if isinstance(x, dict):
        key = next(iter(x))
        return {**x, key: _bump(x[key])}
    if isinstance(x, tuple) and len(x) == 2 and isinstance(x[1], Fraction):
        return (x[0], x[1] + 1)
    if isinstance(x, (list, tuple)):
        return type(x)([_bump(x[0])] + list(x[1:]))
    raise TypeError(f"cannot corrupt {type(x).__name__}")


# ---------------------------------------------------------------------------
# Seeded inputs


def _rand_partition(rng, n: int) -> Partition:
    return rng.choice(partitions.partitions_of(n))


def _decreasing(rng, k: int, den: int) -> tuple:
    """k weakly decreasing positive fractions over den, summing to at most 1/2."""
    cap = max(1, den // (2 * k))
    return tuple(sorted((Fraction(rng.randint(1, cap), den) for _ in range(k)), reverse=True))


def _generic_sides(rng) -> tuple:
    """Two nonempty finite parameter sequences of total mass at most 1."""
    den = rng.randint(8, 40)
    return _decreasing(rng, rng.randint(1, 2), den), _decreasing(rng, rng.randint(1, 2), den)


def _format_fracs(values) -> str:
    return ",".join(str(v) for v in values)


class Workload:
    name = ""
    why = ""
    op = ""
    input_size = {}
    # kind -> how many ops of that kind one round holds
    round_mix = {}
    # cost of one round at the seed commit, untraced, in seconds at the
    # reference machine speed of calibrate.py
    nominal_round_s = 1.0

    def make_ops(self, rng, rounds: int) -> list:
        out = []
        for _ in range(rounds):
            kinds = [k for k, n in self.round_mix.items() for _ in range(n)]
            rng.shuffle(kinds)
            out.extend(self.make_op(rng, kind) for kind in kinds)
        return out

    def warm_up(self):
        pass

    def prepare(self, op):
        """Untimed work right before an op."""

    def digest_chunks(self, out):
        """The op output as bytes, for the digest of all outputs of a run."""
        yield repr(out).encode()

    def describe(self) -> dict:
        return {
            "why": self.why,
            "op": self.op,
            "input_size": self.input_size,
            "round_mix": self.round_mix,
            "nominal_round_s": self.nominal_round_s,
        }


# ---------------------------------------------------------------------------
# growth-closed


class GrowthClosed(Workload):
    name = "growth-closed"
    why = "The exact growth chain behind lln and the LLN criterion, on the closed-form families."
    op = "one seeded measures.sample_trajectory of n_max steps for one named family"
    N_MAX = 1000
    FAMILIES = {
        "haar-q2": MeasureParams.haar(2),
        "haar-q3": MeasureParams.haar(3),
        "delta-q2": MeasureParams.delta_identity(2),
        "single-row-q2": MeasureParams.single_row(2),
    }
    input_size = {"n_max": N_MAX}
    # Measured traffic: 97% of the transition rows the tier-1 run draws are
    # Haar q = 2 (criterion 07 steps 200 trajectories of 1000; criterion 06
    # draws 2714 rows each of Haar q = 2 and 3 and 21 each of delta and single
    # row).  Haar q = 2 dominates the round; the other families keep one op
    # each so that every closed-form family stays covered.
    round_mix = {"haar-q2": 8, "haar-q3": 1, "delta-q2": 1, "single-row-q2": 1}
    nominal_round_s = 2.03

    def make_op(self, rng, kind):
        return Op(kind, self.FAMILIES[kind], rng.getrandbits(63))

    def run(self, op):
        params, seed = op.args
        return measures.sample_trajectory(params, self.N_MAX, seed)

    def check(self, op, traj):
        _, seed = op.args
        expected = replay_trajectory(op.kind, self.N_MAX, seed)
        if traj == expected:
            return None
        if len(traj) != len(expected):
            return f"trajectory has {len(traj)} levels, not {len(expected)}"
        level = next(i for i, (a, b) in enumerate(zip(traj, expected)) if a != b)
        return f"level {level}: {traj[level]} != replayed {expected[level]}"

    def digest_chunks(self, traj):
        return (repr(lam).encode() for lam in traj)

    def corrupt(self, traj):
        return traj[:-1] + [traj[-2]]


# ---------------------------------------------------------------------------
# hl-cold


HL_KINDS = ("cyl", "hl-expand", "hl-expand-modified")


class HlCold(Workload):
    name = "hl-cold"
    why = "CLI requests that pay the whole Hall-Littlewood engine (charge, inverse, Q in p) again each time."
    op = (
        "one CLI request (cyl with generic --r/--c, hl-expand, or hl-expand --modified) through "
        "fqtraces.cli.main, after every fqtraces memo table was dropped (untimed)"
    )
    input_size = {"degree_of_lambda": "7..10", "kinds": HL_KINDS}
    # degree of lambda -> requests per round; the kinds take turns at each
    # degree.  No record of CLI requests exists to take a mix from: the counts
    # put a little over half of a round's time at degree 10 and keep a round
    # short enough for several per run.
    round_mix = {7: 3, 8: 2, 9: 2, 10: 1}
    nominal_round_s = 1.91

    def __init__(self):
        from fqtraces import cli

        self.cli = cli
        self.tables = {
            fn
            for name, mod in list(sys.modules.items())
            if name.startswith("fqtraces")
            for fn in vars(mod).values()
            if hasattr(fn, "cache_clear")
        }

    def make_ops(self, rng, rounds):
        out = []
        for deg, count in self.round_mix.items():
            first = rng.randrange(len(HL_KINDS))
            for i in range(rounds * count):
                out.append(self.make_op(rng, HL_KINDS[(first + i) % len(HL_KINDS)], deg))
        rng.shuffle(out)
        return out

    def make_op(self, rng, name, deg):
        lam = _rand_partition(rng, deg)
        if name == "cyl":
            r, c = _generic_sides(rng)
            q = rng.choice((Fraction(2), Fraction(3), Fraction(4), Fraction(5), Fraction(5, 2)))
            argv = ["cyl", "--q", str(q), "--r", _format_fracs(r), "--c", _format_fracs(c)]
            args = (MeasureParams(r, c, q),)
        else:
            t = Fraction(rng.randint(1, 8), 9)
            argv = ["hl-expand", "--t", str(t)] + (["--modified"] if name.endswith("modified") else [])
            args = (t,)
        argv += ["--lam", format_partition(lam)]
        return Op(f"{name}-deg{deg}", lam, argv, *args)

    def prepare(self, op):
        for fn in self.tables:
            fn.cache_clear()

    def run(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(op.args[1])
        if code != 0:
            raise RuntimeError(f"fqtraces {' '.join(op.args[1])} exited with {code}")
        return out.getvalue().encode()

    def check(self, op, stdout):
        lam, argv = op.args[0], op.args[1]
        if argv[0] == "cyl":
            expected = f"{cyl_by_charge(op.args[2], lam)}\n"
        else:
            t = op.args[2]
            if "--modified" in argv:
                coeffs = {mu: symfunc.kostka_foulkes(mu, lam)(t) for mu in partitions.partitions_of(size(lam))}
            else:
                coeffs = symfunc.schur_expand(hl_q_by_charge(lam, t, modified=False))
            rows = [f'"{format_partition(mu)}",{c}' for mu, c in sorted(coeffs.items(), reverse=True) if c]
            expected = "mu,coeff\n" + "".join(row + "\n" for row in rows)
        if stdout != expected.encode():
            return f"stdout {stdout[:80]!r} differs from the charge-built value"
        return None

    def digest_chunks(self, stdout):
        yield stdout

    def corrupt(self, stdout):
        return _bump(stdout)


# ---------------------------------------------------------------------------
# traces-warm


class TracesWarm(Workload):
    name = "traces-warm"
    why = "Small exact queries in a long-lived process with the degree <= 8 tables already built."
    op = "one exact query: trace_coefficients, unipotent_trace_value, green_dimension, cyl_prob, cyl_prob_from_trace or a generic transition row"
    WARM_DEGREE = 8
    input_size = {"warm_degree": WARM_DEGREE, "query_degree": "3..8", "class_degree": "2..5"}
    # One of each query the workload names; no record of query traffic exists
    # to weight them by.
    round_mix = {
        "trace_coefficients": 1,
        "unipotent_trace_value": 1,
        "green_dimension": 1,
        "cyl_prob": 1,
        "cyl_prob_from_trace": 1,
        "transition_distribution": 1,
    }
    nominal_round_s = 0.0124

    def __init__(self):
        self.classes = {}

    def warm_up(self):
        for n in range(1, self.WARM_DEGREE + 1):
            for lam in partitions.partitions_of(n):
                symfunc.schur_in_p(lam)
                symfunc.hl_q_in_p(lam, Fraction(1, 2))

    def _class_pool(self, q: int) -> list:
        if q not in self.classes:
            top = 5 if q == 2 else 4
            self.classes[q] = [
                fam
                for n in range(2, top + 1)
                for fam in oracle.families_enumerate(n, q)
                if max(d for _, d, _ in fam.blocks) <= 3
            ]
        return self.classes[q]

    def make_op(self, rng, kind):
        if kind in ("unipotent_trace_value", "green_dimension"):
            q = rng.choice((2, 3))
            fam = rng.choice(self._class_pool(q))
            if kind == "green_dimension":
                return Op(kind, fam, q)
            a, b = _generic_sides(rng)
            return Op(kind, Specialization.finite(a, b, 1), fam, q)
        a, b = _generic_sides(rng)
        if kind == "trace_coefficients":
            return Op(kind, Specialization.finite(a, b, 1), rng.randint(3, 8))
        q = rng.choice((2, 3, 4, 5))
        if kind == "transition_distribution":
            # Rare parameter values give a class weight 0; redraw those, as
            # the chain never visits them.
            while True:
                params = MeasureParams(a, b, q)
                lam = _rand_partition(rng, rng.randint(3, 7))
                weight = params.specialization().apply(hl_q_by_charge(lam, 1 / params.q, modified=False))
                if weight > 0:
                    return Op(kind, params, lam)
                a, b = _generic_sides(rng)
        lam = _rand_partition(rng, rng.randint(4, 8))
        params = MeasureParams(GeometricSpread(a, Fraction(q)), b, q)
        return Op(kind, params, Specialization.finite(a, b, 1), lam, q)

    def run(self, op):
        k, a = op.kind, op.args
        if k == "trace_coefficients":
            return traces.trace_coefficients(*a)
        if k == "unipotent_trace_value":
            return traces.unipotent_trace_value(*a)
        if k == "green_dimension":
            return traces.green_dimension(*a)
        if k == "cyl_prob":
            return measures.cyl_prob(a[0], a[2])
        if k == "cyl_prob_from_trace":
            return measures.cyl_prob_from_trace(a[1], a[2], a[3])
        return measures.transition_distribution(*a)

    def check(self, op, out):
        k, a = op.kind, op.args
        if k == "trace_coefficients":
            lams = partitions.partitions_of(a[1])
            if set(out) != set(lams):
                return "coefficients do not cover the partitions of n"
            if sum(standard_tableaux(lam) * out[lam] for lam in lams) != 1:
                return "sum_lam f^lam s_lam(sp) != p_1(sp)**n = 1"
            return None
        if k == "unipotent_trace_value":
            sp, fam, q = a
            expected = Fraction(1)
            for _, d, lam in fam.blocks:
                qd = Fraction(q) ** d
                block = symfunc.plethysm_pl(hl_q_by_charge(lam, 1 / qd, modified=True), d)
                expected *= qd ** n_stat(lam) * sp.apply(block)
            return None if out == expected else f"{out} != charge-built {expected}"
        if k == "green_dimension":
            expected = dimension_by_charge(*a)
            return None if out == expected else f"{out} != charge-built {expected}"
        if k == "cyl_prob":
            expected = measures.cyl_prob_from_trace(a[1], a[2], a[3])
            return None if out == expected else f"{out} != cyl_prob_from_trace {expected}"
        if k == "cyl_prob_from_trace":
            expected = measures.cyl_prob(a[0], a[2])
            return None if out == expected else f"{out} != cyl_prob {expected}"
        expected = transition_row_by_charge(*a)
        if len(out) != len(expected) or dict(out) != expected:
            return f"row {out} != N cyl(mu) / cyl(lam) from charge {expected}"
        return None

    def corrupt(self, out):
        return _bump(out)


# ---------------------------------------------------------------------------
# oracle-crosscheck


class OracleCrosscheck(Workload):
    name = "oracle-crosscheck"
    why = "Brute force over explicit fields, the cost of the oracle criteria and class coverage."
    op = "one seeded matrix: classify it, classify its q^n one-row extensions, count fixed flags of every shape"
    KINDS = {
        "unipotent-4-q2": (4, 2),
        "unipotent-4-q3": (4, 3),
        "invertible-3-q2": (3, 2),
        "invertible-3-q3": (3, 3),
    }
    input_size = {k: {"n": n, "q": q} for k, (n, q) in KINDS.items()}
    # Measured traffic: of the oracle criteria's time (extension-counts,
    # flag-kostka, spherical, class-coverage, trace-values-oracle), unipotent
    # matrices over F_3 take 72%, invertible ones over F_3 25%, and the F_2
    # kinds 2% and 1%.  The counts give each kind about that share of a
    # round's time at the per-op costs of the seed commit.
    round_mix = {"unipotent-4-q2": 1, "unipotent-4-q3": 11, "invertible-3-q2": 1, "invertible-3-q3": 4}
    nominal_round_s = 0.2

    def make_op(self, rng, kind):
        n, q = self.KINDS[kind]
        field = oracle.field_make(q)
        while True:
            if kind.startswith("unipotent"):
                rows = [[1 if i == j else (rng.randrange(q) if j > i else 0) for j in range(n)] for i in range(n)]
            else:
                rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            m = oracle.FqMatrix(field, rows)
            if m.is_invertible():
                return Op(kind, m)

    def run(self, op):
        m = op.args[0]
        if op.kind.startswith("unipotent"):
            label = oracle.unipotent_class_of(m)
            ext = Counter(oracle.unipotent_class_of(h) for h in oracle.ext_enumerate(m, "GLU"))
        else:
            label = oracle.conjugacy_family_of(m)
            ext = Counter(oracle.conjugacy_family_of(h).blocks for h in oracle.ext_enumerate(m, "GLU"))
        flags = {mu: oracle.count_fixed_flags(m, mu) for mu in partitions.partitions_of(m.nrows)}
        return label, ext, flags

    def check(self, op, out):
        m = op.args[0]
        label, ext, flags = out
        n, q = m.nrows, m.field.q
        unipotent = op.kind.startswith("unipotent")
        fam = DiagramFamily(((UNIT, 1, label),)) if unipotent else label
        unit = fam.diagram(UNIT)
        # The extension keeps every non-unit block and grows the unit block by
        # one box; the q**(n - |unit|) choices off the unit block are free.
        expected_ext = {}
        for mu in partitions.partitions_of(size(unit) + 1):
            count = q ** (n - size(unit)) * measures.extension_count(unit, mu, q)
            if count:
                expected_ext[mu if unipotent else fam.with_diagram(UNIT, 1, mu).blocks] = count
        if dict(ext) != expected_ext:
            return f"extension classes {dict(ext)} != extension_count {expected_ext}"
        chi = symfunc.schur_expand(class_function(fam, q))
        for mu, got in flags.items():
            expected = sum(symfunc.kostka(lam, mu) * c for lam, c in chi.items())
            if got != expected:
                return f"fixed flags of shape {mu}: {got} != Kostka-combined {expected}"
        return None

    def corrupt(self, out):
        label, ext, flags = out
        return label, ext, _bump(flags)


WORKLOADS = {w.name: w for w in (GrowthClosed, HlCold, TracesWarm, OracleCrosscheck)}


def make(name: str) -> Workload:
    return WORKLOADS[name]()
