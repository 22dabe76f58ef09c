"""Batch command line front end.

Every computation is a subcommand taking flat flags for scalars and JSON
for structured inputs (families, classes, trace parameter sets).  Output
is CSV (default) or a single JSON object with a "results" array.  Exact
values always print as reduced fractions.  Exit codes: 0 success, 1
validation error, 2 verification-suite failure.
"""

import argparse
import json
import sys
from fractions import Fraction

from fqtraces.measures import (
    CYLINDER_Q_BITS_CAP,
    MeasureParams,
    _Haar,
    _Row,
    cyl_prob,
    cyl_prob_from_trace,
    lln_experiment,
    sample_trajectory,
)
from fqtraces.partitions import (
    format_partition,
    n_stat,
    parse_partition,
    partitions_of,
    size,
    transpose,
)
from fqtraces.specializations import Specialization, check_q_power
from fqtraces.symfunc import (
    hl_q_row,
    kostka,
    kostka_foulkes,
    modified_hl_q_row,
    schur_coefficients,
)
from fqtraces.traces import (
    DiagramFamily,
    GLUTraceParams,
    biregular_coefficient,
    check_dimension,
    glu_trace_coefficients,
    green_dimension,
    trace_coefficients,
    unipotent_trace_value,
)
from fqtraces import verify
from fqtraces.oracle import families_enumerate


# Largest biregular --max-size per field order.  The run time grows about
# like q**size; at these caps it was at most 1.7 s in process (Python 3.11,
# 2 vCPU), and one size more took 2.8 s at q = 3 and 4.2-24 s elsewhere.
BIREGULAR_MAX_SIZE = {2: 12, 3: 7, 4: 6, 5: 5, 7: 4, 8: 4, 9: 4}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational {text!r}")


def _fractions(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(_fraction(p) for p in text.split(","))


def _count(low: int):
    """An integer flag that must be at least ``low``."""

    def integer(text: str) -> int:
        # argparse reports a ValueError from int() as "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _partition(text: str):
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _json_arg(what: str, build):
    """A flag holding JSON, turned into an object by ``build``."""

    def convert(text: str):
        try:
            return build(json.loads(text))
        except (KeyError, TypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(f"invalid {what} JSON: {exc}")

    return convert


def _string_field(record, key: str, default=None) -> str:
    if not isinstance(record, dict):
        raise TypeError(f"expected a JSON object, got {record!r}")
    value = record[key] if default is None else record.get(key, default)
    if not isinstance(value, str):
        raise TypeError(f"{key!r} must be a string, got {value!r}")
    return value


def _glu_params(data) -> GLUTraceParams:
    entries = tuple(
        (
            _string_field(e, "label"),
            Specialization.finite(
                _fractions(_string_field(e, "alpha", "")),
                _fractions(_string_field(e, "beta", "")),
                _fraction(_string_field(e, "gamma")),
            ),
        )
        for e in data["entries"]
    )
    return GLUTraceParams(entries, DiagramFamily.from_json_obj(data.get("family", [])))


_family = _json_arg("family", DiagramFamily.from_json_obj)


class _PartitionCell(str):
    """Partitions in one cell, such as "2,1" or "2;1,1": CSV quotes them, JSON does not."""


def _digit_limit() -> int:
    # Python 3.10 before 3.10.7 has no limit
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_long(limit: int) -> ValueError:
    return ValueError(f"exact value has more than {limit} digits, the most fqtraces prints")


def _exact(value) -> str:
    """An exact integer or fraction as text, refused past the int-to-str digit limit.

    The conversion takes time quadratic in the digits, so CPython caps it at
    sys.get_int_max_str_digits(); this is the one place exact values become
    text, and it says so in its own words.
    """
    limit = _digit_limit()
    big = max(abs(value.numerator), value.denominator)
    # below 2**(3 * limit) a value has fewer than limit digits
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise _too_long(limit)
    return str(value)


def _check_power_digits(q: Fraction, e: int):
    """Refuse, before any work, a value at least q**e that :func:`_exact` would refuse.

    For q = a/b, q**m is at least 2**g with g = (bits of a**m) - 1 - (bits
    of b**m - 1), so q**e is at least 2**(g * (e // m)); past 10**limit by
    that bound the value is refused here, and closer ones are left to
    :func:`_exact`.  m = 1 for integer q, where g is bits of q - 1, and 64
    otherwise, where g / m is within 1/32 of log2(q).
    """
    limit = _digit_limit()
    a, b = q.numerator, q.denominator
    m = 1 if b == 1 else 64
    g = (a**m).bit_length() - 1 - (b**m - 1).bit_length()
    # 10 / 3 > log2(10)
    if limit and e > 0 and 3 * (e // m) * g > 10 * limit:
        raise _too_long(limit)


def _check_cylinder(params: MeasureParams, lam):
    """Refuse, before any work, a closed-form cylinder that :func:`_exact` would refuse.

    The cap on powers of q is checked first, as in :func:`cyl_prob`.  With
    q = a/b, lam of size n and e = n(n-1)/2, every Haar cylinder is q**-e,
    whose larger side is a**e.  The single-row cylinder of lam = (n) is
    b**e / (a**(e-n+1) (a-b)**(n-1)), whose reduced denominator keeps
    a**(e-n+1) whole, as a is prime to b and to a - b; it is 0 on any other
    lam.  The family is the resolved one, whatever flags named it.
    """
    n = size(lam)
    e = n * (n - 1) // 2
    check_q_power(params.q, e, CYLINDER_Q_BITS_CAP, "cylinder probabilities")
    a = Fraction(params.q.numerator)
    if isinstance(params.family, _Haar):
        _check_power_digits(a, e)
    elif isinstance(params.family, _Row) and len(lam) <= 1:
        _check_power_digits(a, e - n + 1)


def _check_dimension(family: DiagramFamily, q: Fraction):
    """Refuse, before any work, a dimension that :func:`_exact` would refuse.

    The checks of :func:`green_dimension` come first.  A family of degree
    k has dimension at least q**E, the larger side of the answer too, with
    E = k(k+1)/2 - (j + 1) k - S and S the sum of d n(lam') over its
    blocks: q**i - 1 = q**i (1 - q**-i) with 1 - q**-i >= 1 - 1/q >= q**-j,
    q**(dh) - 1 < q**(dh), and the hooks of lam sum to |lam| + n(lam) +
    n(lam').  For q = a/b, j is the least with q**j >= a / (a - b): 1 for
    integer q.  A j past k leaves E negative, so the search stops there.

    Near q = 1 that bound says little, but the denominator is exact: the
    dimension is a monic integer polynomial in q of degree
    D = k(k-1)/2 - S, so at q = a/b with b > 1 its reduced denominator is
    b**D, and b**D >= 10**limit is refused.
    """
    q = check_dimension(family, q)
    a, b = q.numerator, q.denominator
    k = family.degree
    j = 1
    while j <= k and a**j * (a - b) < a * b**j:
        j += 1
    s = sum(d * n_stat(transpose(lam)) for _, d, lam in family.blocks)
    _check_power_digits(q, k * (k + 1) // 2 - (j + 1) * k - s)
    limit = _digit_limit()
    e = k * (k - 1) // 2 - s
    # b**e >= 2**((bits of b - 1) * e), and 2**(4 limit) > 10**limit; below
    # that bound b**e has at most 8 limit bits, and is compared exactly
    if limit and b > 1 and ((b.bit_length() - 1) * e >= 4 * limit or b**e >= 10**limit):
        raise _too_long(limit)


def _cell(c) -> str:
    if isinstance(c, _PartitionCell):
        return f'"{c}"'
    return _exact(c) if isinstance(c, Fraction) else str(c)


def _emit(fmt: str, rows: list[dict], header: list[str] | None = None):
    """Write rows as CSV or as one JSON object with a "results" array.

    Without a header the rows are bare values, which CSV prints alone.  The
    whole text is built first, so a value refused by :func:`_exact` leaves
    stdout empty.
    """
    if fmt == "json":
        # exact values print as reduced-fraction strings, as in CSV
        text = json.dumps({"results": rows}, indent=2, default=_exact) + "\n"
    else:
        lines = [] if header is None else [",".join(header)]
        for row in rows:
            cells = row.values() if header is None else (row[h] for h in header)
            lines.append(",".join(_cell(c) for c in cells))
        text = "".join(line + "\n" for line in lines)
    sys.stdout.write(text)


_NAMED_MEASURES = {
    "haar": MeasureParams.haar,
    "delta": MeasureParams.delta_identity,
    "single-row": MeasureParams.single_row,
}


def _measure(args) -> MeasureParams:
    if args.measure in _NAMED_MEASURES:
        if args.r or args.c:
            raise CliError(f"--measure {args.measure} takes no --r or --c")
        return _NAMED_MEASURES[args.measure](args.q)
    return MeasureParams(args.r, args.c, args.q)


def _add_measure_flags(p):
    p.add_argument("--q", type=_fraction, required=True)
    p.add_argument(
        "--measure",
        choices=[*_NAMED_MEASURES, "custom"],
        default=None,
        help="named parameter family, or custom with --r/--c",
    )
    p.add_argument("--r", type=_fractions, default=(), help="row frequencies a/b,c/d,...")
    p.add_argument("--c", type=_fractions, default=(), help="column frequencies")


def _dim_flags(p):
    p.add_argument("--q", type=_fraction, required=True)
    p.add_argument("--family", type=_family, required=True)


def _kostka_flags(p):
    p.add_argument("--shape", type=_partition, required=True)
    p.add_argument("--content", type=_partition, required=True)


def _hl_expand_flags(p):
    p.add_argument("--lam", type=_partition, required=True, metavar="PARTITION")
    p.add_argument(
        "--t", type=_fraction, required=True, help="rational t; write a negative one as --t=-3/7"
    )
    p.add_argument("--modified", action="store_true", help="expand the modified Q function")


def _trace_flags(p):
    p.add_argument("--q", type=_fraction, required=True)
    p.add_argument("--alpha", type=_fractions, default=())
    p.add_argument("--beta", type=_fractions, default=())
    p.add_argument("--class", dest="cls", type=_family, required=True)


def _coeffs_flags(p):
    p.add_argument("--n", type=_count(0), required=True)
    p.add_argument("--alpha", type=_fractions, default=())
    p.add_argument("--beta", type=_fractions, default=())
    p.add_argument(
        "--glu-params",
        type=_json_arg("params", _glu_params),
        default=None,
        help='JSON {"entries": [{"label", "alpha", "beta", "gamma"}], "family": [...]}',
    )


def _biregular_flags(p):
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-size", type=_count(0), required=True)


def _cyl_flags(p):
    _add_measure_flags(p)
    p.add_argument("--lam", type=_partition, required=True, metavar="PARTITION")
    p.add_argument("--from-trace", action="store_true", help="use trace parameters instead")
    p.add_argument("--alpha", type=_fractions, default=())
    p.add_argument("--beta", type=_fractions, default=())


def _sample_flags(p):
    _add_measure_flags(p)
    p.add_argument("--nmax", type=_count(0), required=True)
    p.add_argument("--seed", type=int, required=True)


def _lln_flags(p):
    _add_measure_flags(p)
    p.add_argument("--nmax", type=_count(1), required=True)
    p.add_argument("--trials", type=_count(1), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--track", type=_count(1), default=4)


def _verify_flags(p):
    p.add_argument(
        "suite",
        nargs="?",
        default=None,
        choices=[*verify.suite_names(), "all"],
        metavar="SUITE",
        help="suite name or 'all' (the default)",
    )
    p.add_argument("--list", action="store_true", help="list suite names")


# name -> (help line, function adding the command's flags to its parser)
_COMMANDS = {
    "dim": ("irreducible dimension of a family", _dim_flags),
    "kostka": ("Kostka number", _kostka_flags),
    "kostka-foulkes": ("charge polynomial, constant term first", _kostka_flags),
    "hl-expand": ("Schur expansion of a Hall-Littlewood Q function", _hl_expand_flags),
    "trace": ("unipotent trace value on a conjugacy class", _trace_flags),
    "coeffs": ("trace coefficients over irreducible characters", _coeffs_flags),
    "biregular": ("biregular weights C(f) for unit-free families", _biregular_flags),
    "cyl": ("cylinder probability of a Jordan type", _cyl_flags),
    "sample": ("sample one growth trajectory of Jordan types", _sample_flags),
    "lln": ("law-of-large-numbers experiment", _lln_flags),
    "verify": ("run named verification suites", _verify_flags),
}


class _Command:
    """A command's parser, built afresh by each parse that reaches its name.

    The top-level parser lists every command's name and help line, but a
    request builds the flags of its own command only.  Nothing is kept
    between parses.
    """

    def __init__(self, add_flags, **kwargs):
        self.add_flags = add_flags
        self.kwargs = kwargs  # prog, and whatever else argparse passes a parser

    def parse_known_args(self, args=None, namespace=None):
        parser = _Parser(**self.kwargs)
        self.add_flags(parser)
        return parser.parse_known_args(args, namespace)


def build_parser() -> _Parser:
    parser = _Parser(prog="fqtraces", description=__doc__)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)
    for name, (line, add_flags) in _COMMANDS.items():
        sub.add_parser(name, help=line, add_flags=add_flags)
    return parser


def _run(args) -> int:
    fmt = args.format
    header, code = None, 0
    if args.command == "dim":
        _check_dimension(args.family, args.q)
        rows = [{"value": _exact(green_dimension(args.family, args.q))}]
    elif args.command == "kostka":
        rows = [{"value": _exact(kostka(args.shape, args.content))}]
    elif args.command == "kostka-foulkes":
        coeffs = list(kostka_foulkes(args.shape, args.content))
        header = ["power", "coeff"]
        if fmt == "json":  # one row holding the whole list
            rows = [{"coefficients": coeffs}]
        else:
            rows = [{"power": i, "coeff": c} for i, c in enumerate(coeffs)]
    elif args.command == "hl-expand":
        n = size(args.lam)
        row = (modified_hl_q_row if args.modified else hl_q_row)(args.lam, args.t)
        coeffs = zip(partitions_of(n), schur_coefficients(row, n))
        header = ["mu", "coeff"]
        rows = [{"mu": _PartitionCell(format_partition(mu)), "coeff": c} for mu, c in coeffs if c]
    elif args.command == "trace":
        sp = Specialization.finite(args.alpha, args.beta)
        rows = [{"value": _exact(unipotent_trace_value(sp, args.cls, args.q))}]
    elif args.command == "coeffs" and args.glu_params is not None:
        if args.alpha or args.beta:
            raise CliError(
                "coeffs --glu-params takes alpha and beta in its entries, not --alpha/--beta"
            )
        header = ["labels", "coeff"]
        rows = [
            {"labels": _PartitionCell(";".join(map(format_partition, key))), "coeff": value}
            for key, value in glu_trace_coefficients(args.glu_params, args.n).items()
        ]
    elif args.command == "coeffs":
        header = ["lambda", "coeff"]
        sp = Specialization.finite(args.alpha, args.beta)
        rows = [
            {"lambda": _PartitionCell(format_partition(lam)), "coeff": c}
            for lam, c in trace_coefficients(sp, args.n).items()
        ]
    elif args.command == "biregular":
        cap = BIREGULAR_MAX_SIZE.get(args.q)
        if cap is not None and args.max_size > cap:
            raise CliError(
                f"biregular --max-size is capped at {cap} for q = {args.q}; got {args.max_size}"
            )
        header = ["family", "weight"]
        rows = []
        for k in range(0, args.max_size + 1):
            for fam in families_enumerate(k, args.q):
                if not fam.has_unit():
                    cell = json.dumps(fam.to_json_obj()).replace(",", ";")
                    rows.append({"family": cell, "weight": biregular_coefficient(fam, args.q)})
    elif args.command == "cyl":
        if args.from_trace:
            if args.measure or args.r or args.c:
                raise CliError("cyl --from-trace takes --alpha/--beta, not --measure, --r or --c")
            sp = Specialization.finite(args.alpha, args.beta)
            value = cyl_prob_from_trace(sp, args.lam, args.q)
        else:
            if args.alpha or args.beta:
                raise CliError("cyl takes --alpha/--beta only with --from-trace")
            params = _measure(args)
            _check_cylinder(params, args.lam)
            value = cyl_prob(params, args.lam)
        rows = [{"value": _exact(value)}]
    elif args.command == "sample":
        header = ["level", "lambda"]
        traj = sample_trajectory(_measure(args), args.nmax, args.seed)
        rows = [
            {"level": i, "lambda": _PartitionCell(format_partition(lam))}
            for i, lam in enumerate(traj)
        ]
    elif args.command == "lln":
        stats = lln_experiment(_measure(args), args.nmax, args.trials, args.seed, track=args.track)
        header = ["statistic", "i", "empirical", "predicted", "stderr"]
        rows = [
            {
                "statistic": r.statistic,
                "i": r.index,
                "empirical": repr(r.empirical),
                "predicted": _exact(r.predicted),
                "stderr": repr(r.stderr),
            }
            for r in stats
        ]
    elif args.command == "verify" and args.list:
        if args.suite is not None:
            raise CliError("verify --list takes no suite name")
        rows = [{"suite": name} for name in verify.suite_names()]
    else:  # verify
        names = verify.suite_names() if args.suite in (None, "all") else [args.suite]
        rows = [row for name in names for row in verify.run_suite(name)]
        header = verify.COLUMNS
        if any(row["status"] == "fail" for row in rows):
            code = 2
    _emit(fmt, rows, header)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.write("run 'fqtraces --help' for usage\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
