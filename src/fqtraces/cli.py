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
    MeasureParams,
    cyl_prob,
    cyl_prob_from_trace,
    lln_experiment,
    sample_trajectory,
)
from fqtraces.partitions import format_partition, parse_partition
from fqtraces.specializations import Specialization
from fqtraces.symfunc import (
    hl_q_in_p,
    kostka,
    kostka_foulkes,
    modified_hl_q,
    schur_expand,
)
from fqtraces.traces import (
    DiagramFamily,
    GLUTraceParams,
    biregular_coefficient,
    glu_trace_coefficients,
    green_dimension,
    trace_coefficients,
    unipotent_trace_value,
)
from fqtraces import verify
from fqtraces.oracle import families_enumerate


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


def _partition(text: str):
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _family(text: str) -> DiagramFamily:
    try:
        return DiagramFamily.from_json_obj(json.loads(text))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"invalid family JSON: {exc}")


def _emit(fmt: str, rows: list[dict], header: list[str]):
    out = sys.stdout
    if fmt == "json":
        # exact values print as reduced-fraction strings, as in CSV
        out.write(json.dumps({"results": rows}, indent=2, default=str))
        out.write("\n")
        return
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(str(row[h]) for h in header) + "\n")


def _emit_value(fmt: str, value):
    if fmt == "json":
        sys.stdout.write(json.dumps({"results": [{"value": str(value)}]}, indent=2))
        sys.stdout.write("\n")
    else:
        sys.stdout.write(f"{value}\n")


def _specialization(args) -> Specialization:
    return Specialization.finite(args.alpha, args.beta, getattr(args, "gamma", 1))


_NAMED_MEASURES = {
    "haar": MeasureParams.haar,
    "delta": MeasureParams.delta_identity,
    "single-row": MeasureParams.single_row,
}


def _measure(args) -> MeasureParams:
    if args.measure in _NAMED_MEASURES:
        return _NAMED_MEASURES[args.measure](args.q)
    return MeasureParams(args.r, args.c, args.q)


def _add_measure_flags(p):
    p.add_argument("--q", type=_fraction, required=True)
    p.add_argument(
        "--measure",
        choices=[*_NAMED_MEASURES, "custom"],
        default="custom",
        help="named parameter family, or custom with --r/--c",
    )
    p.add_argument("--r", type=_fractions, default=(), help="row frequencies a/b,c/d,...")
    p.add_argument("--c", type=_fractions, default=(), help="column frequencies")


def build_parser() -> _Parser:
    parser = _Parser(prog="fqtraces", description=__doc__)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="irreducible dimension of a family")
    p.add_argument("--q", type=_fraction, required=True)
    p.add_argument("--family", type=_family, required=True)

    p = sub.add_parser("kostka", help="Kostka number")
    p.add_argument("--shape", type=_partition, required=True)
    p.add_argument("--content", type=_partition, required=True)

    p = sub.add_parser("kostka-foulkes", help="charge polynomial, constant term first")
    p.add_argument("--shape", type=_partition, required=True)
    p.add_argument("--content", type=_partition, required=True)

    p = sub.add_parser("hl-expand", help="Schur expansion of a Hall-Littlewood Q function")
    p.add_argument("--lam", type=_partition, required=True, metavar="PARTITION")
    p.add_argument("--t", type=_fraction, required=True)
    p.add_argument("--modified", action="store_true", help="expand the modified Q function")

    p = sub.add_parser("trace", help="unipotent trace value on a conjugacy class")
    p.add_argument("--q", type=_fraction, required=True)
    p.add_argument("--alpha", type=_fractions, default=())
    p.add_argument("--beta", type=_fractions, default=())
    p.add_argument("--class", dest="cls", type=_family, required=True)

    p = sub.add_parser("coeffs", help="trace coefficients over irreducible characters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=_fractions, default=())
    p.add_argument("--beta", type=_fractions, default=())
    p.add_argument(
        "--glu-params",
        type=str,
        default=None,
        help='JSON {"entries": [{"label", "alpha", "beta", "gamma"}], "family": [...]}',
    )

    p = sub.add_parser("biregular", help="biregular weights C(f) for unit-free families")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-size", type=int, required=True)

    p = sub.add_parser("cyl", help="cylinder probability of a Jordan type")
    _add_measure_flags(p)
    p.add_argument("--lam", type=_partition, required=True, metavar="PARTITION")
    p.add_argument("--from-trace", action="store_true", help="use trace parameters instead")
    p.add_argument("--alpha", type=_fractions, default=())
    p.add_argument("--beta", type=_fractions, default=())

    p = sub.add_parser("sample", help="sample one growth trajectory of Jordan types")
    _add_measure_flags(p)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("lln", help="law-of-large-numbers experiment")
    _add_measure_flags(p)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--track", type=int, default=4)

    p = sub.add_parser("verify", help="run named verification suites")
    p.add_argument("suite", nargs="?", default="all", help="suite name or 'all'")
    p.add_argument("--list", action="store_true", help="list suite names")

    return parser


def _run(args) -> int:
    fmt = args.format
    if args.command == "dim":
        _emit_value(fmt, green_dimension(args.family, args.q))
    elif args.command == "kostka":
        _emit_value(fmt, kostka(args.shape, args.content))
    elif args.command == "kostka-foulkes":
        poly = kostka_foulkes(args.shape, args.content)
        if fmt == "json":
            blob = {"results": [{"coefficients": poly.to_list()}]}
            sys.stdout.write(json.dumps(blob, indent=2) + "\n")
        else:
            _emit(fmt, [{"power": i, "coeff": c} for i, c in enumerate(poly.to_list())], ["power", "coeff"])
    elif args.command == "hl-expand":
        f = modified_hl_q(args.lam, args.t) if args.modified else hl_q_in_p(args.lam, args.t)
        rows = [
            {"mu": f'"{format_partition(mu)}"', "coeff": c}
            for mu, c in sorted(schur_expand(f).items(), reverse=True)
        ]
        _emit(fmt, rows, ["mu", "coeff"])
    elif args.command == "trace":
        sp = _specialization(args)
        _emit_value(fmt, unipotent_trace_value(sp, args.cls, args.q))
    elif args.command == "coeffs":
        if args.glu_params is not None:
            try:
                data = json.loads(args.glu_params)
                entries = tuple(
                    (
                        e["label"],
                        Specialization.finite(
                            _fractions(e.get("alpha", "")),
                            _fractions(e.get("beta", "")),
                            Fraction(e["gamma"]),
                        ),
                    )
                    for e in data["entries"]
                )
                background = DiagramFamily.from_json_obj(data.get("family", []))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise CliError(f"invalid --glu-params: {exc}")
            params = GLUTraceParams(entries, background)
            rows = [
                {
                    "labels": '"' + ";".join(format_partition(lam) for lam in key) + '"',
                    "coeff": value,
                }
                for key, value in glu_trace_coefficients(params, args.n).items()
            ]
            _emit(fmt, rows, ["labels", "coeff"])
        else:
            sp = _specialization(args)
            rows = [
                {"lambda": f'"{format_partition(lam)}"', "coeff": c}
                for lam, c in trace_coefficients(sp, args.n).items()
            ]
            _emit(fmt, rows, ["lambda", "coeff"])
    elif args.command == "biregular":
        rows = []
        for k in range(0, args.max_size + 1):
            for fam in families_enumerate(k, args.q):
                if fam.has_unit() or (fam.linear_blocks() and args.q == 2):
                    continue
                try:
                    weight = biregular_coefficient(fam, args.q)
                except ValueError:
                    continue
                rows.append(
                    {"family": json.dumps(fam.to_json_obj()).replace(",", ";"), "weight": weight}
                )
        _emit(fmt, rows, ["family", "weight"])
    elif args.command == "cyl":
        if args.from_trace:
            sp = Specialization.finite(args.alpha, args.beta, 1)
            _emit_value(fmt, cyl_prob_from_trace(sp, args.lam, args.q))
        else:
            _emit_value(fmt, cyl_prob(_measure(args), args.lam))
    elif args.command == "sample":
        traj = sample_trajectory(_measure(args), args.nmax, args.seed)
        rows = [
            {"level": i, "lambda": f'"{format_partition(lam)}"'}
            for i, lam in enumerate(traj)
        ]
        _emit(fmt, rows, ["level", "lambda"])
    elif args.command == "lln":
        report = lln_experiment(
            _measure(args), args.nmax, args.trials, args.seed, track=args.track
        )
        if fmt == "json":
            rows = [
                {
                    "statistic": r.statistic,
                    "i": r.index,
                    "empirical": repr(r.empirical),
                    "predicted": str(r.predicted),
                    "stderr": repr(r.stderr),
                }
                for r in report.rows
            ]
            _emit(fmt, rows, [])
        else:
            sys.stdout.write(report.to_csv())
    elif args.command == "verify":
        if args.list:
            for name in verify.suite_names():
                sys.stdout.write(name + "\n")
            return 0
        names = verify.suite_names() if args.suite == "all" else [args.suite]
        try:
            results = [verify.run_suite(name) for name in names]
        except KeyError as exc:
            raise CliError(str(exc))
        if fmt == "json":
            rows = [
                {
                    "suite": r.suite,
                    "instance": r.instance,
                    "left": r.left,
                    "right": r.right,
                    "status": "pass" if r.ok else "fail",
                }
                for res in results
                for r in res.rows
            ]
            sys.stdout.write(json.dumps({"results": rows}, indent=2) + "\n")
        else:
            sys.stdout.write("suite,instance,left,right,status\n")
            for res in results:
                for r in res.rows:
                    status = "pass" if r.ok else "fail"
                    sys.stdout.write(
                        f"{r.suite},{r.instance},{r.left},{r.right},{status}\n"
                    )
        if any(not res.passed for res in results):
            return 2
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.write("run 'fqtraces --help' for usage\n")
        return 1
    except (argparse.ArgumentTypeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
