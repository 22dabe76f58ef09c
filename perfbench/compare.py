"""Compare benchmark result files by the bounds in BENCHMARK.json.

    python3 perfbench/compare.py --base A1.json [A2.json ...] --new B1.json [B2.json ...]

Result files are the ones run.py writes (perfbench/out/*-trace0.json).
Files are grouped by workload; each side's value of a metric is its median
over that side's files.  A metric regresses when the new median is worse
than the base median by more than the metric's bound (a share of the base
median).  Exits 1 if any metric regressed, else 0.  A result file with
failed ops is refused: its timings do not count.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths: list) -> dict:
    """workload -> metric -> list of values."""
    out = {}
    for path in paths:
        result = json.loads(Path(path).read_text())
        if result["trace"]:
            sys.exit(f"{path}: traced results have no bounds; compare untraced runs")
        failed = result["failed_fraction"]
        if failed["failed"]:
            sys.exit(f"{path}: {failed['failed']} of {failed['attempted']} ops failed; its timings do not count")
        per = out.setdefault(result["workload"], {})
        for name, m in result["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def compare(base: dict, new: dict, spec: dict) -> list:
    """Rows (workload, metric, base, new, change, bound, verdict)."""
    rows = []
    for workload in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in base[workload] or name not in new[workload]:
                continue
            b = statistics.median(base[workload][name])
            n = statistics.median(new[workload][name])
            change = (n - b) / b
            worse = change if m["better"] == "lower" else -change
            verdict = "REGRESSED" if worse > m["bound"] else ("better" if worse < 0 else "ok")
            rows.append((workload, name, b, n, change, m["bound"], verdict))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    rows = compare(load(args.base), load(args.new), spec)
    if not rows:
        sys.exit("no workload appears on both sides")
    print(f"{'workload':18s} {'metric':16s} {'base':>12s} {'new':>12s} {'change':>8s} {'bound':>6s}  verdict")
    for workload, name, b, n, change, bound, verdict in rows:
        print(f"{workload:18s} {name:16s} {b:12.6g} {n:12.6g} {change:+8.1%} {bound:6.0%}  {verdict}")
    return 1 if any(r[-1] == "REGRESSED" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
