"""Alternating parent/change pairs of one perfbench workload, and the pair table.

    python benchmarks/ab.py --parent DIR --change DIR --workload W --seed S --pairs N

DIR is the root of an fqtraces checkout.  Each pair runs
``perfbench/run.py --trace 0`` once from each tree, for the
``run_seconds`` of the change tree's ``BENCHMARK.json``, in a process of
its own with the tree as working directory; the parent goes first in the odd
pairs (1, 3, ...) and the change in the even ones.  Every result file is
kept in ``--out`` (default ``ab-out``), named
``<side>-<workload>-seed<S>-pair<i>.json``, so ``perfbench/compare.py``
can read them too.  A pair whose two output digests differ, or either of
whose results has failed ops, stops the run: its timings would compare
different work.

For each end-to-end metric of the change tree's ``BENCHMARK.json`` the
table gives both medians with their quartiles, the ratio change/parent,
the pairs the change won, and whether it passes the rule for a claimed
gain: at least 9 pairs in 10 won, and the medians further apart, in the
better direction, than the parent's interquartile range.  Nothing under
``perfbench/`` is changed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def order(i: int) -> tuple[str, str]:
    """The sides of pair i (0-based) in the order they run."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def run_perfbench(tree: Path, out: Path, workload: str, seed: int, seconds: float):
    """One untraced perfbench run from ``tree``, its result written to ``out``."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", "--out", str(out),
    ]
    subprocess.run(cmd, cwd=tree, capture_output=True, check=False)


def check_pair(results: dict, i: int):
    """Refuse pair i when a side has failed ops or the two output digests differ."""
    for side, result in results.items():
        failed = result["failed_fraction"]["failed"]
        if failed:
            raise SystemExit(f"pair {i + 1}: {side} has {failed} failed ops")
    digests = {result["output_sha256"] for result in results.values()}
    if len(digests) != 1:
        raise SystemExit(f"pair {i + 1}: the output digests differ")


def quartiles(values: list) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs: list[dict], spec: dict) -> list[dict]:
    """One row per end-to-end metric of ``spec`` over ``pairs`` of {side: result}."""
    rows = []
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        med = {side: statistics.median(values[side]) for side in SIDES}
        quart = {side: quartiles(values[side]) for side in SIDES}
        won = sum(
            (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])
        )
        gain = (med["parent"] - med["change"]) if lower else (med["change"] - med["parent"])
        iqr = quart["parent"][1] - quart["parent"][0]
        rows.append({
            "metric": name,
            "unit": m["unit"],
            "parent": med["parent"],
            "parent_quartiles": quart["parent"],
            "change": med["change"],
            "change_quartiles": quart["change"],
            "ratio": med["change"] / med["parent"],
            "won": won,
            "pairs": len(pairs),
            "passes": 10 * won >= 9 * len(pairs) and gain > iqr,
        })
    return rows


def table(rows: list[dict]) -> str:
    lines = [f"{'metric':16} {'parent median [q1, q3]':40} {'change median [q1, q3]':40} ratio  won    rule"]
    for r in rows:
        cells = [
            f"{r[side]:.4g} [{r[side + '_quartiles'][0]:.4g}, {r[side + '_quartiles'][1]:.4g}] {r['unit']}"
            for side in SIDES
        ]
        verdict = "pass" if r["passes"] else "-"
        lines.append(
            f"{r['metric']:16} {cells[0]:40} {cells[1]:40} {r['ratio']:.3f}  "
            f"{r['won']:>2}/{r['pairs']:<3} {verdict}"
        )
    return "\n".join(lines)


def main(argv=None, run=run_perfbench) -> list[dict]:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--out", type=Path, default=Path("ab-out"))
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    args.out.mkdir(parents=True, exist_ok=True)
    pairs = []
    for i in range(args.pairs):
        results = {}
        for side in order(i):
            out = (args.out / f"{side}-{args.workload}-seed{args.seed}-pair{i + 1}.json").resolve()
            out.unlink(missing_ok=True)
            run(trees[side], out, args.workload, args.seed, seconds)
            if not out.is_file():
                raise SystemExit(f"pair {i + 1}: the {side} run wrote no result")
            results[side] = json.loads(out.read_text())
        check_pair(results, i)
        pairs.append(results)
    rows = summarize(pairs, spec)
    print(f"{args.workload} seed {args.seed}: {len(pairs)} pairs, parent first in the odd ones")
    print(table(rows))
    return rows


if __name__ == "__main__":
    main()
