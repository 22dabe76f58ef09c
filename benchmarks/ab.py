"""Alternating parent/change pairs of one perfbench workload, layer file or CLI request, and the pair table.

    python benchmarks/ab.py --parent DIR --change DIR --workload W --seed S --pairs N
    python benchmarks/ab.py --parent DIR --change DIR --layers FILE --pairs N
    python benchmarks/ab.py --parent DIR --change DIR --cli "ARGS" --pairs N

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

With ``--layers FILE`` (a ``pytest-benchmark`` file or directory, such as
``benchmarks/``), each run is ``python -m pytest FILE --benchmark-json``
from the tree, alternating in the same way, and each JSON is kept in
``--out`` as ``<side>-layers-<stem of FILE>-pair<i>.json``.  A pair in
which a body ran on one side only, or in which a body's bytecode count
(``extra_info["opcodes"]``) differs from that tree's first run, stops the
run.  Per body the table gives both medians with their quartiles of the
per-run minimum time, the ratio change/parent, the pairs the change won,
and the ratio of the two trees' counts.

With ``--cli "ARGS"`` (split as a shell would), each run is one
``python -m fqtraces.cli ARGS`` in a fresh process, with the tree as
working directory and its ``src`` as ``PYTHONPATH``, alternating in the
same way.  Its wall time and the CPU time of the child
(``resource.getrusage(RUSAGE_CHILDREN)``) are kept in ``--out`` as
``<side>-cli-<command>-pair<i>.json``, with its exit code and the digest
of its stdout; a pair with a nonzero exit, or whose two stdouts differ,
stops the run.  The table gives both timings as for a workload's metrics,
lower being better.
"""

import argparse
import hashlib
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import time
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


def run_pytest_benchmark(tree: Path, out: Path, file: str):
    """One ``pytest-benchmark`` run of ``file`` from ``tree``, its JSON written to ``out``."""
    cmd = [sys.executable, "-m", "pytest", file, "-q", "-p", "no:cacheprovider", f"--benchmark-json={out}"]
    subprocess.run(cmd, cwd=tree, capture_output=True, check=False)


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_cli(tree: Path, out: Path, args: list[str]):
    """One fresh ``python -m fqtraces.cli ARGS`` from ``tree``: its timings, exit code and stdout digest to ``out``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cpu = _child_cpu_s()
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "fqtraces.cli", *args], cwd=tree, env=env, capture_output=True, check=False
    )
    wall = time.perf_counter() - start
    result = {
        "wall_s": wall,
        "child_cpu_s": _child_cpu_s() - cpu,
        "code": run.returncode,
        "stdout_sha256": hashlib.sha256(run.stdout).hexdigest(),
    }
    out.write_text(json.dumps(result))


def run_pairs(n: int, trees: dict, out_dir: Path, stem: str, run_one):
    """Yield (i, {side: result}) for n pairs, each side's run alternating first.

    ``run_one(tree, out)`` writes one result file to ``out``, kept as
    ``<side>-<stem>-pair<i>.json`` in ``out_dir``.
    """
    for i in range(n):
        results = {}
        for side in order(i):
            out = (out_dir / f"{side}-{stem}-pair{i + 1}.json").resolve()
            out.unlink(missing_ok=True)
            run_one(trees[side], out)
            if not out.is_file():
                raise SystemExit(f"pair {i + 1}: the {side} run wrote no result")
            results[side] = json.loads(out.read_text())
        yield i, results


def check_pair(results: dict, i: int):
    """Refuse pair i when a side has failed ops or the two output digests differ."""
    for side, result in results.items():
        failed = result["failed_fraction"]["failed"]
        if failed:
            raise SystemExit(f"pair {i + 1}: {side} has {failed} failed ops")
    digests = {result["output_sha256"] for result in results.values()}
    if len(digests) != 1:
        raise SystemExit(f"pair {i + 1}: the output digests differ")


def check_cli_pair(results: dict, i: int):
    """Refuse pair i when a side exits nonzero or the two stdouts differ."""
    for side, result in results.items():
        if result["code"]:
            raise SystemExit(f"pair {i + 1}: the {side} request exited {result['code']}")
    if len({result["stdout_sha256"] for result in results.values()}) != 1:
        raise SystemExit(f"pair {i + 1}: the stdouts differ")


def quartiles(values: list) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def compare(values: dict, lower: bool) -> dict:
    """Both sides' medians and quartiles of {side: per-pair values}, the ratio, the wins and the rule."""
    med = {side: statistics.median(values[side]) for side in SIDES}
    quart = {side: quartiles(values[side]) for side in SIDES}
    won = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
    gain = (med["parent"] - med["change"]) if lower else (med["change"] - med["parent"])
    iqr = quart["parent"][1] - quart["parent"][0]
    pairs = len(values["parent"])
    return {
        "parent": med["parent"],
        "parent_quartiles": quart["parent"],
        "change": med["change"],
        "change_quartiles": quart["change"],
        "ratio": med["change"] / med["parent"],
        "won": won,
        "pairs": pairs,
        "passes": 10 * won >= 9 * pairs and gain > iqr,
    }


def summarize(pairs: list[dict], spec: dict) -> list[dict]:
    """One row per end-to-end metric of ``spec`` over ``pairs`` of {side: result}."""
    rows = []
    for m in spec["end_to_end"]:
        name = m["name"]
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        rows.append({"metric": name, "unit": m["unit"], **compare(values, m["better"] == "lower")})
    return rows


# the timings of one CLI request, both lower-is-better
CLI_METRICS = {"wall_s": "s", "child_cpu_s": "s"}


def summarize_cli(pairs: list[dict]) -> list[dict]:
    """One row per timing of ``CLI_METRICS`` over ``pairs`` of {side: result}."""
    rows = []
    for name, unit in CLI_METRICS.items():
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        rows.append({"metric": name, "unit": unit, **compare(values, lower=True)})
    return rows


def layer_bodies(result: dict) -> dict:
    """{body: (minimum time in s, bytecode count or None)} of one pytest-benchmark JSON."""
    return {
        b["fullname"]: (b["stats"]["min"], b["extra_info"].get("opcodes"))
        for b in result["benchmarks"]
    }


def check_layer_pair(bodies: dict, first: dict, i: int):
    """Refuse pair i when a body is missing from a run, or its count differs from the tree's first run.

    ``first`` is the first pair's {side: bodies}, or pair i's own for the first.
    """
    names = set(first["parent"])
    for side in SIDES:
        lone = names ^ set(bodies[side])
        if lone:
            raise SystemExit(f"pair {i + 1}: bodies missing on one side: {', '.join(sorted(lone))}")
        for name, (_, count) in bodies[side].items():
            if count != first[side][name][1]:
                raise SystemExit(f"pair {i + 1}: the {side} count of {name} differs from its first run")


def summarize_layers(pairs: list[dict]) -> list[dict]:
    """One row per body over ``pairs`` of {side: layer_bodies(result)}, in the parent's order."""
    rows = []
    for name in pairs[0]["parent"]:
        values = {side: [p[side][name][0] for p in pairs] for side in SIDES}
        counts = [pairs[0][side][name][1] for side in SIDES]
        ratio = counts[1] / counts[0] if None not in counts else None
        rows.append({"body": name, **compare(values, lower=True), "count_ratio": ratio})
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


def layer_table(rows: list[dict]) -> str:
    lines = [f"{'body':60} {'parent min ms [q1, q3]':28} {'change min ms [q1, q3]':28} ratio  won    counts"]
    for r in rows:
        cells = [
            f"{1e3 * r[side]:.4g} [{1e3 * r[side + '_quartiles'][0]:.4g}, {1e3 * r[side + '_quartiles'][1]:.4g}]"
            for side in SIDES
        ]
        counts = "-" if r["count_ratio"] is None else f"{r['count_ratio']:.3f}"
        body = r["body"].rsplit("/", 1)[-1]
        lines.append(
            f"{body:60} {cells[0]:28} {cells[1]:28} {r['ratio']:.3f}  {r['won']:>2}/{r['pairs']:<3} {counts}"
        )
    return "\n".join(lines)


def main(argv=None, run=run_perfbench, run_layers=run_pytest_benchmark, run_request=run_cli) -> list[dict]:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload")
    what.add_argument("--layers", metavar="FILE")
    what.add_argument("--cli", metavar="ARGS")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--out", type=Path, default=Path("ab-out"))
    args = ap.parse_args(argv)
    if args.workload is not None and args.seed is None:
        ap.error("--workload needs --seed")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    args.out.mkdir(parents=True, exist_ok=True)
    pairs = []
    if args.layers is not None:
        stem = f"layers-{Path(args.layers).stem}"
        runs = run_pairs(args.pairs, trees, args.out, stem, lambda tree, out: run_layers(tree, out, args.layers))
        for i, results in runs:
            bodies = {side: layer_bodies(result) for side, result in results.items()}
            check_layer_pair(bodies, pairs[0] if pairs else bodies, i)
            pairs.append(bodies)
        rows = summarize_layers(pairs)
        print(f"layers {args.layers}: {len(pairs)} pairs, parent first in the odd ones")
        print(layer_table(rows))
        return rows
    if args.cli is not None:
        request = shlex.split(args.cli)
        stem = "-".join(["cli", *request[:1]])
        runs = run_pairs(args.pairs, trees, args.out, stem, lambda tree, out: run_request(tree, out, request))
        for i, results in runs:
            check_cli_pair(results, i)
            pairs.append(results)
        rows = summarize_cli(pairs)
        print(f"fqtraces {args.cli}: {len(pairs)} pairs, parent first in the odd ones")
        print(table(rows))
        return rows
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    stem = f"{args.workload}-seed{args.seed}"
    runs = run_pairs(
        args.pairs, trees, args.out, stem, lambda tree, out: run(tree, out, args.workload, args.seed, seconds)
    )
    for i, results in runs:
        check_pair(results, i)
        pairs.append(results)
    rows = summarize(pairs, spec)
    print(f"{args.workload} seed {args.seed}: {len(pairs)} pairs, parent first in the odd ones")
    print(table(rows))
    return rows


if __name__ == "__main__":
    main()
