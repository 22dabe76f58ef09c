"""``benchmarks/ab.py`` on canned result files: the alternation, the refusals and the pair table.

No workload, layer file or CLI request runs: a stand-in for the
perfbench, pytest-benchmark or ``fqtraces.cli`` run writes each result
file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).parent.parent / "benchmarks" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

SPEC = {
    "run_seconds": 10,
    "end_to_end": [
        {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


def result(p50, failed=0, digest="same"):
    return {
        "metrics": {
            "ops_per_s": {"value": 1 / p50, "unit": "ops/s"},
            "latency_p50_s": {"value": p50, "unit": "s"},
        },
        "failed_fraction": {"value": failed / 100, "unit": "ratio", "failed": failed, "attempted": 100},
        "output_sha256": digest,
    }


def trees(tmp_path):
    for side in ab.SIDES:
        (tmp_path / side).mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(SPEC))
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]


def canned(results: dict, calls: list):
    """A stand-in run: the next canned result of the tree's side, written to ``out``."""

    def run(tree, out, workload, seed, seconds):
        side = tree.name
        calls.append((side, workload, seed, seconds))
        out.write_text(json.dumps(results[side].pop(0)))

    return run


def main(tmp_path, results, pairs):
    calls = []
    argv = trees(tmp_path) + [
        "--workload", "traces-warm", "--seed", "7", "--pairs", str(pairs), "--out", str(tmp_path / "out"),
    ]
    return ab.main(argv, run=canned(results, calls)), calls


def test_pairs_alternate_and_the_table_applies_the_rule(tmp_path, capsys):
    parent = [10.0, 11.0, 12.0, 10.5, 11.5, 10.2, 11.2, 12.2, 10.8, 11.8]
    change = [p - 2 for p in parent]
    # the change loses one pair: 9 of 10 still pass
    change[3] = 11.0
    rows, calls = main(tmp_path, {"parent": [result(p) for p in parent], "change": [result(c) for c in change]}, 10)
    assert [side for side, *_ in calls] == ["parent", "change", "change", "parent"] * 5
    assert {tuple(rest) for _, *rest in calls} == {("traces-warm", 7, 10)}
    assert len(list((tmp_path / "out").iterdir())) == 20
    p50 = next(r for r in rows if r["metric"] == "latency_p50_s")
    assert (p50["won"], p50["pairs"], p50["passes"]) == (9, 10, True)
    assert p50["parent"] == 11.1 and p50["change"] == pytest.approx(9.35)
    assert p50["ratio"] == pytest.approx(9.35 / 11.1)
    ops = next(r for r in rows if r["metric"] == "ops_per_s")
    assert (ops["won"], ops["passes"]) == (9, True)
    assert "latency_p50_s" in capsys.readouterr().out


def test_the_rule_needs_nine_of_ten_and_a_gap_beyond_the_parent_spread(tmp_path):
    parent = [10.0, 11.0, 12.0, 10.5, 11.5, 10.2, 11.2, 12.2, 10.8, 11.8]
    # 8 of 10 won
    change = [p - 2 for p in parent[:8]] + [p + 1 for p in parent[8:]]
    rows, _ = main(tmp_path / "a", {"parent": [result(p) for p in parent], "change": [result(c) for c in change]}, 10)
    assert [r["passes"] for r in rows] == [False, False]
    # every pair won, by less than the parent's interquartile range
    change = [p - 0.1 for p in parent]
    rows, _ = main(tmp_path / "b", {"parent": [result(p) for p in parent], "change": [result(c) for c in change]}, 10)
    assert [(r["won"], r["passes"]) for r in rows] == [(10, False), (10, False)]


@pytest.mark.parametrize(
    "bad, message",
    [(result(1.0, failed=1), "failed ops"), (result(1.0, digest="other"), "digests differ")],
)
def test_a_pair_with_failed_ops_or_other_outputs_is_refused(tmp_path, bad, message):
    results = {"parent": [result(1.0), result(1.0)], "change": [result(0.9), bad]}
    with pytest.raises(SystemExit, match=message):
        main(tmp_path, results, 2)


def bench_json(times: dict, counts: dict) -> dict:
    """A pytest-benchmark JSON with one entry per body: its minimum time and count."""
    return {
        "benchmarks": [
            {
                "fullname": f"benchmarks/test_x.py::test_warm[{name}]",
                "stats": {"min": t},
                "extra_info": {"opcodes": counts[name]},
            }
            for name, t in times.items()
        ]
    }


def canned_layers(results: dict, calls: list):
    def run(tree, out, file):
        calls.append((tree.name, file))
        out.write_text(json.dumps(results[tree.name].pop(0)))

    return run


def main_layers(tmp_path, results, pairs):
    calls = []
    argv = trees(tmp_path) + ["--layers", "benchmarks/", "--pairs", str(pairs), "--out", str(tmp_path / "out")]
    return ab.main(argv, run_layers=canned_layers(results, calls)), calls


def test_layer_pairs_alternate_and_the_table_gives_times_wins_and_counts(tmp_path, capsys):
    fast = [1.0, 1.2, 0.9, 1.1, 1.3]
    parent = [bench_json({"a": 2e-3 * f, "b": 5e-3}, {"a": 1000, "b": 80}) for f in fast]
    # b: the change is slower in the pairs 2 and 4 and ties in the rest
    change = [
        bench_json({"a": 1e-3 * f, "b": 5e-3 + 1e-6 * (i % 2)}, {"a": 750, "b": 80})
        for i, f in enumerate(fast)
    ]
    rows, calls = main_layers(tmp_path, {"parent": parent, "change": change}, 5)
    assert [side for side, _ in calls] == ["parent", "change", "change", "parent"] * 2 + ["parent", "change"]
    assert {file for _, file in calls} == {"benchmarks/"}
    kept = {p.name for p in (tmp_path / "out").iterdir()}
    assert len(kept) == 10 and "parent-layers-benchmarks-pair5.json" in kept
    a, b = rows
    assert a["body"].endswith("[a]")
    assert (a["parent"], a["change"]) == (pytest.approx(2.2e-3), pytest.approx(1.1e-3))
    assert (a["won"], a["pairs"], a["count_ratio"]) == (5, 5, 0.75)
    assert (b["won"], b["count_ratio"]) == (0, 1.0)
    out = capsys.readouterr().out
    assert "test_x.py::test_warm[a]" in out and "0.750" in out


@pytest.mark.parametrize(
    "bad, message",
    [
        (bench_json({"a": 1e-3}, {"a": 750}), "missing on one side: benchmarks/test_x.py::test_warm\\[b\\]"),
        (bench_json({"a": 1e-3, "b": 5e-3}, {"a": 751, "b": 80}), "change count of .*\\[a\\] differs"),
    ],
    ids=["lone-body", "other-count"],
)
def test_a_layer_pair_with_a_lone_body_or_another_count_is_refused(tmp_path, bad, message):
    parent = [bench_json({"a": 2e-3, "b": 5e-3}, {"a": 1000, "b": 80}) for _ in range(2)]
    change = [bench_json({"a": 1e-3, "b": 5e-3}, {"a": 750, "b": 80}), bad]
    with pytest.raises(SystemExit, match=message):
        main_layers(tmp_path, {"parent": parent, "change": change}, 2)


def test_a_workload_needs_a_seed(tmp_path):
    with pytest.raises(SystemExit):
        ab.main(trees(tmp_path) + ["--workload", "traces-warm", "--pairs", "1"], run=None)


def cli_result(wall, cpu, code=0, stdout="same"):
    return {"wall_s": wall, "child_cpu_s": cpu, "code": code, "stdout_sha256": stdout}


def canned_cli(results: dict, calls: list):
    def run(tree, out, args):
        calls.append((tree.name, args))
        out.write_text(json.dumps(results[tree.name].pop(0)))

    return run


def main_cli(tmp_path, results, pairs):
    calls = []
    argv = trees(tmp_path) + [
        "--cli", "lln --q 2 --measure haar --nmax 1000", "--pairs", str(pairs), "--out", str(tmp_path / "out"),
    ]
    return ab.main(argv, run_request=canned_cli(results, calls)), calls


def test_cli_pairs_alternate_and_the_table_gives_wall_and_child_cpu(tmp_path, capsys):
    walls = [0.10, 0.11, 0.12, 0.105, 0.115, 0.102, 0.112, 0.122, 0.108, 0.118]
    parent = [cli_result(w, w - 0.01) for w in walls]
    # wall: the change wins 9 pairs by 0.02 s, and loses pair 4;
    # child CPU: it wins every pair, by less than the parent's spread
    change = [cli_result(w - 0.02, w - 0.011) for w in walls]
    change[3]["wall_s"] = 0.11
    rows, calls = main_cli(tmp_path, {"parent": parent, "change": change}, 10)
    assert [side for side, _ in calls] == ["parent", "change", "change", "parent"] * 5
    assert {tuple(args) for _, args in calls} == {("lln", "--q", "2", "--measure", "haar", "--nmax", "1000")}
    kept = {p.name for p in (tmp_path / "out").iterdir()}
    assert len(kept) == 20 and "change-cli-lln-pair10.json" in kept
    wall, cpu = rows
    assert (wall["metric"], wall["unit"], cpu["metric"]) == ("wall_s", "s", "child_cpu_s")
    assert wall["parent"] == pytest.approx(0.111) and wall["change"] == pytest.approx(0.0935)
    assert wall["parent_quartiles"] == pytest.approx((0.10425, 0.1185))
    assert (wall["won"], wall["pairs"], wall["passes"]) == (9, 10, True)
    assert wall["ratio"] == pytest.approx(0.0935 / 0.111)
    assert (cpu["won"], cpu["passes"]) == (10, False)
    assert "child_cpu_s" in capsys.readouterr().out


@pytest.mark.parametrize(
    "bad, message",
    [(cli_result(0.1, 0.09, code=1), "change request exited 1"), (cli_result(0.1, 0.09, stdout="other"), "stdouts differ")],
    ids=["nonzero-exit", "other-stdout"],
)
def test_a_cli_pair_with_a_failed_request_or_other_stdout_is_refused(tmp_path, bad, message):
    results = {"parent": [cli_result(0.1, 0.09)] * 2, "change": [cli_result(0.09, 0.08), bad]}
    with pytest.raises(SystemExit, match=message):
        main_cli(tmp_path, results, 2)
