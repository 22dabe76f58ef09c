"""Smoke tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Each run here is one round of a workload (--seconds 0.01); the file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(tmp_path, workload, *extra, trace=0, cwd=ROOT):
    out = tmp_path / f"{workload}-{trace}.json"
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", "0.01", "--trace", str(trace), "--out", str(out), *extra,
    ]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc, out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(tmp_path, workload):
    proc, out = bench(tmp_path, workload)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in lines)
    text = "\n".join(lines)
    assert f"n={last['attempted']}" in text
    result = json.loads(out.read_text())
    beyond = 10 if last["attempted"] >= 11 else 0
    assert f"{beyond} of {last['attempted']} samples beyond" in text
    assert result["latency_tail_samples_beyond"] == beyond
    assert "failed_fraction" in text
    for key in ("git_sha", "python", "cpu", "nproc"):
        assert key in result["machine"]
    assert result["seed"] == 7 and result["definition"]["why"] and result["definition"]["op"]
    assert result["failed_fraction"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_is_counted_and_fails_the_run(tmp_path, workload):
    proc, out = bench(tmp_path, workload, "--corrupt")
    assert proc.returncode == 1
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1
    result = json.loads(out.read_text())
    assert result["failed_fraction"]["value"] == 1 / last["attempted"]
    assert "op 0" in result["errors"][0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_leaves_outputs_alone(tmp_path, workload):
    plain, plain_out = bench(tmp_path, workload)
    traced, traced_out = bench(tmp_path, workload, trace=1)
    assert plain.returncode == 0 and traced.returncode == 0, traced.stderr
    last = json.loads(traced.stdout.strip().splitlines()[-1])
    assert list(last["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    # Same seed, same ops: the library's outputs (stdout bytes for hl-cold)
    # are identical with and without the wrappers.
    a = json.loads(plain_out.read_text())["output_sha256"]
    b = json.loads(traced_out.read_text())["output_sha256"]
    assert a == b
    side = ROOT / "perfbench" / "out" / f"{workload}-seed7.trace.json"
    spans = json.loads(side.read_text())["spans"]
    assert spans and all(len(s) == 6 for s in spans)


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, _ = bench(tmp_path, WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_compare_flags_a_regression(tmp_path):
    base = {"workload": "w", "trace": 0, "failed_fraction": {"failed": 0, "attempted": 10}, "metrics": {
        "ops_per_s": {"value": 100.0, "unit": "ops/s"},
        "latency_p50_s": {"value": 0.01, "unit": "s"},
    }}
    slower = json.loads(json.dumps(base))
    slower["metrics"]["ops_per_s"]["value"] = 50.0
    failing = json.loads(json.dumps(base))
    failing["metrics"]["ops_per_s"]["value"] = 200.0
    failing["failed_fraction"] = {"failed": 1, "attempted": 10}
    for name, data in (("a", base), ("b", base), ("c", slower), ("d", failing)):
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    compare = [sys.executable, str(ROOT / "perfbench" / "compare.py")]
    same = subprocess.run(compare + ["--base", str(tmp_path / "a.json"), "--new", str(tmp_path / "b.json")],
                          capture_output=True, text=True)
    assert same.returncode == 0, same.stdout + same.stderr
    worse = subprocess.run(compare + ["--base", str(tmp_path / "a.json"), "--new", str(tmp_path / "c.json")],
                           capture_output=True, text=True)
    assert worse.returncode == 1 and "REGRESSED" in worse.stdout
    # A faster result with a failed op is refused, not counted as better.
    refused = subprocess.run(compare + ["--base", str(tmp_path / "a.json"), "--new", str(tmp_path / "d.json")],
                             capture_output=True, text=True)
    assert refused.returncode == 1 and "1 of 10 ops failed" in refused.stderr
