"""Every benchmark workload still builds, runs and checks its ops.

``perfbench/workloads.py`` holds each workload's ops and the exactness
check of their outputs.  Here one seed-1 round of every workload is made,
the workload is warmed up as the benchmark does, and the first op of each
kind in the round is run and checked with the workload's own ``check``; a
corrupted copy of each output must fail that check.  A rename or a changed
return value that breaks a workload fails here, in about a second, and not
only in the benchmark runs.

It all runs in one subprocess, since hl-cold drops every fqtraces memo
table before each op.  The benchmark modules are imported, not changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

SCRIPT = """
import json, random, workloads
results = {}
for name in workloads.WORKLOADS:
    wl = workloads.make(name)
    ops = wl.make_ops(random.Random(1), 1)
    wl.warm_up()
    firsts = {}
    for op in ops:
        firsts.setdefault(op.kind, op)
    rows = []
    for kind, op in firsts.items():
        wl.prepare(op)
        out = wl.run(op)
        rows.append([kind, wl.check(op, out), wl.check(op, wl.corrupt(out))])
    results[name] = {"kinds": sorted({op.kind for op in ops}), "checked": rows}
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def results():
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _workload_names() -> list:
    text = (ROOT / "BENCHMARK.json").read_text()
    return [w["name"] for w in json.loads(text)["workloads"]]


def test_every_declared_workload_is_defined(results):
    assert sorted(results) == sorted(_workload_names())


@pytest.mark.parametrize("name", _workload_names())
def test_workload_round_checks_its_ops(results, name):
    got = results[name]
    kinds = [kind for kind, _, _ in got["checked"]]
    assert kinds and sorted(kinds) == got["kinds"]
    for kind, err, corrupted in got["checked"]:
        assert err is None, (kind, err)
        assert corrupted, (kind, "a corrupted output passed the check")
