"""fqtraces benchmark: one closed-loop workload, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The untraced run (--trace 0) measures the
end-to-end metrics of BENCHMARK.json; the traced run (--trace 1) installs
wrappers around each layer's public functions and reports the per-layer
metrics instead.  Every op output is checked for exactness; the command
exits 1 if any op failed and 2 if the tree holds no fqtraces sources.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result (metadata,
failed_fraction, the tail percentile and its sample count, tracing
overhead) goes to perfbench/out/<workload>-seed<N>-trace<T>.json, and a
traced run also writes its spans to perfbench/out/<workload>-seed<N>.trace.json.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402

# Set-up is timed this many times per untraced run (the measured run's own
# set-up plus set-up-only processes); setup_s is their median.
SETUP_REPEATS = 5
LIMIT_S = 170.0
IMPORT_REPEATS = 3


def fail(msg: str, code: int):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(code)


def machine(root: Path) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except OSError:
        sha = ""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "cpu": cpu or platform.processor() or "unknown",
        "nproc": os.cpu_count(),
    }


def start_worker(args, env, extra):
    """Start a worker; returns it and its set-up time scaled to reference speed."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().split()
    elapsed = time.perf_counter() - t0
    if len(line) != 3 or line[0] != "ready":
        proc.kill()
        proc.wait()
        fail(f"worker set-up failed for {args.workload}", 1)
    reference, calibration_s = float(line[1]), float(line[2])
    return proc, (elapsed - calibration_s) * calibrate.REFERENCE_S / reference


def run_worker(args, env) -> tuple:
    """The measured worker's raw results and the scaled set-up times."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            proc, setup = start_worker(args, env, ["--setup-only"])
            proc.wait(timeout=60)
            setups.append(setup)
    extra = (["--trace"] if args.trace else []) + (["--corrupt"] if args.corrupt else [])
    proc, setup = start_worker(args, env, extra)
    setups.append(setup)
    try:
        stdout, _ = proc.communicate(timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("worker did not finish in time", 1)
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}", 1)
    return json.loads(stdout.strip().splitlines()[-1]), setups


def tail(latencies: list) -> tuple:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond the value); with fewer than
    11 samples it is the maximum, with none beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def import_seconds(env) -> float:
    """Median time of `import fqtraces.cli` in a fresh interpreter, raw seconds."""
    code = "import time; t = time.perf_counter(); import fqtraces.cli; print(time.perf_counter() - t)"
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout)
        for _ in range(IMPORT_REPEATS)
    ]
    return statistics.median(times)


def per_layer(raw: dict, lat: list, env) -> dict:
    """Per-layer metric values of a traced run; times are scaled like the ops."""
    import tracer

    values = tracer.layer_metrics(raw["trace"])
    speed = sum(lat) / sum(raw["latencies"])
    for name in list(values):
        if name.endswith(("_s", ".us_per_call")):
            values[name] *= speed
    values["bench.traced_ops_per_s"] = len(lat) / sum(lat)
    op_s = values["bench.op_s"]
    values["measures.transition_distribution.share"] = (
        values["measures.transition_distribution.busy_s"] / op_s if op_s else 0.0
    )
    calls, busy, _ = raw["trace"]["stats"].get("cli.main", [0, 0.0, 0.0])
    values["cli.main.s"] = busy * speed / calls if calls else 0.0
    values["cli.import_s"] = import_seconds(env)
    # kostka_foulkes share of each request of the highest degree (hl-cold)
    degrees = [int(k.rsplit("-deg", 1)[1]) if "-deg" in k else None for k in raw["kinds"]]
    top = max((d for d in degrees if d is not None), default=None)
    shares = [
        kf / t for d, kf, t in zip(degrees, raw["kf_busy"], raw["latencies"]) if top is not None and d == top
    ]
    values["symfunc.kostka_foulkes.top_degree_share"] = statistics.median(shares) if shares else 0.0
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description="fqtraces benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="result file (default under perfbench/out/)")
    ap.add_argument(
        "--corrupt", action="store_true",
        help="test only: corrupt the first op's output to show the check catches it",
    )
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "fqtraces" / "__init__.py").is_file():
        fail("run from the root of an fqtraces checkout (src/fqtraces not found)", 2)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}", 2)
    sys.path.insert(0, str(root / "src"))
    import workloads

    # The only build step: byte-compile, so that no run pays for compilation.
    compileall.compile_dir(str(root / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    # Keep this process and the worker on one CPU, so that set-up, ops and
    # the speed reference are all timed on the CPU where the work runs.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass

    raw, setups = run_worker(args, env)
    # Times are scaled to reference machine speed (see calibrate.py).
    lat = [x * calibrate.REFERENCE_S / ref for x, ref in zip(raw["latencies"], raw["reference_s"])]
    n = len(lat)
    timed = sum(lat)
    tail_s, tail_pct, beyond = tail(lat)
    failed_fraction = raw["failed"] / n
    report = {}
    if args.trace:
        values = per_layer(raw, lat, env)
        wanted = spec["per_layer"]
        untraced = out_dir / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())
            if base["seconds"] == args.seconds:
                ref = base["metrics"]["ops_per_s"]["value"]
                report["tracing_overhead"] = {
                    "untraced_ops_per_s": ref,
                    "traced_ops_per_s": n / timed,
                    "slowdown": ref / (n / timed),
                }
        side = out_dir / f"{args.workload}-seed{args.seed}.trace.json"
        side.write_text(json.dumps({
            "spans_fields": ["id", "parent", "op", "name", "start_s", "end_s"],
            "spans": raw["spans"],
            "spans_dropped": raw["spans_dropped"],
            "stats_fields": ["calls", "busy_s", "self_s"],
            **raw["trace"],
        }))
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": n / timed,
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": tail_s,
            "peak_rss_mib": raw["peak_rss_kib"] / 1024,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    detail = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"{n} ops in {timed:.3f} s timed",
        "latency_p50_s": f"n={n}",
        "latency_tail_s": f"p{tail_pct:.1f}, {beyond} of {n} samples beyond",
    }
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"ops {n} of {raw['planned_ops']} planned  failed {raw['failed']}"
    ]
    for name, m in metrics.items():
        lines.append(f"  {name:48s} {m['value']:<14.6g} {m['unit']:8s} {detail.get(name, '')}")
    lines.append(f"  {'failed_fraction':48s} {failed_fraction:<14.6g} {'ratio':8s} {raw['failed']} of {n} ops")
    if "tracing_overhead" in report:
        lines.append(f"  tracing overhead: untraced/traced ops_per_s = {report['tracing_overhead']['slowdown']:.3f}")
    for err in raw["errors"]:
        lines.append(f"  FAILED {err}")
    print("\n".join(lines))

    kinds = raw["kinds"]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(root),
        "definition": workloads.make(args.workload).describe(),
        "metrics": metrics,
        "failed_fraction": {"value": failed_fraction, "unit": "ratio", "failed": raw["failed"], "attempted": n},
        "latency_tail_percentile": tail_pct,
        "latency_tail_samples_beyond": beyond,
        "latency_samples": n,
        "setup_samples_s": setups,
        "speed_factor": sum(raw["latencies"]) / timed,
        "latency_p50_s_by_kind": {
            k: [kinds.count(k), statistics.median(x for x, kk in zip(lat, kinds) if kk == k)]
            for k in sorted(set(kinds))
        },
        "ops_fields": ["kind", "raw_latency_s", "reference_s"],
        "ops": list(zip(kinds, raw["latencies"], raw["reference_s"])),
        "output_sha256": raw["output_sha256"],
        "errors": raw["errors"],
        **report,
    }
    out_path = Path(args.out) if args.out else out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")

    print(json.dumps({"correct": raw["failed"] == 0, "attempted": n, "failed": raw["failed"], "metrics": metrics}))
    return 0 if raw["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
