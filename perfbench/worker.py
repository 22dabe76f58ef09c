"""One benchmark process: set up a workload, then run its ops in a closed loop.

Started by run.py with the repository's ``src`` on PYTHONPATH.  Prints
``ready <reference_s> <calibration_s>`` once set-up (imports, seeded inputs,
declared warm-up) is done, so the parent can time set-up from process start;
then runs the ops one after another, times each, checks each outside the
timed region, and prints one JSON line with the raw results.
``--setup-only`` exits after ``ready``; ``--trace`` installs the tracer.
"""

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time

import calibrate

# Stop early rather than overrun the caller's 180 s limit on a very slow tree.
HARD_LIMIT_S = 140.0
# Time the machine-speed reference loop whenever this much wall time passed.
# Each op is scaled by the median of the two samples before it and the two
# after it: close enough in time to follow the machine, enough of them to
# damp the noise of a single sample.
CALIBRATE_EVERY_S = 0.1
CALIBRATE_LOOPS = 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt", action="store_true", help="corrupt the first op's output")
    args = ap.parse_args(argv)

    # Set-up is timed by the parent from process start; the reference loop
    # timed here just before and after it gives the set-up's machine speed.
    t0 = time.perf_counter()
    ref_start = calibrate.sample()
    calibration_s = time.perf_counter() - t0
    import workloads

    wall_start = time.monotonic()
    wl = workloads.make(args.workload)
    rounds = max(1, math.ceil(args.seconds / wl.nominal_round_s))
    ops = wl.make_ops(random.Random(args.seed), rounds)
    wl.warm_up()
    t0 = time.perf_counter()
    ref_end = calibrate.sample()
    calibration_s += time.perf_counter() - t0
    print(f"ready {(ref_start + ref_end) / 2} {calibration_s}", flush=True)
    if args.setup_only:
        return 0

    tr = None
    if args.trace:
        import tracer

        tr = tracer.Tracer().install()

    latencies, errors, kf_busy = [], [], []
    failed = 0
    digest = hashlib.sha256()
    samples = [calibrate.sample(CALIBRATE_LOOPS)]
    sample_before = []  # per op: index of the last sample taken before it
    last_calibration = time.monotonic()
    for i, op in enumerate(ops):
        err = None
        sample_before.append(len(samples) - 1)
        wl.prepare(op)
        kf_before = tr.busy("symfunc.kostka_foulkes") if tr else 0.0
        t0 = time.perf_counter()
        try:
            out = tr.run_op(i, wl.run, op) if tr else wl.run(op)
        except Exception as exc:  # a failed op is counted, never fatal
            err = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if tr:
            kf_busy.append(tr.busy("symfunc.kostka_foulkes") - kf_before)
        if err is None:
            for chunk in wl.digest_chunks(out):
                digest.update(chunk)
            if args.corrupt and i == 0:
                out = wl.corrupt(out)
            try:
                err = wl.check(op, out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {i} {op.kind}: {err}"[:500])
        if time.monotonic() - last_calibration >= CALIBRATE_EVERY_S:
            samples.append(calibrate.sample(CALIBRATE_LOOPS))
            last_calibration = time.monotonic()
        if time.monotonic() - wall_start > HARD_LIMIT_S:
            break
    samples += [calibrate.sample(CALIBRATE_LOOPS) for _ in range(2)]

    result = {
        "latencies": latencies,
        "reference_s": [statistics.median(samples[max(0, b - 1) : b + 3]) for b in sample_before],
        "kinds": [op.kind for op in ops[: len(latencies)]],
        "planned_ops": len(ops),
        "failed": failed,
        "errors": errors,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "output_sha256": digest.hexdigest(),
    }
    if tr:
        result.update(trace=tr.summary(), spans=tr.spans, spans_dropped=tr.dropped, kf_busy=kf_busy)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
