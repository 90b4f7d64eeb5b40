"""One benchmark child process: set up, run one study, check it, report.

``run.py`` starts one fresh child per study, so every study pays the same
interpreter start, imports and cold caches that a user's run pays:

    python3 perfbench/child.py --workload W --seed N --role reference
    python3 perfbench/child.py --workload W --seed N --role measure [--trace]

The set-up time is the child's CPU time from its start to coaglab imported
and the inputs built, rescaled to a nominal host speed by a compile job timed
right after it (``setup_calibrate``).
A reference child prints the workload's oracle data.  A measuring child reads
that data as JSON on stdin, runs the study once, timing its CPU and wall time
(with spans when ``--trace`` is given), reads the peak RSS, times the
workload's calibration job, checks the result and prints one JSON report
line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Calibration rounds run right after the study.  The host's speed can flip
# within a tenth of a second; their mean follows the speed the study ran at.
# (Rounds before the study would raise the peak RSS read after it.)
CALIB_ROUNDS = 8
# Typical CPU seconds of ``setup_calibrate`` on the host the benchmark was
# defined on (a 2-vCPU Intel Xeon virtual machine), so that ``setup_s`` reads
# as set-up seconds there.
SETUP_CALIB_NOMINAL_S = 0.070
SETUP_CALIB_SOURCE = "\n".join(
    f"def f{i}(x, y=({i}, 'k{i}')):\n"
    f"    out = [x * {i} + v for v in range(y[0]) if v % 3]\n"
    f"    return {{'n': len(out), 'key': y[1], 'sum': sum(out)}}\n"
    for i in range(40)
)


def setup_calibrate() -> float:
    """CPU time of compiling a fixed module source, work of the kind an
    import does; the host's speed moves it as it moves the set-up."""
    t0 = time.process_time()
    for _ in range(15):
        compile(SETUP_CALIB_SOURCE, "<setup-calibration>", "exec")
    return time.process_time() - t0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("reference", "measure"), required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import coaglab

    if Path(coaglab.__file__).resolve().parent != (SRC / "coaglab").resolve():
        print(f"coaglab imported from {coaglab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import numpy
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        inp = wl.inputs(args.seed, workdir)
        setup_cpu_s = time.process_time()
        setup_s = setup_cpu_s * SETUP_CALIB_NOMINAL_S / setup_calibrate()
        if args.role == "reference":
            report = {"setup_s": setup_s, "setup_cpu_s": setup_cpu_s, "numpy": numpy.__version__}
            report["ref"] = wl.reference(inp)
            print(json.dumps(report))
            return 0
        ref = json.loads(sys.stdin.read())
        tracer = tracing.install() if args.trace else None
        report = {"setup_s": setup_s, "setup_cpu_s": setup_cpu_s, "traced": args.trace}
        try:
            if tracer is not None:
                tracer.recording = True
            t0, c0 = time.perf_counter(), time.process_time()
            raw = wl.study(inp)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if tracer is not None:
                tracer.recording = False
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            calib = [wl.calibrate() for _ in range(CALIB_ROUNDS)]
            result = wl.summarize(inp, raw)
            checks = [("study_completed", True, "")]
            checks += [(name, bool(ok), detail) for name, ok, detail in wl.checks(inp, result, ref)]
            counts = wl.counts(result, ref)
        except Exception:  # reported as a failed check, not a crash of the run
            traceback.print_exc()
            report["checks"] = [["study_completed", False, traceback.format_exc(limit=3)]]
            print(json.dumps(report))
            return 0
        report.update(
            wall_s=wall,
            cpu_s=cpu,
            calib_s=statistics.fmean(calib),
            peak_rss_mb=peak_rss_mb,
            checks=checks,
            counts=counts,
        )
        if tracer is not None:
            report["layers"] = tracing.layer_metrics(tracer, counts)
            trace_dir = OUT / "trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.dump(trace_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}.json")
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
