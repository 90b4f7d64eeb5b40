"""coaglab benchmark: one workload, timed or traced, checked against oracles.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gel_fft --seed 1 --seconds 20 --trace 0

The workloads and metrics are declared in ``BENCHMARK.json``; why each
workload exists and which layer metric should move which end-to-end metric is
in ``PLAN`` below; ``perfbench/README.md`` defines each metric.

Load shape: closed loop, one client.  After one reference child (oracle data,
also a warm-up), fresh single-process children run the study one after the
other until ``--seconds`` have passed, with at least three samples.  A timed
run (``--trace 0``) reports medians of the end-to-end metrics: the study's
CPU time relative to a calibration job of the same kind, the set-up CPU time
rescaled to a nominal host speed, and the peak RSS (see the README for why
CPU time and the rescaling).  A traced
run (``--trace 1``) alternates untraced and traced children and reports
medians of the per-layer metrics from the traced ones, plus the tracing
overhead.

Every child checks its result; the deterministic counts must agree across the
children of a run and with every earlier run of the same sources and seed.
The last line of stdout is the JSON result; the full record, with the
environment, per-child samples and every failed check, is written under
``.bench_out/results``, and traced spans under ``.bench_out/trace``.
Exit codes: 0 correct, 1 a check failed, 2 the sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = ROOT / ".bench_out"
DEADLINE_S = 170.0  # every child is stopped before the run reaches this age
MIN_SAMPLES = 3
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COUNT_UNITS = ("count", "B")  # per-layer metrics that must repeat exactly

# Per workload: the layer metrics expected to move each end-to-end metric, and
# the layers on which a change elsewhere should show no change at all.
PLAN = {
    "gel_fft": {
        "moves": {
            "solve_time_rel": [
                "kinetics.fft_rhs_calls",
                "kinetics.fft_rhs_ms",
                "kinetics.rhs_overhead_ratio",
                "kinetics.integrate_self_s",
                "kinetics.rhs_bytes_computed",
            ],
            "peak_rss_mb": ["kinetics.fft_cells"],
        },
        "no_change": ["kinetics pair engine", "cli", "particles", "limits", "measures", "exact"],
    },
    "mixed_pairs": {
        "moves": {
            "solve_time_rel": [
                "kinetics.pair_rhs_calls",
                "kinetics.pair_rhs_ms",
                "kinetics.build_s",
                "kinetics.reachable_s",
                "kinetics.integrate_self_s",
                "kinetics.rhs_bytes_computed",
                "cli.self_s",
                "cli.bytes_written",
            ],
            "peak_rss_mb": ["kinetics.pairs", "kinetics.species"],
        },
        "no_change": ["kinetics FFT engine", "particles", "limits", "measures", "exact"],
    },
    "stochastic": {
        "moves": {
            "solve_time_rel": [
                "particles.events_per_s",
                "particles.draws_per_s",
                "particles.state_build_s",
                "limits.gw_trees_per_s",
            ],
            "peak_rss_mb": ["particles.state_build_s"],
        },
        "no_change": ["kinetics", "cli", "measures", "exact", "genfun"],
    },
    "exact_limit": {
        "moves": {
            "solve_time_rel": [
                "limits.series_s",
                "limits.pmf_series_s",
                "measures.series_mul_calls",
                "measures.series_mul_s",
                "measures.convolution_power_s",
                "exact.entries_per_s",
                "genfun.invert_iters",
                "genfun.invert_s",
            ],
        },
        "no_change": ["kinetics", "cli", "particles"],
    },
}


def _spawn(args, role: str, traced: bool, stdin: str, deadline: float):
    """Run one child to completion; its last stdout line as JSON, or None."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--role", role] + (["--trace"] if traced else [])
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.Popen(
        cmd,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
    )
    try:
        out, _ = proc.communicate(stdin, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{role} child stopped at the run deadline", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{role} child exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _source_hash() -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.rglob("*.py"))
    for path in files + [ROOT / "BENCHMARK.json"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _environment(args, numpy_version, source_hash: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "source_sha256": source_hash,
        "seed": args.seed,
        "child_env": CHILD_ENV,
        "schedule": "one workload at a time; fresh single-process children run one after "
        "the other (closed loop, one client)",
    }


def _check_counts(children, record_path: Path) -> list:
    """Deterministic counts must agree across children and with earlier runs."""
    seen: dict = {}
    differ = set()
    for child in children:
        for key, value in {**child["counts"], **child["layer_counts"]}.items():
            if seen.setdefault(key, value) != value:
                differ.add(key)
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    drift = sorted(k for k in seen.keys() & record.keys() if record[k] != seen[k])
    record.update(seen)
    record_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    tmp.replace(record_path)
    return [
        ["counts_repeat_in_run", not differ, f"{len(seen)} counts; differing: {sorted(differ)}"],
        ["counts_repeat_across_runs", not drift, f"differing from the stored record: {drift}"],
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLAN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "coaglab" / "__init__.py").is_file():
        print(f"coaglab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    start = time.monotonic()
    deadline = start + DEADLINE_S
    ref = _spawn(args, "reference", False, "", deadline)
    children: list[dict] = []
    lost = 0  # children that crashed or were stopped
    setups = [ref["setup_s"]] if ref else []
    measure_start = time.monotonic()
    while ref is not None and time.monotonic() < deadline - 5.0:
        plain = sum(not c["traced"] for c in children)
        traced = len(children) - plain
        enough = min(plain, traced) >= 2 if args.trace else plain >= MIN_SAMPLES
        if enough and time.monotonic() - measure_start >= args.seconds:
            break
        rep = _spawn(args, "measure", bool(args.trace) and traced < plain, json.dumps(ref["ref"]), deadline)
        if rep is None:
            lost += 1
            break
        children.append(rep)
        setups.append(rep["setup_s"])

    checks = [["reference_child", ref is not None, ""], ["children_completed", not lost, ""]]
    checks += [c for child in children for c in child["checks"]]
    good = [c for c in children if "wall_s" in c]
    checks.append(["enough_samples", len(good) >= 2, f"{len(good)} measured children"])
    for child in good:
        child["layer_counts"] = {
            k: v for k, v in child.get("layers", {}).items() if units.get(k) in COUNT_UNITS
        }
    source_hash = _source_hash()
    counts_path = OUT / "counts" / source_hash[:16] / f"{args.workload}-seed{args.seed}.json"
    if good:
        checks += _check_counts(good, counts_path)

    plain = [c for c in good if not c["traced"]]
    traced = [c for c in good if c["traced"]]
    values: dict[str, float] = {}
    if args.trace and plain and traced:
        for name in units.keys() & traced[0]["layers"].keys():
            pick = statistics.median_low if units[name] in COUNT_UNITS else statistics.median
            values[name] = pick(c["layers"][name] for c in traced)
        untraced = statistics.median(c["cpu_s"] for c in plain)
        values["trace.overhead_frac"] = statistics.median(c["cpu_s"] for c in traced) / untraced - 1.0
    elif not args.trace and plain:
        values["solve_time_rel"] = statistics.median(c["cpu_s"] / c["calib_s"] for c in plain)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = statistics.median(c["peak_rss_mb"] for c in plain)
    missing = sorted(set(units) - set(values))
    checks.append(["all_metrics_measured", not missing, f"missing: {missing}"])

    failed = [c for c in checks if not c[1]]
    correct = not failed
    result = {
        "correct": correct,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }
    record = {
        "workload": args.workload,
        "why": next((w["why"] for w in bench["workloads"] if w["name"] == args.workload), ""),
        "plan": PLAN[args.workload],
        "environment": _environment(args, ref.get("numpy") if ref else None, source_hash),
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {"measured": len(plain), "traced": len(traced), "setup": len(setups)},
        "medians": (
            {k: statistics.median(c[k] for c in plain) for k in ("wall_s", "cpu_s", "calib_s")}
            if plain
            else {}
        ),
        "children": [{k: v for k, v in c.items() if k != "checks"} for c in good],
        "failed_checks": failed,
        "result": result,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    for name, ok, detail in failed:
        print(f"FAILED {name}: {detail}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
