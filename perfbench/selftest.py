"""Self-test of the benchmark's oracle checks: none of them may be vacuous.

For each workload this runs the study once in-process at seed 0, requires
every check to pass on the real result, then spoils a copy of the result with
each check's perturbation and requires that check to fail.  Run from the root
of a checkout (about 20 s for all four workloads):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    problems = 0
    for name, wl in WORKLOADS.items():
        workdir = ROOT / ".bench_out" / "work" / f"selftest-{name}"
        try:
            inp = wl.inputs(0, workdir)
            ref = json.loads(json.dumps(wl.reference(inp)))
            result = wl.summarize(inp, wl.study(inp))
            verdicts = {check: (ok, detail) for check, ok, detail in wl.checks(inp, result, ref)}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if set(verdicts) != set(wl.perturb):
            print(f"{name}: checks {sorted(verdicts)} but perturbations {sorted(wl.perturb)}")
            problems += 1
        for check, (ok, detail) in verdicts.items():
            if not ok:
                print(f"{name}.{check}: FAILS on the real result ({detail})")
                problems += 1
                continue
            spoiled = wl.perturb[check](copy.deepcopy(result))
            tripped = {c: d for c, good, d in wl.checks(inp, spoiled, ref) if not good}
            if check in tripped:
                print(f"{name}.{check}: passes ({detail}); trips when spoiled ({tripped[check]})")
            else:
                print(f"{name}.{check}: VACUOUS, still passes on a spoiled result")
                problems += 1
    print("selftest:", "FAILED" if problems else "every check passes and trips")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
