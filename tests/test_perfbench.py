"""The benchmark's own self-test, run on a copy of the sources.

``perfbench/selftest.py`` runs each workload's study once and requires every
oracle check to pass on the real result and to trip on a spoiled one.  It
writes its work files under the root it runs from, so it runs on a copy of
``src/`` and ``perfbench/`` in a temporary directory, not in the checkout.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes(tmp_path):
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "selftest: every check passes and trips"
