"""The benchmark's smoke run passes: every workload's tiny ladder runs, and
every job's outcome digest matches ``perfbench/digests.json``.

The digests are the benchmark's byte-identity oracle for reports, so a
change that moves any report fails here.  The run writes only under the
ignored ``.perfbench_work/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_exits_zero():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
