"""The benchmark harness runs end to end against this source tree.

`perfbench/run.py --self-check` runs its tiny workload untraced and
traced through the public run path and validates the result schema
against BENCHMARK.json, so a change to a name the harness calls or
patches fails here rather than only when the benchmark is next run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_check():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-check: ok" in proc.stdout.splitlines()
