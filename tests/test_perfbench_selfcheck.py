"""The benchmark harness runs end to end against this source tree.

`perfbench/run.py --self-check` runs its tiny workload untraced and
traced through the public run path and validates the result schema
against BENCHMARK.json, so a change to a name the harness calls or
patches fails here rather than only when the benchmark is next run. A
traced run must also reach every name the tracer wraps: a call that
moves away from a patched name would leave its span silently at 0.
"""

import json
import os
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


def test_every_span_is_reached(tmp_path, monkeypatch):
    """Each name the tracer wraps is called in a traced run of the tiny
    workload, so no per-layer metric reads 0 because its call moved.

    `admm.element_dissection_order` wraps a stub that nothing calls; it
    stays only until the benchmark drops its span.
    """
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans
    import workloads

    class NameRecorder(spans.Tracer):
        def __init__(self):
            super().__init__()
            self.names = []

        def patch(self, owner, attr, name):
            self.names.append(name)

    recorder = NameRecorder()
    recorder.install()

    mesh, config = workloads.write_inputs(
        workloads.WORKLOADS[workloads.SELF_CHECK], 0, tmp_path
    )
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"),
         "--mesh", str(mesh), "--config", str(config),
         "--out", str(tmp_path / "out"), "--result", str(result), "--trace"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    calls = json.loads(result.read_text(encoding="utf-8"))["spans"]
    unreached = [
        name for name in recorder.names
        if name != "admm.element_dissection_order"
        and calls.get(name, {}).get("calls", 0) == 0
    ]
    assert recorder.names and not unreached
