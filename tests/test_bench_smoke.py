"""The benchmark's smoke check and its trace targets, run with the tests.

`perfbench/smoke.py` runs every benchmark workload at tiny sizes, traced
and untraced, and fails when a run fails its output checks or reports the
wrong metrics. A function the trace wraps that has been renamed or moved
does not fail a run (the tracer reports it as absent and carries on), so
the second test checks every wrap target directly.
"""

import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]


def test_every_trace_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layer_metrics = importlib.import_module("layer_metrics")
    targets = layer_metrics.targets(128) + layer_metrics.step_clock_targets()
    missing = [
        f"{t.module}.{t.attr}"
        for t in targets
        if not callable(getattr(importlib.import_module(t.module), t.attr, None))
    ]
    assert missing == []
