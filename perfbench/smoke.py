#!/usr/bin/env python3
"""Fast smoke check of the benchmark, at tiny sizes and with no timing bound.

    python3 perfbench/smoke.py

Checks BENCHMARK.json against the benchmark's contract, runs every
workload with --tiny at --trace 0 and 1, and checks that each run's last
line has the result schema, reports exactly the metrics BENCHMARK.json
names with their units, and passes its output checks. It checks that the
tracer reports a missing wrap target as absent. Finally it runs the
benchmark in a directory holding only BENCHMARK.json and the benchmark's
files, where it must fail without printing a result. Exits 1 on the first
problem found, 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
RUN_TIMEOUT_S = 180


def fail(message: str) -> None:
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def check_spec(spec: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    if not (1 <= len(spec["paths"]) <= 16) or not all(PATH.match(p) and ".." not in p for p in spec["paths"]):
        fail(f"bad paths {spec['paths']}")
    if not (1 <= len(spec["command"]) <= 32) or any(len(a) > 200 or a.startswith("/") for a in spec["command"]):
        fail(f"bad command {spec['command']}")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        fail(f"bad run_seconds {spec['run_seconds']}")
    if not (2 <= len(spec["workloads"]) <= 8):
        fail("need 2 to 8 workloads")
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]) or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"bad workload {w}")
        names.append(w["name"])
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}), ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            if set(m) != keys or not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
                fail(f"bad {group} metric {m}")
            if m["better"] not in ("lower", "higher"):
                fail(f"bad direction in {m}")
            if group == "end_to_end" and not (0 < m["bound"] <= 0.25):
                fail(f"bound out of range in {m}")
            names.append(m["name"])
    if not (1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128):
        fail("metric counts out of range")
    if len(names) != len(set(names)):
        fail("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("end_to_end needs setup_s in s, lower is better")
    if setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s should have the largest bound")


def last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        fail("no output")
    return json.loads(lines[-1])


def check_run(spec: dict, workload: str, trace: int) -> None:
    command = spec["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail(f"{workload} trace {trace} exited {done.returncode}: {done.stderr[-2000:]}")
    result = last_json(done.stdout)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not (type(result["attempted"]) is int and result["attempted"] >= 1 and type(result["failed"]) is int):
        fail(f"{workload}: attempted/failed must be whole numbers, attempted >= 1")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{workload} trace {trace}: output checks failed\n{done.stdout[-3000:]}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(expected):
        fail(f"{workload} trace {trace}: metrics differ: missing {sorted(set(expected) - set(got))}, "
             f"extra {sorted(set(got) - set(expected))}")
    for name, entry in got.items():
        if set(entry) != {"value", "unit"} or entry["unit"] != expected[name]:
            fail(f"{workload}: metric {name} is {entry}, unit should be {expected[name]}")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{workload}: metric {name} value {value!r} is not a finite number")
        if not trace and value <= 0:
            fail(f"{workload}: end-to-end metric {name} is {value}, must never be 0")
    print(f"smoke: ok {workload} trace {trace} ({len(got)} metrics, {result['attempted']} attempted)")


def check_absent_targets() -> None:
    """A wrap target that no longer exists is reported, not fatal."""
    from program import import_program
    from tracer import Target, Tracer

    import_program()
    tracer = Tracer()
    tracer.install([
        Target("forgenet.layers", "no_such_function", "layers.gone"),
        Target("forgenet.no_such_module", "f", "gone.f"),
        Target("forgenet.layers", "relu_forward", "layers.relu_forward"),
    ])
    try:
        import forgenet.layers
        import numpy

        forgenet.layers.relu_forward(numpy.zeros(3))
    finally:
        tracer.uninstall()
    if tracer.absent != ["forgenet.layers.no_such_function", "forgenet.no_such_module.f"]:
        fail(f"absent targets reported as {tracer.absent}")
    if [span[0] for span in tracer.spans] != ["layers.relu_forward"]:
        fail(f"present target not traced: {tracer.spans}")
    print("smoke: ok absent wrap targets reported, present ones traced")


def check_bare_directory(spec: dict) -> None:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        command = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                     "--seconds", "1", "--trace", "0"]
        done = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        fail(f"benchmark without sources exited {done.returncode} with output {done.stdout[-500:]!r}")
    print(f"smoke: ok bare directory exits {done.returncode} without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from run import WORKLOADS

    names = [w["name"] for w in spec["workloads"]]
    if set(names) != set(WORKLOADS):
        fail(f"BENCHMARK.json workloads {names} != run.py workloads {sorted(WORKLOADS)}")
    for workload in names:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_absent_targets()
    check_bare_directory(spec)
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
