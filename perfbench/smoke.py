#!/usr/bin/env python3
"""Smoke test for the benchmark: every workload once, at the shortest run.

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json it runs `perfbench/run.py --seconds 1`
with --trace 0 and --trace 1 and checks that the run exits 0, reports
correct outputs, and prints every metric BENCHMARK.json names, with its
unit and a finite value. It also checks that the benchmark refuses to run,
without printing a result, in a directory that holds only BENCHMARK.json
and perfbench/. Exits 1 if any check fails; takes under a minute.
"""
from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}{proc.stdout[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys are {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_result(run(ROOT, workload, trace), expected[trace])
            status = "ok" if not problems else "FAILED"
            print(f"{workload} --trace {trace}: {status}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="smoke-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        workload = spec["workloads"][0]["name"]
        proc = run(bare, workload, 0)
        refused = proc.returncode != 0 and not proc.stdout.strip()
        print(f"without sources: {'refused' if refused else 'FAILED'} "
              f"(exit {proc.returncode})")
        failures += not refused
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            work.rmdir()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
