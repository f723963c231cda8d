#!/usr/bin/env python3
"""oxsim benchmark: closed-loop CLI workloads, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 0

--trace 0 runs each pass as `python -m oxsim.cli ...` child processes, one at
a time, and reports the end-to-end metrics. --trace 1 runs the same
invocations in this process through `oxsim.cli.main`, alternating untraced
and traced passes, and reports the per-layer metrics. Human-readable lines
come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
output check passed. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads
from tracing import LAYER_METRICS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# numpy's BLAS starts one thread per core at import; the model never uses
# BLAS, so children get one thread and their CPU time matches wall time.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120.0
WARMUP_VERSIONS = 3

# Speed of a shared machine drifts by up to 2x over tens of seconds, and CPU
# time drifts with it. The benchmark and its children are kept on one CPU,
# and each timed sample is bracketed by a fixed pure-Python loop on that CPU
# and scaled to the speed at which the loop takes REFERENCE_LOOP_S. Unscaled
# medians are printed next to the scaled figures.
REFERENCE_LOOP_S = 0.025
CALIBRATION_ITERATIONS = 200_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "invoke_s_p50": "s",
    "invoke_s_p90": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def calibration_loop() -> float:
    """Seconds taken by a fixed amount of dict and integer work."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(CALIBRATION_ITERATIONS):
        key = i % 997
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


class Clock:
    """Times samples and scales them to reference machine speed."""

    def __init__(self) -> None:
        self._before = calibration_loop()

    def measure(self, fn, *args):
        """Return (fn's result, scaled seconds, raw seconds, scale factor)."""
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        after = calibration_loop()
        factor = 2.0 * REFERENCE_LOOP_S / (self._before + after)
        self._before = after
        return result, raw * factor, raw, factor


@dataclass
class PassResult:
    wall_s: float = 0.0
    raw_s: float = 0.0
    points: int = 0
    digest: str = ""
    invoke_s: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    simulated: dict[str, float] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SOURCE_DATE_EPOCH", None)
    return env


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[float, int]:
    """Run `python -m oxsim.cli argv`; return (peak RSS MB, exit code).

    os.wait4 gives this child's own rusage; getrusage(RUSAGE_CHILDREN)
    would carry the largest RSS of any earlier child into later readings.
    """
    with open(log, "wb") as out:
        proc = subprocess.Popen([sys.executable, "-m", "oxsim.cli", *argv], cwd=cwd,
                                env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0, proc.returncode


def run_version(clock: Clock, work: Path, tally: Tally) -> tuple[float, float]:
    """Scaled and raw seconds of one `oxsim --version` process."""
    log = work / "version.log"
    (_, code), wall, raw, _ = clock.measure(spawn, ["--version"], work, log)
    tally.attempted += 1
    if code != 0 or not log.read_text().startswith("oxsim "):
        tally.fail(f"oxsim --version exited {code}: {log.read_text()[-300:]}")
    return wall, raw


def check_pass(ops: list[workloads.Op], tally: Tally, result: PassResult) -> None:
    """Run each op's output check; fold points, digest and simulated figures in."""
    digest = hashlib.sha256()
    for op in ops:
        try:
            blobs = [path.read_bytes() for path in op.outputs]
            outcome = op.check(blobs)
        except (OSError, KeyError, TypeError, ValueError, workloads.CheckError) as exc:
            tally.fail(f"oxsim {op.argv[0]}: output check failed: {exc!r}")
            continue
        for blob in blobs:
            digest.update(hashlib.sha256(blob).digest())
        result.points += outcome.points
        result.simulated.update(outcome.simulated)
    result.digest = digest.hexdigest()


def subprocess_pass(clock: Clock, ops: list[workloads.Op], work: Path,
                    tally: Tally) -> PassResult:
    result = PassResult()
    log = work / "op.log"
    for op in ops:
        (rss, code), wall, raw, _ = clock.measure(spawn, op.argv, work, log)
        tally.attempted += 1
        result.wall_s += wall
        result.raw_s += raw
        result.invoke_s.append(wall)
        result.rss_mb.append(rss)
        if code != 0:
            tally.fail(f"oxsim {op.argv[0]} exited {code}: {log.read_text()[-300:]}")
    check_pass(ops, tally, result)
    return result


def inprocess_pass(clock: Clock, ops: list[workloads.Op], tally: Tally,
                   main) -> tuple[PassResult, float]:
    """One pass through `main` in this process; also returns its scale factor."""
    def run_all() -> list[tuple[int, str]]:
        outcomes = []
        for op in ops:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = main(op.argv)
                except SystemExit as exc:
                    code = exc.code
            outcomes.append((code, sink.getvalue()))
        return outcomes

    outcomes, wall, raw, factor = clock.measure(run_all)
    result = PassResult(wall_s=wall, raw_s=raw)
    for op, (code, text) in zip(ops, outcomes):
        tally.attempted += 1
        if code != 0:
            tally.fail(f"oxsim {op.argv[0]} returned {code}: {text[-300:]}")
    check_pass(ops, tally, result)
    return result, factor


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-th percentile (0..100) of at least one value."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)"
    return out.stdout.strip()


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, so the calibration
    loop measures the speed of the CPU the children run on."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None
    return cpu


def environment(args, cpu: int | None) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "child_blas_env": BLAS_ENV,
        "machine": platform.machine(),
        "cpu": cpu,
        "reference_loop_s": REFERENCE_LOOP_S,
        "note": "shared machine: the benchmark keeps itself and its children on "
                "one CPU, but that CPU is not reserved and frequency control is "
                "not available; host times are medians over interleaved passes, "
                "scaled to reference speed",
    }


def measure_end_to_end(ops, work, seconds, tally):
    """Interleave one `--version` start-up with each pass until time is up."""
    clock = Clock()
    setups = [run_version(clock, work, tally) for _ in range(WARMUP_VERSIONS)][1:]
    reference = subprocess_pass(clock, ops, work, tally)  # warms caches; not timed
    passes: list[PassResult] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        setups.append(run_version(clock, work, tally))
        passes.append(subprocess_pass(clock, ops, work, tally))
    invokes = [t for p in passes for t in p.invoke_s]
    metrics = {
        "setup_s": statistics.median(wall for wall, _ in setups),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "points_per_s": statistics.median(p.points / p.wall_s for p in passes),
        "invoke_s_p50": percentile(invokes, 50),
        "invoke_s_p90": percentile(invokes, 90),
        "peak_rss_mb": max(r for p in passes for r in p.rss_mb),
    }
    samples = {"setup_s": len(setups), "wall_s": len(passes), "points_per_s": len(passes),
               "invoke_s_p50": len(invokes), "invoke_s_p90": len(invokes),
               "peak_rss_mb": len(invokes)}
    raw = {"setup_s": statistics.median(r for _, r in setups),
           "wall_s": statistics.median(p.raw_s for p in passes)}
    return metrics, samples, raw, reference, passes


def measure_per_layer(ops, work, seconds, tally):
    """Alternate untraced and traced in-process passes until time is up."""
    sys.path.insert(0, str(SRC))
    os.environ.update(BLAS_ENV)
    from oxsim import cli

    clock = Clock()
    startups = [run_version(clock, work, tally)
                for _ in range(WARMUP_VERSIONS + 2)][1:]
    reference, _ = inprocess_pass(clock, ops, tally, cli.main)  # warms caches; not timed
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    per_pass: list[dict[str, float]] = []

    def untraced_pass() -> None:
        untraced.append(inprocess_pass(clock, ops, tally, cli.main)[0])

    def traced_pass() -> None:
        tracer = Tracer()
        with tracer.installed():
            result, factor = inprocess_pass(clock, ops, tally,
                                            tracer.wrap("cli.main", cli.main))
        traced.append(result)
        per_pass.append({name: value * factor if LAYER_METRICS[name] in ("s", "us")
                         else value
                         for name, value in layer_metrics(tracer.spans).items()})

    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        # Alternate which side runs first, so neither always follows the other.
        pair = (untraced_pass, traced_pass) if len(traced) % 2 == 0 else (
            traced_pass, untraced_pass)
        for run_one in pair:
            run_one()
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    plain = statistics.median(p.wall_s for p in untraced)
    metrics["cli.startup_s"] = statistics.median(wall for wall, _ in startups) * len(ops)
    metrics["trace.wall_s"] = plain
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(p.wall_s for p in traced) / plain - 1.0)
    samples = {name: len(per_pass) for name in metrics}
    samples["cli.startup_s"] = len(startups)
    raw = {"trace.wall_s": statistics.median(p.raw_s for p in untraced)}
    return metrics, samples, raw, reference, untraced + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oxsim" / "cli.py").is_file():
        print(f"perfbench: no oxsim sources at {SRC}; run from the root of an "
              f"oxsim checkout", file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        ops = workloads.build(args.workload, args.seed, work / "inputs", work / "outputs")
        tally = Tally()
        if args.trace:
            metrics, samples, raw, reference, passes = measure_per_layer(
                ops, work, args.seconds, tally)
            units = LAYER_METRICS
        else:
            metrics, samples, raw, reference, passes = measure_end_to_end(
                ops, work, args.seconds, tally)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    differing = sum(1 for p in passes if p.digest != reference.digest)
    if differing:
        tally.fail(f"{differing} of {len(passes)} passes wrote outputs that differ "
                   f"from the first pass")
    for name, value in metrics.items():
        if not math.isfinite(value):
            tally.fail(f"metric {name} is not finite: {value}")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(args, cpu), sort_keys=True))
    print(f"outputs sha256={reference.digest} ({len(passes) + 1} passes compared)")
    for name, value in reference.simulated.items():
        print(f"  simulated {name:<30} {value:>14.6g}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]:<6} n={samples[name]}")
    for name, value in raw.items():
        print(f"  unscaled {name:<31} {value:>14.6g} {units[name]:<6} "
              f"(host seconds before scaling to reference speed)")
    print(f"  failed_frac {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6g}")
    for message in tally.errors:
        print(f"  FAILED: {message}")

    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
