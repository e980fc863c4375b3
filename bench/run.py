"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload mf_mixed --seed 20260810 --seconds 20 --trace 0

Run from the root of a source checkout.  This process imports nothing of the
program.  It spawns SETUP_SAMPLES fresh interpreters of ``bench/worker.py``;
each one imports ``cdma_ee.cli`` from ``src/`` and prepares the workload's
configs, and the time from its spawn to that point, scaled to reference host
speed by ``calibration.py``, is one set-up sample.  The last one goes on to
run and check the workload.  The last line printed is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer metrics
under ``--trace 1``.  Exit code 0 means that line was printed; 2 means the
arguments or the checkout are unusable; 1 means the worker broke.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("mf_mixed", "dec_fullload", "tradeoff_sweep")
DEFAULT_SEED = 20260810
SETUP_SAMPLES = 7
# A run must end within 180 s; the first one in a checkout also compiles bytecode.
WORKER_TIMEOUT_S = 170.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def worker_env(root: Path) -> dict:
    """Environment of every spawned interpreter: serial, one BLAS thread, src/ first."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("CDMA_EE_WORKERS", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv: list[str], root: Path, deadline: float) -> tuple[float, dict]:
    """Run one worker to its end; return its spawn time and its JSON result."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *argv],
        cwd=root,
        env=worker_env(root),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {argv} did not finish in time")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {argv} exited with {proc.returncode}")
    return spawned, json.loads(lines[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "cdma_ee" / "cli.py").is_file():
        print(f"no program source under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup, imports = [], []

    def record(slowdown_before: float, spawned: float, report: dict):
        # Spawn to ready, scaled to reference speed by the calibration kernel
        # run just before the spawn here and just after set-up in the worker.
        slowdown = 0.5 * (slowdown_before + report.pop("slowdown"))
        setup.append((report.pop("ready") - spawned) / slowdown)
        imports.append(report.pop("import_s"))

    try:
        for _ in range(SETUP_SAMPLES - 1):
            slowdown_before = calibration.slowdown()
            record(slowdown_before, *_spawn([*common, "--probe"], root, deadline))
        slowdown_before = calibration.slowdown()
        spawned, result = _spawn(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], root, deadline
        )
        record(slowdown_before, spawned, result)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if args.trace:
        metrics["cli.import_s"] = {"value": statistics.median(imports), "unit": "s"}
    else:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
