"""One benchmark process: set up, run timed passes, check outputs, report JSON.

Spawned by ``bench/run.py`` with one BLAS thread and ``src/`` on the path.
``--probe`` stops right after set-up (import of ``cdma_ee.cli`` and the
workload's config files) and reports when that point was reached.  Otherwise
the process runs whole passes of the workload in-process through
``cdma_ee.cli.main``, checks the outputs of the first two passes and prints
one JSON line.  Under ``--trace 1`` untraced passes alternate with passes run
with the layer wrappers installed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_PASSES = 2


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    return parser.parse_args(argv)


def import_program():
    """Import ``cdma_ee.cli`` from the checkout's src/; return it and the import time."""
    started = time.perf_counter()
    import cdma_ee.cli

    import_s = time.perf_counter() - started
    src = (Path.cwd() / "src").resolve()
    if src not in Path(cdma_ee.cli.__file__).resolve().parents:
        raise RuntimeError(f"imported {cdma_ee.cli.__file__}, not the checkout under {src}")
    return cdma_ee.cli, import_s


def run_operation(cli_main, argv: list[str]) -> bool:
    """One CLI call; it fails if it raises or returns non-zero."""
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli_main(argv)
    except (Exception, SystemExit) as exc:  # a failed operation, not a benchmark fault
        print(f"operation {argv[0]} raised {exc!r}", file=sys.stderr)
        code = -1
    if code != 0:
        print(f"operation {' '.join(argv)} failed ({code}):\n{captured.getvalue()}", file=sys.stderr)
    return code == 0


class Passes:
    """Runs numbered passes of a workload and counts its operations."""

    def __init__(self, cli_main, workload, root: Path):
        self.cli_main = cli_main
        self.workload = workload
        self.root = root
        self.attempted = 0
        self.failed = 0
        self.dirs: list[Path] = []

    def run(self) -> tuple[float, float]:
        """One pass; returns its wall time and that time at reference host speed.

        Each operation is timed by ``calibration.timed_call``, which samples
        the host's speed around and during the operation.
        """
        import calibration  # imports NumPy, so not before cli.import_s is timed

        # Every pass writes to the same path, which metadata.json records, and
        # is moved aside afterwards for the determinism check.
        work = self.root / "current"
        wall = scaled = 0.0
        for argv in self.workload.operations(work):
            ok, elapsed, at_reference = calibration.timed_call(
                run_operation, self.cli_main, argv
            )
            wall += elapsed
            scaled += at_reference
            self.attempted += 1
            self.failed += not ok
        kept = self.root / f"p{len(self.dirs)}"
        work.mkdir(parents=True, exist_ok=True)
        work.rename(kept)
        self.dirs.append(kept)
        return wall, scaled


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    cli, import_s = import_program()
    from workloads import prepare

    out = OUT_DIR / args.workload
    workload = prepare(args.workload, args.seed, out / "configs")
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    import calibration

    setup = {"ready": ready, "import_s": import_s, "slowdown": calibration.slowdown()}
    if args.probe:
        print(json.dumps(setup))
        return 0

    import checks
    import tracing

    shutil.rmtree(out / "passes", ignore_errors=True)
    passes = Passes(cli.main, workload, out / "passes")
    # The pass count follows from the first pass so that the run fits the window.
    started = time.perf_counter()
    first = passes.run()
    span = time.perf_counter() - started
    if args.trace:
        # Plain and traced passes alternate, so both see the same machine state.
        count = max(1, int(args.seconds // (2.0 * span)))
        tracer = tracing.Tracer()
        plain, traced = [first], []
        for i in range(count):
            if i:
                plain.append(passes.run())
            with tracer.installed():
                tracer.start_pass()
                traced.append(passes.run())
        tracer.write(out / "trace_spans.csv")
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = _metric(
            statistics.median(s for _, s in traced) - statistics.median(s for _, s in plain), "s"
        )
    else:
        count = max(MIN_PASSES, int(args.seconds // span))
        runs = [first] + [passes.run() for _ in range(count - 1)]
        print(f"pass wall times (s): {[round(w, 4) for w, _ in runs]}", file=sys.stderr)
        print(f"at reference speed (s): {[round(s, 4) for _, s in runs]}", file=sys.stderr)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": _metric(statistics.median(s for _, s in runs), "s"),
            "peak_rss_mib": _metric(rss_mib, "MiB"),
        }

    failures = checks.check_workload(workload, passes.dirs[0], passes.dirs[1], args.seed)
    for failure in failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    if len(failures) > 20:
        print(f"... {len(failures) - 20} more check failures", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": metrics,
        **setup,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
