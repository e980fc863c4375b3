"""Self-test of the output checks: clean outputs pass and each planted fault is caught.

    python3 bench/selftest.py

Run from the root of a source checkout; it takes a few seconds.  Every
workload is produced at a small size (two passes, as in a benchmark run),
checked clean, and then checked again with one fault planted at a time:

* a ``global_ee`` nudged by one part in a million in one row of ``raw.csv``;
* every EE-optimal target moved 1% off the optimum inside the control loop;
* a DEC trade-off curve altered at one interferer distance;
* one row dropped from ``raw.csv``.

Exit code 0 means the clean outputs passed and every fault was caught.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CDMA_EE_WORKERS", None)
sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
from worker import OUT_DIR, Passes, import_program  # noqa: E402
from workloads import prepare  # noqa: E402

SEED = 7
SMALL = {
    "mf_mixed": {"user_counts": [2, 3], "document": {"realizations": 6, "control": {"iterations": 100}}},
    "dec_fullload": {"user_counts": [3, 12], "document": {"realizations": 6}},
    "tradeoff_sweep": {"document": {"tradeoff": {"fading_draws": 200, "sweep_points": 60}}},
}


def produce(cli, name: str, root: Path):
    """Two passes of a small workload under ``root``; returns it and its pass dirs."""
    shutil.rmtree(root, ignore_errors=True)
    workload = prepare(name, SEED, root / "configs", SMALL[name])
    passes = Passes(cli.main, workload, root / "passes")
    passes.run()
    passes.run()
    if passes.failed:
        raise RuntimeError(f"{passes.failed} operations of {name} failed")
    return workload, passes.dirs


def edit_both(dirs, relative: str, edit):
    """Apply the same edit to one file of both passes, so determinism still holds."""
    for pass_dir in dirs:
        path = pass_dir / relative
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(edit(lines)))


def nudge_global_ee(lines):
    header = lines[0].rstrip("\n").split(",")
    column = header.index("global_ee_bit_per_joule")
    cells = lines[2].rstrip("\n").split(",")
    cells[column] = repr(float(cells[column]) * (1.0 + 1e-6))
    return lines[:2] + [",".join(cells) + "\n"] + lines[3:]


def alter_curve(lines):
    cells = lines[10].rstrip("\n").split(",")
    cells[2] = repr(float(cells[2]) * (1.0 + 1e-9))
    return lines[:10] + [",".join(cells) + "\n"] + lines[11:]


def drop_row(lines):
    return lines[:3] + lines[4:]


def off_optimum(control):
    """Wrap the solver the control loop calls so every root lands 1% high."""
    original = control.solve_optimal_sinr_batch

    def shifted(*args, **kwargs):
        sinr, *rest = original(*args, **kwargs)
        return (sinr * 1.01, *rest)

    control.solve_optimal_sinr_batch = shifted
    return lambda: setattr(control, "solve_optimal_sinr_batch", original)


def main() -> int:
    cli, _ = import_program()
    import cdma_ee.control

    root = OUT_DIR / "selftest"
    produced = {name: produce(cli, name, root / name) for name in SMALL}
    ok = True
    for name, (workload, dirs) in produced.items():
        failures = checks.check_workload(workload, *dirs, SEED)
        ok &= not failures
        print(f"clean {name}: {'pass' if not failures else failures[:3]}")

    def planted(label, name, expected, edit=None):
        nonlocal ok
        workload, dirs = produced[name]
        copies = [root / "faulty" / d.name for d in dirs]
        shutil.rmtree(root / "faulty", ignore_errors=True)
        for src, dst in zip(dirs, copies):
            shutil.copytree(src, dst)
        if edit:
            edit(copies)
        failures = checks.check_workload(workload, *copies, SEED)
        caught = [f for f in failures if f.startswith(expected)]
        ok &= bool(caught)
        print(f"fault {label}: {'caught: ' + caught[0] if caught else 'MISSED'}")

    planted("global_ee nudged", "mf_mixed", "aggregates",
            lambda d: edit_both(d, "alg1_mf/raw.csv", nudge_global_ee))
    planted("DEC curve altered at 100 m", "tradeoff_sweep", "tradeoff: DEC curve",
            lambda d: edit_both(d, "dec/tradeoff_dec_d100.csv", alter_curve))
    planted("raw row dropped", "dec_fullload", "rows",
            lambda d: edit_both(d, "alg1_dec/raw.csv", drop_row))

    restore = off_optimum(cdma_ee.control)
    try:
        for name in ("mf_mixed", "dec_fullload"):
            produced[name] = produce(cli, name, root / f"{name}_off_optimum")
            planted(f"targets 1% off the optimum ({name})", name, "optimality")
    finally:
        restore()
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
