"""Batch command line: Monte Carlo runs, trade-off sweeps, comparisons, debug solves.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import __version__
from .control import ALGORITHMS
from .errors import ConfigurationError, ReceiverUnavailableError
from .harness import (
    PairedVerdict,
    ScenarioConfig,
    config_from_dict,
    emit_results,
    expand_variants,
    load_config_data,
    paired_comparison,
    read_report,
    run_block,
    run_experiment,
    write_csv,
    write_json,
)
from .metrics import rate, utility
from .scenario import RECEIVERS
from .spreading import generate_codes
from .tradeoff import sweep_tradeoff

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdma-ee",
        description="Energy-efficient power control simulator for DS/CDMA uplinks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="config file path or preset name")
    common.add_argument("--seed", type=int, help="override the master seed")
    common.add_argument("--receiver", choices=RECEIVERS, help="override the receiver")

    run = sub.add_parser("run", parents=[common], help="Monte Carlo sweep over user counts")
    run.add_argument("--realizations", type=int, help="override the realization count")

    tradeoff = sub.add_parser("tradeoff", parents=[common], help="EE-SE trade-off power sweeps")

    compare = sub.add_parser("compare", help="paired comparison of two emitted runs")
    compare.add_argument("--a", required=True, help="first run directory")
    compare.add_argument("--b", required=True, help="second run directory")
    compare.add_argument("--metric", default="global_ee", help="metric column to compare")
    compare.add_argument("--out", help="optional CSV file for the verdict table")

    solve = sub.add_parser("solve", parents=[common], help="single-scenario debug dump")
    solve.add_argument("--k", type=int, help="user count (default: first of the sweep)")
    solve.add_argument("--realization", type=int, default=0, help="realization index")
    # Each subcommand takes only the overrides it reads.
    for command in (run, tradeoff):
        command.add_argument("--out", dest="output_dir", help="override the output directory")
    for command in (run, solve):
        command.add_argument("--algorithm", choices=ALGORITHMS, help="override the algorithm")
    return parser


def _say(text: str) -> None:
    """Print ``text``; once stdout's reader has gone, stdout is os.devnull and work goes on."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _overrides(args) -> dict:
    """Config fields set on the command line, by field name."""
    names = (f.name for f in fields(ScenarioConfig))
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _cmd_run(args) -> int:
    overrides = _overrides(args)
    if (workers := os.environ.get("CDMA_EE_WORKERS")) is not None:  # checked like a flag
        overrides["workers"] = workers
    variants = expand_variants(load_config_data(args.config))
    # Every variant's config is checked before any runs, so a bad one writes nothing.
    configs = [(label, config_from_dict(document, overrides)) for label, document in variants]
    for label, config in configs:
        report = run_experiment(config)
        target = Path(config.output_dir)
        if len(variants) > 1:
            target = target / label
        paths = emit_results(report, target)
        _say(f"[{label}] {len(report.rows)} rows -> {paths['raw'].parent}")
        for err in report.errors:
            print(f"[{label}] skipped: {err}", file=sys.stderr)
    return 0


def _cmd_tradeoff(args) -> int:
    config = config_from_dict(load_config_data(args.config), _overrides(args))
    users = config.tradeoff_user_count
    params = config.ee_params()
    out = Path(config.output_dir)
    names = [f"tradeoff_{config.receiver}_d{d:g}.csv" for d in config.interferer_distances]
    if len(set(names)) < len(names):
        raise ConfigurationError("tradeoff.interferer_distances_m must not repeat to 6 digits")
    # Codes and fading get child streams; every curve sees the same fading draws.
    code_stream, fading_stream = np.random.SeedSequence(config.seed).spawn(2)
    codes = generate_codes(config.processing_gain, users, np.random.default_rng(code_stream))
    curves = sweep_tradeoff(
        [(config.interest_distance, *(d,) * (users - 1)) for d in config.interferer_distances],
        codes, params, config.receiver, config.interferer_power, config.sweep_points,
        config.fading, config.fading_draws, config.path_loss_exponent, rng=fading_stream,
    )
    summary, coupled = {}, users > 1
    out.mkdir(parents=True, exist_ok=True)
    for distance, name, curve in zip(config.interferer_distances, names, curves):
        write_csv(
            out / name,
            ["power_w", "mean_se_bit_per_s_per_hz", "mean_ee_bit_per_joule", "mean_sinr"],
            zip(*(values.tolist() for values in (curve.powers, curve.se, curve.ee, curve.sinr))),
        )
        summary[name] = {
            "interferer_distance_m": distance,
            "receiver": curve.receiver,
            "fading_draws": curve.fading_draws,
            "max_ee_power_w": curve.max_ee_power,
            "max_ee_sinr": curve.max_ee_sinr,
            "lambda_gap_bit_per_s_per_hz": curve.lambda_gap,
            "se_monotone": curve.se_monotone,
            "ee_unimodal": curve.ee_unimodal,
            # A single user has no interferers, so no coupling: null, not NaN.
            "coupling": curve.coupling if coupled else None,
            "coupling_reciprocal": curve.coupling_reciprocal if coupled else None,
            # The top of the sweep stands in for the infinite-power SE asymptote.
            "se_reference": "grid top power (asymptotic SE proxy)",
        }
        coupling = f", coupling={curve.coupling:.6g}" if coupled else ""
        _say(f"{name}: lambda={curve.lambda_gap:.6g} bit/s/Hz{coupling}")
    write_json(
        out / "tradeoff_metadata.json",
        {"version": __version__, "seed": config.seed, "curves": summary},
    )
    return 0


def _cmd_compare(args) -> int:
    report_a = read_report(args.a)
    report_b = read_report(args.b)
    verdicts = paired_comparison(report_a, report_b, args.metric)
    for v in verdicts:
        _say(
            f"K={v.k_users}: mean diff {v.mean_diff:.6g} "
            f"[{v.ci_low:.6g}, {v.ci_high:.6g}] -> {v.verdict}"
        )
    if args.out:
        write_csv(args.out, [f.name for f in fields(PairedVerdict)], map(astuple, verdicts))
    return 0


def _cmd_solve(args) -> int:
    config = config_from_dict(load_config_data(args.config), _overrides(args))
    if args.realization < 0:
        raise ConfigurationError(f"--realization must be >= 0, got {args.realization}")
    if args.k is not None and args.k < 1:
        raise ConfigurationError(f"--k must be >= 1, got {args.k}")
    k_users = args.k if args.k is not None else config.user_counts[0]
    params = config.ee_params()
    [(_, _, [scenario], result)] = run_block(config, [k_users], [args.realization])
    if result.failed[0]:
        raise ReceiverUnavailableError(result.failure_reasons[0])
    power, sinr, target, active = (
        result.power[0], result.sinr[0], result.target_sinr[0], result.active[0]
    )
    gap = params.gap()
    rates = rate(sinr, gap, config.bandwidth)
    _say(
        f"K={k_users} receiver={config.receiver} algorithm={config.algorithm} "
        f"rounds={int(result.rounds[0])} converged={bool(result.converged[0])} "
        f"removed={result.removed[0]}"
    )
    header = f"{'user':>4} {'dist_m':>9} {'gain_pow':>12} {'target':>12} {'power_w':>12} {'sinr':>12} {'rate_bps':>12} {'ee_bit_j':>12}"
    _say(header)
    for k in range(k_users):
        ee_k = utility(power[k], sinr[k], params, gap) if active[k] else 0.0
        _say(
            f"{k:>4} {scenario.placement[k]:>9.2f} "
            f"{scenario.channel.gain_power[k]:>12.4e} {target[k]:>12.4e} "
            f"{power[k]:>12.4e} {sinr[k]:>12.4e} {rates[k]:>12.4e} {float(ee_k):>12.4e}"
        )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "tradeoff": _cmd_tradeoff,
        "compare": _cmd_compare,
        "solve": _cmd_solve,
    }
    try:
        return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ReceiverUnavailableError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
