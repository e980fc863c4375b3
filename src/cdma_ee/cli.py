"""Batch command line: Monte Carlo runs, trade-off sweeps, comparisons, debug solves.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channel import FixedGeometry, draw_placement
from .control import ALGORITHMS, run_control_batch
from .errors import (
    ConfigurationError,
    NoInteriorMaximumError,
    NotConvergedError,
    ReceiverUnavailableError,
)
from .harness import (
    config_from_dict,
    emit_results,
    expand_variants,
    load_config_data,
    paired_comparison,
    read_report,
    run_experiment,
)
from .metrics import rate, utility
from .scenario import RECEIVERS, draw_scenario
from .seeding import realization_seed
from .spreading import decorrelator_load_error, generate_codes
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
    common.add_argument("--out", help="override the output directory")
    common.add_argument("--receiver", choices=RECEIVERS, help="override the receiver")
    common.add_argument("--algorithm", choices=ALGORITHMS, help="override the algorithm")

    run = sub.add_parser("run", parents=[common], help="Monte Carlo sweep over user counts")
    run.add_argument("--realizations", type=int, help="override the realization count")

    sub.add_parser("tradeoff", parents=[common], help="EE-SE trade-off power sweeps")

    compare = sub.add_parser("compare", help="paired comparison of two emitted runs")
    compare.add_argument("--a", required=True, help="first run directory")
    compare.add_argument("--b", required=True, help="second run directory")
    compare.add_argument("--metric", default="global_ee", help="metric column to compare")
    compare.add_argument("--out", help="optional CSV file for the verdict table")

    solve = sub.add_parser("solve", parents=[common], help="single-scenario debug dump")
    solve.add_argument("--k", type=int, help="user count (default: first of the sweep)")
    solve.add_argument("--realization", type=int, default=0, help="realization index")
    return parser


def _apply_overrides(data: dict, args) -> dict:
    data = dict(data)
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    if getattr(args, "realizations", None) is not None:
        data["realizations"] = args.realizations
    if getattr(args, "out", None) is not None:
        data["output_dir"] = args.out
    system = dict(data.get("system", {}))
    if getattr(args, "receiver", None) is not None:
        system["receiver"] = args.receiver
    if getattr(args, "algorithm", None) is not None:
        system["algorithm"] = args.algorithm
    if system:
        data["system"] = system
    return data


def _cmd_run(args) -> int:
    base = load_config_data(args.config)
    for label, document in expand_variants(base):
        document = _apply_overrides(document, args)
        config = config_from_dict(document)
        report = run_experiment(config)
        target = Path(config.output_dir)
        if len(expand_variants(base)) > 1:
            target = target / label
        paths = emit_results(report, target)
        print(f"[{label}] {len(report.rows)} realizations -> {paths['raw'].parent}")
        for err in report.errors:
            print(f"[{label}] skipped: {err}", file=sys.stderr)
    return 0


def _cmd_tradeoff(args) -> int:
    document = _apply_overrides(load_config_data(args.config), args)
    config = config_from_dict(document)
    settings = config.tradeoff
    params = config.ee_params()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    codes = generate_codes(
        config.processing_gain, settings.user_count, np.random.default_rng(config.seed)
    )
    summary = {}
    for distance in settings.interferer_distances:
        geometry = FixedGeometry(
            settings.interest_distance, (distance,) * (settings.user_count - 1)
        )
        placement = draw_placement(geometry, settings.user_count)
        curve = sweep_tradeoff(
            placement,
            codes,
            params,
            config.receiver,
            settings.interferer_power,
            sweep_powers=np.geomspace(
                1e-6 * params.max_power, params.max_power, settings.sweep_points
            ),
            fading=config.fading,
            fading_draws=settings.fading_draws,
            path_loss_exponent=config.path_loss_exponent,
            rng=np.random.default_rng(config.seed),
        )
        name = f"tradeoff_{config.receiver}_d{distance:g}.csv"
        path = out / name
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["power_w", "mean_se_bit_per_s_per_hz", "mean_ee_bit_per_joule", "mean_sinr"])
            for row in zip(curve.powers, curve.se, curve.ee, curve.sinr):
                writer.writerow([repr(float(v)) for v in row])
        summary[name] = {
            "interferer_distance_m": distance,
            "receiver": curve.receiver,
            "fading_draws": curve.fading_draws,
            "max_ee_power_w": curve.max_ee_power,
            "max_ee_sinr": curve.max_ee_sinr,
            "lambda_gap_bit_per_s_per_hz": curve.lambda_gap,
            "se_monotone": curve.se_monotone,
            "ee_unimodal": curve.ee_unimodal,
            "coupling": curve.coupling,
            "coupling_reciprocal": curve.coupling_reciprocal,
            # The top of the sweep stands in for the infinite-power SE asymptote.
            "se_reference": "grid top power (asymptotic SE proxy)",
        }
        print(f"{name}: lambda={curve.lambda_gap:.6g} bit/s/Hz, coupling={curve.coupling:.6g}")
    with (out / "tradeoff_metadata.json").open("w") as handle:
        json.dump(
            {"version": __version__, "seed": config.seed, "curves": summary},
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    return 0


def _cmd_compare(args) -> int:
    report_a = read_report(args.a)
    report_b = read_report(args.b)
    verdicts = paired_comparison(report_a, report_b, args.metric)
    lines = []
    for v in verdicts:
        lines.append(
            f"K={v.k_users}: mean diff {v.mean_diff:.6g} "
            f"[{v.ci_low:.6g}, {v.ci_high:.6g}] -> {v.verdict}"
        )
        print(lines[-1])
    if args.out:
        with Path(args.out).open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["k_users", "samples", "mean_diff", "ci_low", "ci_high", "verdict"])
            for v in verdicts:
                writer.writerow(
                    [v.k_users, v.samples, repr(v.mean_diff), repr(v.ci_low), repr(v.ci_high), v.verdict]
                )
    return 0


def _cmd_solve(args) -> int:
    document = _apply_overrides(load_config_data(args.config), args)
    config = config_from_dict(document)
    k_users = args.k if args.k is not None else config.user_counts[0]
    reason = decorrelator_load_error(k_users, config.processing_gain)
    if config.receiver == "dec" and reason:
        raise ConfigurationError(reason)
    params = config.ee_params()
    scenario = draw_scenario(
        config.geometry,
        k_users,
        config.processing_gain,
        config.receiver,
        realization_seed(config.seed, args.realization),
        config.path_loss_exponent,
        config.fading,
    )
    result = run_control_batch(
        scenario.channel.gain_power[None],
        scenario.codes.correlation[None],
        config.receiver,
        config.algorithm,
        params,
        iterations=config.iterations,
        alpha=config.alpha,
        resolve_each_iteration=config.resolve_targets_each_iteration,
    )
    if result.failed[0]:
        raise ReceiverUnavailableError(result.failure_reasons[0])
    power, sinr, target, active = (
        result.power[0], result.sinr[0], result.target_sinr[0], result.active[0]
    )
    gap = np.broadcast_to(np.asarray(params.gap(), dtype=float), (k_users,))
    rates = rate(sinr, gap, config.bandwidth)
    print(
        f"K={k_users} receiver={config.receiver} algorithm={config.algorithm} "
        f"rounds={int(result.rounds[0])} converged={bool(result.converged[0])} "
        f"removed={result.removed[0]}"
    )
    header = f"{'user':>4} {'dist_m':>9} {'gain_pow':>12} {'target':>12} {'power_w':>12} {'sinr':>12} {'rate_bps':>12} {'ee_bit_j':>12}"
    print(header)
    for k in range(k_users):
        ee_k = utility(power[k], sinr[k], params, gap[k]) if active[k] else 0.0
        print(
            f"{k:>4} {scenario.placement.distances[k]:>9.2f} "
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
    except (
        ReceiverUnavailableError,
        NoInteriorMaximumError,
        NotConvergedError,
        np.linalg.LinAlgError,
        FloatingPointError,
    ) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
