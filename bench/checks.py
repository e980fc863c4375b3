"""Output checks that hold for every seed.

Each check is a property the method must have or a value recomputed here
with the benchmark's own formulas; none compares against stored output.
Every failure is one string that starts with the name of the check that
found it: determinism, rows, aggregates, compare, recompute, optimality,
stopping, tradeoff.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from cdma_ee.control import run_control_batch
from cdma_ee.harness import config_from_echo
from cdma_ee.scenario import draw_scenario, scenario_checksum
from cdma_ee.seeding import realization_seed

REL_TOL = 1e-9
# Same 1% margin the control loop uses to tell a missed target from a met one.
STOP_MARGIN = 0.99
# Targets at the solver's bracket ceiling have no interior optimum to compare.
TARGET_CEILING = 1e6
# Relative distance a target may sit from the grid argmax (criterion 2 of the suite).
OPTIMUM_REL_TOL = 1e-3
GRID_POINTS = 8001
GRID_SPAN = 1.5


# ---------------------------------------------------------------------------
# The benchmark's own formulas


def sinr_gap(ber: float) -> float:
    return -1.5 / math.log(5.0 * ber)


def rate(sinr, gap, bandwidth):
    return bandwidth * np.log2(1.0 + gap * np.asarray(sinr, dtype=float))


def packet_success(sinr, packet_bits):
    return (-np.expm1(-np.asarray(sinr, dtype=float))) ** packet_bits


def utility_at_interference(sinr, itf, config, gap):
    """EE of a user reaching ``sinr`` against effective interference ``itf``."""
    delivered = rate(sinr, gap, config.bandwidth) * config.info_bits / config.packet_bits
    return delivered * packet_success(sinr, config.packet_bits) / (sinr * itf + config.circuit_power)


def mf_sinr(power, gain_power, correlation, noise_power):
    """Matched filter: own received power over squared-correlation MAI plus noise."""
    weights = correlation**2
    np.fill_diagonal(weights, 0.0)
    received = power * gain_power
    denominator = weights @ received + noise_power
    return received / denominator, denominator / gain_power


def dec_enhancement(correlation, active):
    """Diagonal of the inverse correlation of the active users, via linear solves."""
    sub = correlation[np.ix_(active, active)]
    return np.diagonal(np.linalg.solve(sub, np.eye(sub.shape[0]))).copy(), sub


def _close(a, b, rel=REL_TOL) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=0.0) or a == b


# ---------------------------------------------------------------------------
# Files


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def check_determinism(first: Path, second: Path) -> list[str]:
    """Two passes with one seed write the same bytes, timestamps aside."""
    failures = []
    files_a = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    if files_a != files_b:
        return [f"determinism: file sets differ: {files_a} vs {files_b}"]
    if not files_a:
        return ["determinism: the pass wrote no files"]
    for rel in files_a:
        a, b = (first / rel).read_bytes(), (second / rel).read_bytes()
        if rel.name == "metadata.json":
            meta_a, meta_b = json.loads(a), json.loads(b)
            meta_a.pop("timestamp", None)
            meta_b.pop("timestamp", None)
            if meta_a != meta_b:
                failures.append(f"determinism: {rel} differs beyond its timestamp")
        elif a != b:
            failures.append(f"determinism: {rel} differs between passes")
    return failures


# ---------------------------------------------------------------------------
# Monte Carlo runs


def _load_run(run_dir: Path):
    metadata = json.loads((run_dir / "metadata.json").read_text())
    config = config_from_echo(metadata["config"])
    raw = _read_csv(run_dir / "raw.csv")
    aggregate = _read_csv(run_dir / "aggregate.csv")
    return config, metadata, raw, aggregate


def check_rows(config, metadata, raw) -> list[str]:
    """Per-row identities and the set of (K, realization) rows present."""
    failures = []
    refused = {(e["k_users"], e["realization"]) for e in metadata["errors"] if "realization" in e}
    skipped = {e["k_users"] for e in metadata["errors"] if "realization" not in e}
    expected = [
        (k, r)
        for k in config.user_counts
        if k not in skipped
        for r in range(config.realizations)
        if (k, r) not in refused
    ]
    present = [(int(row["k_users"]), int(row["realization"])) for row in raw]
    if present != expected:
        missing = sorted(set(expected) - set(present))[:5]
        extra = sorted(set(present) - set(expected))[:5]
        failures.append(
            f"rows: {len(present)} rows, expected {len(expected)} "
            f"(missing {missing}, unexpected {extra}, or out of order)"
        )
    for row in raw:
        k, removed = int(row["k_users"]), int(row["removed_count"])
        where = f"K={k} r={row['realization']}"
        order = [int(u) for u in row["removed_order"].split(";") if u != ""]
        if float(row["outage_fraction"]) != removed / k:
            failures.append(f"rows: {where} outage_fraction != removed_count/K")
        if len(order) != removed or len(set(order)) != removed or any(not 0 <= u < k for u in order):
            failures.append(f"rows: {where} removed_order {order} is not {removed} distinct users in [0, K)")
        if config.algorithm == "baseline" and removed:
            failures.append(f"rows: {where} baseline removed {removed} users")
        incl = float(row["sum_power_w"]) + removed * config.circuit_power
        if not _close(float(row["sum_power_incl_removed_circuit_w"]), incl, 1e-12):
            failures.append(f"rows: {where} sum_power_incl_removed_circuit != sum_power + removed*p_c")
    return failures


AGGREGATE_OF_RAW = {
    "mean_sum_rate_bit_per_s": "sum_rate_bit_per_s",
    "mean_sum_power_w": "sum_power_w",
    "mean_sum_power_incl_removed_circuit_w": "sum_power_incl_removed_circuit_w",
    "mean_global_ee_bit_per_joule": "global_ee_bit_per_joule",
    "mean_outage_probability": "outage_fraction",
    "mean_removed_count": "removed_count",
}


def check_aggregates(metadata, raw, aggregate) -> list[str]:
    """aggregate.csv holds the per-K means of raw.csv."""
    failures = []
    by_k: dict[int, list[dict]] = {}
    for row in raw:
        by_k.setdefault(int(row["k_users"]), []).append(row)
    refused: dict[int, int] = {}
    for err in metadata["errors"]:
        if "realization" in err:
            refused[err["k_users"]] = refused.get(err["k_users"], 0) + 1
    if sorted(by_k) != [int(e["k_users"]) for e in aggregate]:
        return [f"aggregates: K values {[e['k_users'] for e in aggregate]} vs raw {sorted(by_k)}"]
    for entry in aggregate:
        k = int(entry["k_users"])
        rows = by_k[k]
        if int(entry["realizations"]) != len(rows):
            failures.append(f"aggregates: K={k} counts {entry['realizations']} rows, raw has {len(rows)}")
        if int(entry["failed_realizations"]) != refused.get(k, 0):
            failures.append(f"aggregates: K={k} failed_realizations disagrees with metadata errors")
        for column, raw_column in AGGREGATE_OF_RAW.items():
            mean = math.fsum(float(r[raw_column]) for r in rows) / len(rows)
            if not _close(float(entry[column]), mean, 1e-12):
                failures.append(f"aggregates: K={k} {column} {entry[column]} != mean {mean!r}")
        converged = sum(r["converged"] == "true" for r in rows) / len(rows)
        if not _close(float(entry["converged_fraction"]), converged, 1e-12):
            failures.append(f"aggregates: K={k} converged_fraction != share of converged rows")
    return failures


def check_realization(config, metadata, raw, k: int, r: int) -> list[str]:
    """Re-run one realization through the control loop and recompute its row."""
    where = f"K={k} r={r}"
    seed = realization_seed(config.seed, r)
    scenario = draw_scenario(
        config.geometry, k, config.processing_gain, config.receiver, seed,
        config.path_loss_exponent, config.fading,
    )
    params = config.ee_params()
    trajectory: list[np.ndarray] = []
    result = run_control_batch(
        scenario.channel.gain_power[None, :],
        scenario.codes.correlation[None, :, :],
        config.receiver,
        config.algorithm,
        params,
        iterations=config.iterations,
        alpha=config.alpha,
        resolve_each_iteration=config.resolve_targets_each_iteration,
        trajectory=trajectory,
    )
    rows = [row for row in raw if int(row["k_users"]) == k and int(row["realization"]) == r]
    refused = any(
        e.get("k_users") == k and e.get("realization") == r for e in metadata["errors"]
    )
    if result.failed[0]:
        if rows or not refused:
            return [f"recompute: {where} decorrelator refused on rerun but the run kept the row"]
        return []
    if len(rows) != 1 or refused:
        return [f"recompute: {where} has {len(rows)} rows and refusal={refused} for a feasible draw"]
    row = rows[0]
    failures = []
    if row["draw_checksum"] != scenario_checksum(scenario):
        failures.append(f"recompute: {where} draw checksum differs from the redrawn scenario")
    removed = result.removed[0]
    if row["removed_order"] != ";".join(str(u) for u in removed) or int(row["rounds"]) != result.rounds[0]:
        failures.append(f"recompute: {where} removals or rounds differ from the rerun")

    gain, corr = scenario.channel.gain_power, scenario.codes.correlation
    power, active, target = result.power[0], result.active[0], result.target_sinr[0]
    noise, gap = config.noise_power, sinr_gap(config.ber)
    sinr = np.zeros(k)
    itf = np.full(k, np.nan)
    sinr_tol = REL_TOL
    if config.receiver == "mf":
        sinr, _ = mf_sinr(power, gain, corr, noise)
        # Targets were last solved against the powers before the final update.
        if config.resolve_targets_each_iteration and config.iterations >= 2:
            solved_at = trajectory[-2][0]
        else:
            solved_at = np.where(active, noise, 0.0)
        _, itf = mf_sinr(solved_at, gain, corr, noise)
    elif active.any():
        enhancement, sub = dec_enhancement(corr, active)
        sinr[active] = power[active] * gain[active] / (noise * enhancement)
        itf[active] = noise * enhancement / gain[active]
        # Solve and inverse agree to about cond(R) * eps on the diagonal of R^-1.
        sinr_tol += 64.0 * np.finfo(float).eps * np.linalg.cond(sub, 1)
    bad = ~np.isclose(sinr, result.sinr[0], rtol=sinr_tol, atol=0.0)
    if bad.any():
        failures.append(f"recompute: {where} SINR of users {np.flatnonzero(bad).tolist()} differs")
    if np.any(power[~active] != 0.0):
        failures.append(f"recompute: {where} removed users still transmit")

    rates = rate(sinr[active], gap, config.bandwidth)
    sum_power = math.fsum(power[active] + config.circuit_power)
    delivered = config.info_bits / config.packet_bits * rates * packet_success(sinr[active], config.packet_bits)
    total = sum_power + (len(removed) * config.circuit_power if config.count_removed_circuit_power else 0.0)
    ee = math.fsum(delivered) / total if total > 0.0 else 0.0
    for column, value in (
        ("sum_rate_bit_per_s", math.fsum(rates)),
        ("sum_power_w", sum_power),
        ("global_ee_bit_per_joule", ee),
    ):
        if not _close(float(row[column]), value, 10.0 * sinr_tol):
            failures.append(f"recompute: {where} {column} {row[column]} != {value!r}")

    # EE optimality: each unflagged target is the argmax of the utility on a dense log grid.
    check = active & (target > 0.0) & (target < TARGET_CEILING)
    if check.any():
        t = target[check]
        grid = t[:, None] * np.geomspace(1.0 / GRID_SPAN, GRID_SPAN, GRID_POINTS)[None, :]
        values = utility_at_interference(grid, itf[check][:, None], config, gap)
        best = np.argmax(values, axis=1)
        argmax = grid[np.arange(t.size), best]
        off = (np.abs(t - argmax) / argmax > OPTIMUM_REL_TOL) | (best == 0) | (best == GRID_POINTS - 1)
        if off.any():
            users = np.flatnonzero(check)[off].tolist()
            failures.append(f"optimality: {where} targets of users {users} are off the EE optimum")

    # Stopping rule of the final round.
    missed = active & (target > 0.0) & (sinr < STOP_MARGIN * target * (1.0 - REL_TOL))
    if config.algorithm == "alg1" and missed.any():
        failures.append(f"stopping: {where} alg1 kept users {np.flatnonzero(missed).tolist()} below target")
    if config.algorithm == "alg2":
        short = missed & (rate(sinr, gap, config.bandwidth) < config.min_rate * (1.0 - REL_TOL))
        if short.any():
            failures.append(f"stopping: {where} alg2 kept users {np.flatnonzero(short).tolist()} below min rate")
    return failures


def check_run(run_dir: Path, seed: int) -> list[str]:
    config, metadata, raw, aggregate = _load_run(run_dir)
    if config.seed != seed:
        return [f"rows: {run_dir.name} ran with seed {config.seed}, not {seed}"]
    failures = check_rows(config, metadata, raw) + check_aggregates(metadata, raw, aggregate)
    skipped = {e["k_users"] for e in metadata["errors"] if "realization" not in e}
    for k in config.user_counts:
        if k not in skipped:
            # The seed picks which realization is re-run, so runs on other seeds cover others.
            failures += check_realization(config, metadata, raw, k, (seed + k) % config.realizations)
    return [f"{f} [{run_dir.name}]" for f in failures]


def check_compare(pass_dir: Path, a: str, b: str) -> list[str]:
    """Each verdict follows the sign of its CI; each mean difference is recomputed."""
    failures = []
    pairs: dict[int, list[float]] = {}
    rows_b = {(r["k_users"], r["realization"]): r for r in _read_csv(pass_dir / b / "raw.csv")}
    for row in _read_csv(pass_dir / a / "raw.csv"):
        other = rows_b.get((row["k_users"], row["realization"]))
        if other is not None:
            diff = float(row["global_ee_bit_per_joule"]) - float(other["global_ee_bit_per_joule"])
            pairs.setdefault(int(row["k_users"]), []).append(diff)
    verdicts = _read_csv(pass_dir / "compare.csv")
    if [int(v["k_users"]) for v in verdicts] != sorted(pairs):
        return [f"compare: verdicts for K {[v['k_users'] for v in verdicts]}, pairs for {sorted(pairs)}"]
    for v in verdicts:
        k = int(v["k_users"])
        low, high, mean = float(v["ci_low"]), float(v["ci_high"]), float(v["mean_diff"])
        expected = "a>b" if low > 0.0 else "b>a" if high < 0.0 else "indistinguishable"
        if v["verdict"] != expected:
            failures.append(f"compare: K={k} verdict {v['verdict']} but CI [{low}, {high}]")
        if not low <= mean <= high:
            failures.append(f"compare: K={k} mean difference outside its CI")
        diffs = pairs[k]
        scale = math.fsum(abs(d) for d in diffs) / len(diffs)
        if int(v["samples"]) != len(diffs) or abs(mean - math.fsum(diffs) / len(diffs)) > 1e-9 * scale:
            failures.append(f"compare: K={k} mean difference or sample count not that of the paired rows")
    return failures


# ---------------------------------------------------------------------------
# Trade-off sweeps


def _curve(path: Path) -> dict[str, np.ndarray]:
    rows = _read_csv(path)
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def check_tradeoff(pass_dir: Path, labels) -> list[str]:
    failures = []
    lambdas: dict[str, dict[float, float]] = {}
    dec_curves = []
    for label in labels:
        run_dir = pass_dir / label
        meta = json.loads((run_dir / "tradeoff_metadata.json").read_text())["curves"]
        if len(meta) != 3:
            failures.append(f"tradeoff: {label} wrote {len(meta)} curves, expected 3")
        for name, summary in sorted(meta.items()):
            c = _curve(run_dir / name)
            power, se, ee, sinr = (
                c["power_w"], c["mean_se_bit_per_s_per_hz"], c["mean_ee_bit_per_joule"], c["mean_sinr"]
            )
            where = f"tradeoff: {label}/{name}"
            if np.any(np.diff(se) < 0.0):
                failures.append(f"{where} SE decreases with power")
            ratio = sinr / power
            if np.max(np.abs(ratio / ratio[0] - 1.0)) > REL_TOL:
                failures.append(f"{where} SINR/power is not constant along the grid")
            peak = int(np.argmax(ee))
            if not (
                _close(summary["max_ee_power_w"], power[peak], 1e-12)
                and _close(summary["max_ee_sinr"], sinr[peak], 1e-12)
                and _close(summary["lambda_gap_bit_per_s_per_hz"], se[-1] - se[peak], 1e-12)
            ):
                failures.append(f"{where} EE peak or lambda in the metadata disagree with the curve")
            receiver = summary["receiver"]
            lambdas.setdefault(receiver, {})[summary["interferer_distance_m"]] = se[-1] - se[peak]
            if receiver == "dec":
                dec_curves.append((name, np.stack([se, ee, sinr])))
    for name, curve in dec_curves[1:]:
        if not np.array_equal(curve, dec_curves[0][1]):
            failures.append(f"tradeoff: DEC curve {name} differs from {dec_curves[0][0]}")
    # Nearer interferers mean more MAI and a smaller lambda.  When the EE peak sits
    # at the top of the grid (the power cap binds) lambda is 0 at that distance,
    # so the order is strict only where the nearer curve peaks inside the grid.
    mf = lambdas.get("mf", {})
    ordered = [mf[d] for d in sorted(mf)]
    if len(ordered) < 2 or any(x > y or 0.0 < x == y for x, y in zip(ordered, ordered[1:])):
        failures.append(f"tradeoff: MF lambda not increasing with interferer distance: {mf}")
    return failures


def check_workload(workload, first: Path, second: Path, seed: int) -> list[str]:
    """All checks for one workload, on its first pass and against its second."""
    failures = check_determinism(first, second)
    try:
        if workload.command == "tradeoff":
            failures += check_tradeoff(first, workload.configs)
        else:
            for label in workload.configs:
                failures += check_run(first / label, seed)
            if workload.compare:
                failures += check_compare(first, *workload.compare)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        failures.append(f"outputs unreadable: {exc!r}")
    return failures
