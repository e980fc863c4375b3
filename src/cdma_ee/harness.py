"""Scenario configuration, Monte Carlo orchestration and file output.

A run sweeps the user count K; every (K, realization) pair draws a fresh
placement, channel and code set from the substream ``seed + realization``, so
two runs with equal seeds that differ only in algorithm or receiver consume
identical draws and their metrics compare as paired samples.  Realizations
are independent work units; results are sorted by (K, realization) before
aggregation, which makes the output identical under serial and parallel
execution.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml
from scipy import stats

from . import __version__
from .channel import FixedGeometry, Geometry, RingGeometry
from .control import ALGORITHMS, run_control_batch
from .errors import ConfigurationError
from .metrics import EEParams, dbm_to_watt, global_ee, rate
from .scenario import RECEIVERS, draw_scenario, scenario_checksum
from .seeding import realization_seed
from .spreading import decorrelator_load_error

WORKERS_ENV_VAR = "CDMA_EE_WORKERS"

RAW_COLUMNS = [
    "k_users",
    "realization",
    "seed",
    "sum_rate_bit_per_s",
    "sum_power_w",
    "sum_power_incl_removed_circuit_w",
    "global_ee_bit_per_joule",
    "outage_fraction",
    "removed_count",
    "removed_order",
    "rounds",
    "converged",
    "stabilized_iteration",
    "target_flagged",
    "draw_checksum",
]

AGGREGATE_COLUMNS = [
    "k_users",
    "realizations",
    "failed_realizations",
    "mean_sum_rate_bit_per_s",
    "mean_sum_power_w",
    "mean_sum_power_incl_removed_circuit_w",
    "mean_global_ee_bit_per_joule",
    "mean_outage_probability",
    "mean_removed_count",
    "converged_fraction",
]

METRIC_FIELDS = {
    "sum_rate": "sum_rate",
    "sum_power": "sum_power",
    "sum_power_incl_removed_circuit": "sum_power_incl_removed_circuit",
    "global_ee": "global_ee",
    "outage": "outage_fraction",
    "removed_count": "removed_count",
}

# Config keys allowed to differ between the two sides of a paired comparison:
# they select the scheme under test without touching the random draws.
PAIRABLE_KEYS = {"name", "output_dir", "workers", "algorithm", "receiver", "min_rate"}


@dataclass(frozen=True)
class TradeoffSettings:
    """Sweep configuration for the EE-SE trade-off scenario family."""

    interest_distance: float = 50.0
    interferer_distances: tuple[float, ...] = (200.0, 100.0, 80.0)
    user_count: int = 3
    interferer_power: float = 1e-2
    sweep_points: int = 400
    fading_draws: int = 5000


@dataclass(frozen=True)
class ScenarioConfig:
    """Resolved run configuration (powers in watts, rates in bit/s)."""

    name: str = "run"
    seed: int = 20260810
    realizations: int = 200
    workers: int = 0
    output_dir: str = "results"
    processing_gain: int = 63
    user_counts: tuple[int, ...] = tuple(range(2, 16))
    receiver: str = "mf"
    algorithm: str = "alg1"
    geometry: Geometry = RingGeometry(50.0, 200.0)
    path_loss_exponent: float = 2.0
    fading: str = "rayleigh"
    bandwidth: float = 1e6
    noise_power: float = 1e-12
    max_power: float = 1e-2
    circuit_power: float = dbm_to_watt(7.0)
    packet_bits: int = 80
    info_bits: int = 50
    ber: float = 1e-3
    min_rate: float = 5e5
    alpha: float = 0.5
    iterations: int = 500
    resolve_targets_each_iteration: bool = True
    count_removed_circuit_power: bool = False
    tradeoff: TradeoffSettings = TradeoffSettings()

    def __post_init__(self):
        if self.realizations < 1:
            raise ConfigurationError("realizations must be >= 1")
        if self.receiver not in RECEIVERS:
            raise ConfigurationError(f"receiver must be one of {RECEIVERS}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"algorithm must be one of {ALGORITHMS}")
        if not self.user_counts or any(k < 1 for k in self.user_counts):
            raise ConfigurationError("user_counts must be positive")
        self.ee_params()  # validates the physical quantities

    def ee_params(self) -> EEParams:
        return EEParams(
            packet_bits=self.packet_bits,
            info_bits=self.info_bits,
            circuit_power=self.circuit_power,
            bandwidth=self.bandwidth,
            max_power=self.max_power,
            noise_power=self.noise_power,
            ber=self.ber,
            min_rate=self.min_rate,
        )

    def echo_dict(self) -> dict:
        """Canonical plain-dict form for metadata and hashing."""
        data = asdict(self)
        if isinstance(self.geometry, RingGeometry):
            data["geometry"] = {
                "kind": "ring",
                "inner_radius_m": self.geometry.inner_radius,
                "outer_radius_m": self.geometry.outer_radius,
            }
        else:
            data["geometry"] = {
                "kind": "fixed",
                "interest_distance_m": self.geometry.interest_distance,
                "interferer_distances_m": list(self.geometry.interferer_distances),
            }
        data["user_counts"] = list(self.user_counts)
        data["tradeoff"]["interferer_distances"] = list(self.tradeoff.interferer_distances)
        return data

    def config_hash(self) -> str:
        canonical = json.dumps(self.echo_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class RealizationRecord:
    """Metrics of one finished realization."""

    k_users: int
    realization: int
    seed: int
    sum_rate: float
    sum_power: float
    sum_power_incl_removed_circuit: float
    global_ee: float
    outage_fraction: float
    removed_count: int
    removed_order: tuple[int, ...]
    rounds: int
    converged: bool
    stabilized_iteration: int | None
    target_flagged: bool
    draw_checksum: str


@dataclass
class RunReport:
    """Per-realization rows plus per-K aggregates and run metadata."""

    config: ScenarioConfig
    rows: list[RealizationRecord]
    aggregates: list[dict]
    errors: list[dict]
    version: str = __version__

    @property
    def seed(self) -> int:
        return self.config.seed

    def rows_for(self, k_users: int) -> list[RealizationRecord]:
        return [row for row in self.rows if row.k_users == k_users]

    def aggregate_for(self, k_users: int) -> dict | None:
        for entry in self.aggregates:
            if entry["k_users"] == k_users:
                return entry
        return None


def aggregate_rows(rows: list[RealizationRecord], errors: list[dict]) -> list[dict]:
    """Arithmetic means of the raw rows, one entry per K."""
    failures: dict[int, int] = {}
    for err in errors:
        if "realization" in err:
            failures[err["k_users"]] = failures.get(err["k_users"], 0) + 1
    by_k: dict[int, list[RealizationRecord]] = {}
    for row in rows:
        by_k.setdefault(row.k_users, []).append(row)
    aggregates = []
    for k_users in sorted(by_k):
        group = by_k[k_users]
        aggregates.append(
            {
                "k_users": k_users,
                "realizations": len(group),
                "failed_realizations": failures.get(k_users, 0),
                "mean_sum_rate_bit_per_s": float(np.mean([r.sum_rate for r in group])),
                "mean_sum_power_w": float(np.mean([r.sum_power for r in group])),
                "mean_sum_power_incl_removed_circuit_w": float(
                    np.mean([r.sum_power_incl_removed_circuit for r in group])
                ),
                "mean_global_ee_bit_per_joule": float(np.mean([r.global_ee for r in group])),
                "mean_outage_probability": float(np.mean([r.outage_fraction for r in group])),
                "mean_removed_count": float(np.mean([r.removed_count for r in group])),
                "converged_fraction": float(np.mean([1.0 if r.converged else 0.0 for r in group])),
            }
        )
    return aggregates


def _run_chunk(config: ScenarioConfig, k_users: int, realizations: list[int]):
    """Draw and run a block of realizations at one K (worker entry point)."""
    params = config.ee_params()
    gap_row = np.broadcast_to(np.asarray(params.gap(), dtype=float), (k_users,))
    scenarios = []
    checksums = []
    seeds = []
    for r in realizations:
        seed = realization_seed(config.seed, r)
        scenario = draw_scenario(
            config.geometry,
            k_users,
            config.processing_gain,
            config.receiver,
            seed,
            config.path_loss_exponent,
            config.fading,
        )
        scenarios.append(scenario)
        checksums.append(scenario_checksum(scenario))
        seeds.append(seed)

    gain_power = np.stack([s.channel.gain_power for s in scenarios])
    correlation = np.stack([s.codes.correlation for s in scenarios])
    result = run_control_batch(
        gain_power,
        correlation,
        config.receiver,
        config.algorithm,
        params,
        iterations=config.iterations,
        alpha=config.alpha,
        resolve_each_iteration=config.resolve_targets_each_iteration,
    )

    records: list[RealizationRecord] = []
    errors: list[dict] = []
    for b, r in enumerate(realizations):
        if result.failed[b]:
            errors.append(
                {
                    "k_users": k_users,
                    "realization": r,
                    "error": result.failure_reasons.get(b, "receiver unavailable"),
                }
            )
            continue
        active = result.active[b]
        power = result.power[b]
        sinr = result.sinr[b]
        n_removed = len(result.removed[b])
        rates = rate(sinr[active], gap_row[active], config.bandwidth)
        sum_power = float(np.sum(power[active] + params.circuit_power))
        ee = global_ee(
            rates,
            sinr[active],
            power[active],
            params,
            extra_circuit_users=n_removed if config.count_removed_circuit_power else 0,
        )
        stab = int(result.stabilized_iteration[b])
        records.append(
            RealizationRecord(
                k_users=k_users,
                realization=r,
                seed=seeds[b],
                sum_rate=float(np.sum(rates)),
                sum_power=sum_power,
                sum_power_incl_removed_circuit=sum_power + n_removed * params.circuit_power,
                global_ee=ee,
                outage_fraction=n_removed / k_users,
                removed_count=n_removed,
                removed_order=tuple(result.removed[b]),
                rounds=int(result.rounds[b]),
                converged=bool(result.converged[b]),
                stabilized_iteration=stab if stab >= 0 else None,
                target_flagged=bool(result.target_flagged[b]),
                draw_checksum=checksums[b],
            )
        )
    return records, errors


def resolve_workers(config_workers: int) -> int:
    """Worker count with environment override; <= 1 means serial."""
    env = os.environ.get(WORKERS_ENV_VAR)
    if env is not None:
        try:
            return max(int(env), 0)
        except ValueError as exc:
            raise ConfigurationError(f"{WORKERS_ENV_VAR} must be an integer: {env!r}") from exc
    return config_workers


def run_experiment(config: ScenarioConfig) -> RunReport:
    """Run the configured algorithm over the K sweep and all realizations."""
    errors: list[dict] = []
    tasks: list[tuple[int, list[int]]] = []
    workers = resolve_workers(config.workers)
    chunking = max(workers, 1)
    all_realizations = list(range(config.realizations))
    for k_users in config.user_counts:
        reason = decorrelator_load_error(k_users, config.processing_gain)
        if config.receiver == "dec" and reason:
            errors.append({"k_users": k_users, "error": reason})
            continue
        splits = np.array_split(all_realizations, chunking)
        for split in splits:
            if len(split):
                tasks.append((k_users, [int(r) for r in split]))

    rows: list[RealizationRecord] = []
    if workers > 1 and tasks:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(
                    _run_chunk,
                    [config] * len(tasks),
                    [k for k, _ in tasks],
                    [rs for _, rs in tasks],
                )
            )
    else:
        outcomes = [_run_chunk(config, k, rs) for k, rs in tasks]
    for records, chunk_errors in outcomes:
        rows.extend(records)
        errors.extend(chunk_errors)

    rows.sort(key=lambda row: (row.k_users, row.realization))
    errors.sort(key=lambda err: (err["k_users"], err.get("realization", -1)))
    return RunReport(
        config=config,
        rows=rows,
        aggregates=aggregate_rows(rows, errors),
        errors=errors,
    )


@dataclass(frozen=True)
class PairedVerdict:
    """Per-K paired-difference summary between two runs (a minus b)."""

    k_users: int
    samples: int
    mean_diff: float
    ci_low: float
    ci_high: float
    verdict: str  # "a>b", "b>a", or "indistinguishable"


def paired_comparison(
    report_a: RunReport, report_b: RunReport, metric: str, confidence: float = 0.95
) -> list[PairedVerdict]:
    """Paired per-K comparison of two runs on identical draws."""
    if metric not in METRIC_FIELDS:
        raise ConfigurationError(f"metric must be one of {sorted(METRIC_FIELDS)}")
    if report_a.config.seed != report_b.config.seed:
        raise ConfigurationError("refusing comparison: seeds differ")
    echo_a = report_a.config.echo_dict()
    echo_b = report_b.config.echo_dict()
    for key in set(echo_a) | set(echo_b):
        if key in PAIRABLE_KEYS:
            continue
        if echo_a.get(key) != echo_b.get(key):
            raise ConfigurationError(
                f"refusing comparison: configs differ in {key!r} "
                "(only algorithm/receiver selection may differ)"
            )

    field_name = METRIC_FIELDS[metric]
    rows_b = {(row.k_users, row.realization): row for row in report_b.rows}
    by_k: dict[int, list[tuple[float, float]]] = {}
    for row_a in report_a.rows:
        row_b = rows_b.get((row_a.k_users, row_a.realization))
        if row_b is None:
            continue
        if row_a.draw_checksum != row_b.draw_checksum:
            raise ConfigurationError(
                f"refusing comparison: draws differ at K={row_a.k_users}, "
                f"realization {row_a.realization}"
            )
        by_k.setdefault(row_a.k_users, []).append(
            (getattr(row_a, field_name), getattr(row_b, field_name))
        )

    verdicts = []
    for k_users in sorted(by_k):
        pairs = np.asarray(by_k[k_users], dtype=float)
        diffs = pairs[:, 0] - pairs[:, 1]
        n = diffs.size
        mean = float(np.mean(diffs))
        if n > 1:
            half = float(
                stats.t.ppf(0.5 + confidence / 2.0, n - 1) * np.std(diffs, ddof=1) / np.sqrt(n)
            )
        else:
            half = float("inf")
        low, high = mean - half, mean + half
        if low > 0.0:
            verdict = "a>b"
        elif high < 0.0:
            verdict = "b>a"
        else:
            verdict = "indistinguishable"
        verdicts.append(
            PairedVerdict(
                k_users=k_users,
                samples=n,
                mean_diff=mean,
                ci_low=low,
                ci_high=high,
                verdict=verdict,
            )
        )
    return verdicts


def _render(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)  # shortest round-trip rendering, full precision
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def emit_results(report: RunReport, out_dir: str | Path) -> dict[str, Path]:
    """Write the raw table, the aggregate table and the metadata sidecar."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        raw_path = out / "raw.csv"
        with raw_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(RAW_COLUMNS)
            for row in report.rows:
                writer.writerow(
                    [
                        row.k_users,
                        row.realization,
                        row.seed,
                        _render(row.sum_rate),
                        _render(row.sum_power),
                        _render(row.sum_power_incl_removed_circuit),
                        _render(row.global_ee),
                        _render(row.outage_fraction),
                        row.removed_count,
                        ";".join(str(u) for u in row.removed_order),
                        row.rounds,
                        _render(row.converged),
                        _render(row.stabilized_iteration),
                        _render(row.target_flagged),
                        row.draw_checksum,
                    ]
                )
        agg_path = out / "aggregate.csv"
        with agg_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(AGGREGATE_COLUMNS)
            for entry in report.aggregates:
                writer.writerow([_render(entry[col]) for col in AGGREGATE_COLUMNS])
        meta_path = out / "metadata.json"
        checksums = {}
        for row in report.rows:
            checksums.setdefault(str(row.k_users), hashlib.sha256())
            checksums[str(row.k_users)].update(row.draw_checksum.encode())
        metadata = {
            "version": report.version,
            "seed": report.config.seed,
            "config_hash": report.config.config_hash(),
            "config": report.config.echo_dict(),
            "draw_checksums": {k: v.hexdigest()[:16] for k, v in checksums.items()},
            "errors": report.errors,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        with meta_path.open("w") as handle:
            json.dump(metadata, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write results under {out}: {exc}") from exc
    return {"raw": raw_path, "aggregate": agg_path, "metadata": meta_path}


def read_report(run_dir: str | Path) -> RunReport:
    """Load a previously emitted run directory back into a ``RunReport``."""
    run_dir = Path(run_dir)
    meta_path = run_dir / "metadata.json"
    raw_path = run_dir / "raw.csv"
    if not meta_path.exists() or not raw_path.exists():
        raise OSError(f"{run_dir} does not contain raw.csv and metadata.json")
    with meta_path.open() as handle:
        metadata = json.load(handle)
    config = config_from_echo(metadata["config"])
    rows: list[RealizationRecord] = []
    with raw_path.open(newline="") as handle:
        for entry in csv.DictReader(handle):
            rows.append(
                RealizationRecord(
                    k_users=int(entry["k_users"]),
                    realization=int(entry["realization"]),
                    seed=int(entry["seed"]),
                    sum_rate=float(entry["sum_rate_bit_per_s"]),
                    sum_power=float(entry["sum_power_w"]),
                    sum_power_incl_removed_circuit=float(
                        entry["sum_power_incl_removed_circuit_w"]
                    ),
                    global_ee=float(entry["global_ee_bit_per_joule"]),
                    outage_fraction=float(entry["outage_fraction"]),
                    removed_count=int(entry["removed_count"]),
                    removed_order=tuple(
                        int(u) for u in entry["removed_order"].split(";") if u != ""
                    ),
                    rounds=int(entry["rounds"]),
                    converged=entry["converged"] == "true",
                    stabilized_iteration=(
                        int(entry["stabilized_iteration"])
                        if entry["stabilized_iteration"] != ""
                        else None
                    ),
                    target_flagged=entry["target_flagged"] == "true",
                    draw_checksum=entry["draw_checksum"],
                )
            )
    errors = metadata.get("errors", [])
    return RunReport(
        config=config,
        rows=rows,
        aggregates=aggregate_rows(rows, errors),
        errors=errors,
        version=metadata.get("version", __version__),
    )


# ---------------------------------------------------------------------------
# Config file handling


def _geometry_from_dict(data: dict) -> Geometry:
    kind = data.get("kind")
    if kind == "ring":
        return RingGeometry(float(data["inner_radius_m"]), float(data["outer_radius_m"]))
    if kind == "fixed":
        return FixedGeometry(
            float(data["interest_distance_m"]),
            tuple(float(d) for d in data["interferer_distances_m"]),
        )
    raise ConfigurationError(f"geometry.kind must be 'ring' or 'fixed', got {kind!r}")


def _power_watt(section: dict, base: str, default_w: float) -> float:
    if f"{base}_dbm" in section:
        return dbm_to_watt(float(section[f"{base}_dbm"]))
    if f"{base}_w" in section:
        return float(section[f"{base}_w"])
    return default_w


def _user_counts(value) -> tuple[int, ...]:
    if isinstance(value, dict):
        return tuple(range(int(value["start"]), int(value["stop"]) + 1))
    return tuple(int(k) for k in value)


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a resolved config from a (nested) plain-dict document."""
    defaults = ScenarioConfig()
    system = data.get("system", {})
    radio = data.get("radio", {})
    control = data.get("control", {})
    tradeoff_data = data.get("tradeoff", {})
    tradeoff_defaults = TradeoffSettings()
    tradeoff = TradeoffSettings(
        interest_distance=float(
            tradeoff_data.get("interest_distance_m", tradeoff_defaults.interest_distance)
        ),
        interferer_distances=tuple(
            float(d)
            for d in tradeoff_data.get(
                "interferer_distances_m", tradeoff_defaults.interferer_distances
            )
        ),
        user_count=int(tradeoff_data.get("user_count", tradeoff_defaults.user_count)),
        interferer_power=_power_watt(
            tradeoff_data, "interferer_power", tradeoff_defaults.interferer_power
        ),
        sweep_points=int(tradeoff_data.get("sweep_points", tradeoff_defaults.sweep_points)),
        fading_draws=int(tradeoff_data.get("fading_draws", tradeoff_defaults.fading_draws)),
    )
    geometry = (
        _geometry_from_dict(system["geometry"]) if "geometry" in system else defaults.geometry
    )
    return ScenarioConfig(
        name=str(data.get("name", defaults.name)),
        seed=int(data.get("seed", defaults.seed)),
        realizations=int(data.get("realizations", defaults.realizations)),
        workers=int(data.get("workers", defaults.workers)),
        output_dir=str(data.get("output_dir", defaults.output_dir)),
        processing_gain=int(system.get("processing_gain", defaults.processing_gain)),
        user_counts=_user_counts(system.get("user_counts", defaults.user_counts)),
        receiver=str(system.get("receiver", defaults.receiver)),
        algorithm=str(system.get("algorithm", defaults.algorithm)),
        geometry=geometry,
        path_loss_exponent=float(
            system.get("path_loss_exponent", defaults.path_loss_exponent)
        ),
        fading=str(system.get("fading", defaults.fading)),
        bandwidth=float(radio.get("bandwidth_hz", defaults.bandwidth)),
        noise_power=_power_watt(radio, "noise_power", defaults.noise_power),
        max_power=_power_watt(radio, "max_power", defaults.max_power),
        circuit_power=_power_watt(radio, "circuit_power", defaults.circuit_power),
        packet_bits=int(radio.get("packet_bits", defaults.packet_bits)),
        info_bits=int(radio.get("info_bits", defaults.info_bits)),
        ber=float(radio.get("ber", defaults.ber)),
        min_rate=float(radio.get("min_rate_bps", defaults.min_rate)),
        alpha=float(control.get("alpha", defaults.alpha)),
        iterations=int(control.get("iterations", defaults.iterations)),
        resolve_targets_each_iteration=bool(
            control.get(
                "resolve_targets_each_iteration", defaults.resolve_targets_each_iteration
            )
        ),
        count_removed_circuit_power=bool(
            control.get("count_removed_circuit_power", defaults.count_removed_circuit_power)
        ),
        tradeoff=tradeoff,
    )


def config_from_echo(echo: dict) -> ScenarioConfig:
    """Rebuild a config from the canonical echo stored in metadata."""
    echo = copy.deepcopy(echo)
    geometry = _geometry_from_dict(echo.pop("geometry"))
    tradeoff_data = echo.pop("tradeoff")
    tradeoff = TradeoffSettings(
        interest_distance=tradeoff_data["interest_distance"],
        interferer_distances=tuple(tradeoff_data["interferer_distances"]),
        user_count=tradeoff_data["user_count"],
        interferer_power=tradeoff_data["interferer_power"],
        sweep_points=tradeoff_data["sweep_points"],
        fading_draws=tradeoff_data["fading_draws"],
    )
    echo["user_counts"] = tuple(echo["user_counts"])
    return ScenarioConfig(geometry=geometry, tradeoff=tradeoff, **echo)


def _merge_dicts(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _merge_dicts(merged[key], value)
        else:
            merged[key] = value
    return merged


def load_config_data(path: str | Path) -> dict:
    """Read a YAML config document from a path or a shipped preset name."""
    candidate = Path(path)
    if not candidate.exists():
        from importlib.resources import files

        preset = files("cdma_ee.presets").joinpath(f"{path}.yaml")
        if preset.is_file():
            return yaml.safe_load(preset.read_text())
        raise ConfigurationError(f"config {path!r} is neither a file nor a known preset")
    with candidate.open() as handle:
        data = yaml.safe_load(handle)
    if not isinstance(data, dict):
        raise ConfigurationError(f"config {path!r} must be a mapping document")
    return data


def expand_variants(data: dict) -> list[tuple[str, dict]]:
    """Expand the optional ``variants`` list into per-variant documents."""
    variants = data.get("variants")
    base = {k: v for k, v in data.items() if k != "variants"}
    if not variants:
        return [(str(base.get("name", "run")), base)]
    expanded = []
    for entry in variants:
        label = str(entry.get("name", f"variant{len(expanded)}"))
        override = {k: v for k, v in entry.items() if k != "name"}
        merged = _merge_dicts(base, override)
        merged["name"] = label
        expanded.append((label, merged))
    return expanded
