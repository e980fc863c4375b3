"""Scenario configuration, Monte Carlo orchestration and file output.

A run sweeps the user count K over realizations.  ``run_block`` draws each
realization r of a block once, at the largest K, from the substream
``seed + r``; each K runs on the first K users of that draw, which equal a
fresh draw at K (see ``seeding``), and records a hash of those users' draws.
Under the matched filter every K of a block runs in one control batch.
``run`` and ``solve`` both go through it.
Two runs with equal seeds that differ only in algorithm or receiver therefore
consume identical draws, and their metrics compare as paired samples.  Blocks
of realizations are independent work units; results are sorted by
(K, realization) before aggregation, which makes the output identical under
serial and parallel execution.  ``write_csv`` and ``write_json`` write every
output file.
"""

from __future__ import annotations

import copy
import csv
import functools
import hashlib
import itertools
import json
import math
import os
import platform
from collections import Counter
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path, PurePath
from statistics import NormalDist
from typing import ClassVar, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from . import __version__
from .channel import FADING_KINDS, RingGeometry
from .control import ALGORITHMS, mf_width, run_control_batch
from .errors import ConfigurationError
from .metrics import EEParams, dbm_to_watt, global_ee, rate
from .scenario import RECEIVERS, draw_scenario, scenario_checksum
from .seeding import realization_seed
from .spreading import decorrelator_load_error

# MAI weight entries a block's matched-filter control batch may hold; more cut the run into blocks.
MF_BATCH_VALUES = 1 << 20

METRIC_FIELDS = {
    "sum_rate": "sum_rate",
    "sum_power": "sum_power",
    "sum_power_incl_removed_circuit": "sum_power_incl_removed_circuit",
    "global_ee": "global_ee",
    "outage": "outage_fraction",
    "removed_count": "removed_count",
}

# Config fields that cannot change a byte of raw.csv or aggregate.csv; config_hash leaves them out.
UNHASHED_KEYS = {"name", "output_dir", "workers"}
# Config fields allowed to differ between the two sides of a paired comparison:
# they select the scheme under test without touching the random draws.
PAIRABLE_KEYS = {*UNHASHED_KEYS, "algorithm", "receiver", "min_rate"}

# The sections of a YAML config document.
SYSTEM, RADIO, CONTROL, TRADEOFF = "system", "radio", "control", "tradeoff"


def _key(default, section: str | None = None, key: str | None = None, power: bool = False):
    """A config field at YAML ``key`` (default: its name) in ``section`` (default:
    the top level); a power is given as ``<key>_dbm`` or ``<key>_w`` and held in
    watts."""
    return field(default=default, metadata={"section": section, "key": key, "power": power})


def _path(*parts) -> str:
    return ".".join(str(part) for part in parts if part)


@dataclass(frozen=True)
class ScenarioConfig:
    """Resolved run configuration (powers in watts, rates in bit/s); the
    ``tradeoff`` section configures the EE-SE trade-off sweeps."""

    name: str = "run"
    seed: int = 20260810
    realizations: int = 200
    workers: int = 0
    output_dir: str = "results"
    processing_gain: int = _key(63, SYSTEM)
    user_counts: tuple[int, ...] = _key(tuple(range(2, 16)), SYSTEM)
    receiver: str = _key("mf", SYSTEM)
    algorithm: str = _key("alg1", SYSTEM)
    geometry: RingGeometry = _key(RingGeometry(50.0, 200.0), SYSTEM)
    path_loss_exponent: float = _key(2.0, SYSTEM)
    fading: str = _key("rayleigh", SYSTEM)
    bandwidth: float = _key(1e6, RADIO, "bandwidth_hz")
    noise_power: float = _key(1e-12, RADIO, power=True)
    max_power: float = _key(1e-2, RADIO, power=True)
    circuit_power: float = _key(dbm_to_watt(7.0), RADIO, power=True)
    packet_bits: int = _key(80, RADIO)
    info_bits: int = _key(50, RADIO)
    ber: float = _key(1e-3, RADIO)
    min_rate: float = _key(5e5, RADIO, "min_rate_bps")
    alpha: float = _key(0.5, CONTROL)
    iterations: int = _key(500, CONTROL)
    # Not config keys: constants that bench/checks.py still reads (lines 211, 241 and 261).
    resolve_targets_each_iteration: ClassVar[bool] = True
    count_removed_circuit_power: ClassVar[bool] = False
    interest_distance: float = _key(50.0, TRADEOFF, "interest_distance_m")
    interferer_distances: tuple[float, ...] = _key(
        (200.0, 100.0, 80.0), TRADEOFF, "interferer_distances_m"
    )
    tradeoff_user_count: int = _key(3, TRADEOFF, "user_count")
    interferer_power: float = _key(1e-2, TRADEOFF, power=True)
    sweep_points: int = _key(400, TRADEOFF)
    fading_draws: int = _key(5000, TRADEOFF)

    def __post_init__(self):
        counts = self.user_counts
        self._check(
            ("seed", self.seed >= 0, "must be >= 0"),
            ("realizations", self.realizations >= 1, "must be >= 1"),
            ("workers", self.workers >= 0, "must be >= 0"),
            ("processing_gain", self.processing_gain >= 1, "must be >= 1"),
            ("receiver", self.receiver in RECEIVERS, f"must be one of {RECEIVERS}"),
            ("algorithm", self.algorithm in ALGORITHMS, f"must be one of {ALGORITHMS}"),
            ("user_counts", len(counts) > 0, "must not be empty"),
            ("user_counts", min(counts, default=1) >= 1, "must be positive"),
            ("user_counts", len(set(counts)) == len(counts), "must not repeat"),
            ("path_loss_exponent", self.path_loss_exponent > 0.0, "must be > 0"),
            ("fading", self.fading in FADING_KINDS, f"must be one of {FADING_KINDS}"),
            ("alpha", 0.0 < self.alpha < 1.0, "must lie in (0, 1)"),
            ("iterations", self.iterations >= 1, "must be >= 1"),
            ("interest_distance", self.interest_distance > 0.0, "must be > 0"),
            ("interferer_distances", len(self.interferer_distances) > 0, "must not be empty"),
            ("interferer_distances", min(self.interferer_distances, default=1.0) > 0.0,
             "must all be > 0"),
            ("tradeoff_user_count", self.tradeoff_user_count >= 1, "must be >= 1"),
            ("interferer_power", self.interferer_power >= 0.0, "must be >= 0"),
            ("sweep_points", self.sweep_points >= 1, "must be >= 1"),
            ("fading_draws", self.fading_draws >= 1, "must be >= 1"),
        )
        try:
            self.ee_params()
        except ValueError as exc:  # every EEParams quantity lives under radio:
            raise ConfigurationError(f"{RADIO}: {exc}") from exc

    def _check(self, *checks) -> None:
        """Raise for the first ``(name, ok, need)`` of ``checks`` that is not ok,
        naming the field's section and key."""
        for name, ok, need in checks:
            if not ok:
                section, key, _ = _LOCATION[name]
                raise ConfigurationError(f"{_path(section, key)} {need}")

    def ee_params(self) -> EEParams:
        return EEParams(**{f.name: getattr(self, f.name) for f in fields(EEParams)})

    def echo_dict(self) -> dict:
        """The config as the YAML document that ``config_from_dict`` reads back to
        it: powers as ``<key>_w`` in watts, tuples as lists, a geometry as its mapping."""
        document = {}
        for name, (section, key, power) in _LOCATION.items():
            into = document.setdefault(section, {}) if section else document
            into[f"{key}_w" if power else key] = _plain(getattr(self, name))
        return document

    def config_hash(self) -> str:
        """Hash of the echo without ``UNHASHED_KEYS``."""
        echo = {k: v for k, v in self.echo_dict().items() if k not in UNHASHED_KEYS}
        canonical = json.dumps(echo, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# Config field -> (section, document key, is a power), from each field's ``_key``.
_LOCATION = {
    f.name: (f.metadata.get("section"), f.metadata.get("key") or f.name, f.metadata.get("power"))
    for f in fields(ScenarioConfig)
}
_HINTS = get_type_hints(ScenarioConfig)


@dataclass(frozen=True)
class RealizationRecord:
    """Metrics of one finished realization; a field's ``raw.csv`` column is its
    name unless its metadata names another."""

    k_users: int
    realization: int
    seed: int
    sum_rate: float = field(metadata={"column": "sum_rate_bit_per_s"})
    sum_power: float = field(metadata={"column": "sum_power_w"})
    sum_power_incl_removed_circuit: float = field(
        metadata={"column": "sum_power_incl_removed_circuit_w"}
    )
    global_ee: float = field(metadata={"column": "global_ee_bit_per_joule"})
    outage_fraction: float
    removed_count: int
    removed_order: tuple[int, ...]
    rounds: int
    converged: bool
    stabilized_iteration: int | None
    target_flagged: bool
    draw_checksum: str


def _parser(hint):
    """Parser of a ``raw.csv`` cell's text into a field of type ``hint``."""
    args = get_args(hint)
    if type(None) in args:
        inner = _parser(next(a for a in args if a is not type(None)))
        return lambda text: None if text == "" else inner(text)
    if get_origin(hint) is tuple:
        item = _parser(args[0])
        return lambda text: tuple(item(u) for u in text.split(";") if u != "")
    if hint is bool:
        return {"true": True, "false": False}.__getitem__
    return hint


# (raw.csv column, record field, cell parser), in column order.
_RAW_SCHEMA = [
    (f.metadata.get("column", f.name), f.name, _parser(hint))
    for f, hint in zip(fields(RealizationRecord), get_type_hints(RealizationRecord).values())
]
RAW_COLUMNS = [column for column, _, _ in _RAW_SCHEMA]

# aggregate.csv column of each per-K mean -> the record field it averages.
AGGREGATE_MEANS = {
    "mean_sum_rate_bit_per_s": "sum_rate",
    "mean_sum_power_w": "sum_power",
    "mean_sum_power_incl_removed_circuit_w": "sum_power_incl_removed_circuit",
    "mean_global_ee_bit_per_joule": "global_ee",
    "mean_outage_probability": "outage_fraction",
    "mean_removed_count": "removed_count",
    "converged_fraction": "converged",
}
AGGREGATE_COLUMNS = ["k_users", "realizations", "failed_realizations", *AGGREGATE_MEANS]


@dataclass
class RunReport:
    """Per-realization rows and run metadata; ``aggregate_rows`` derives the per-K means."""

    config: ScenarioConfig
    rows: list[RealizationRecord]
    errors: list[dict]
    # Per-K counters of the kept rows by str(K): verhulst_iterations, rounds, target_flagged.
    diagnostics: dict = field(default_factory=dict)
    # Software and host of the run (see ``run_environment``); no table reads it.
    environment: dict = field(default_factory=dict)


def aggregate_rows(rows: list[RealizationRecord], errors: list[dict]) -> list[dict]:
    """Arithmetic means of the raw rows, one entry per K."""
    failures = Counter(err["k_users"] for err in errors if "realization" in err)
    by_k: dict[int, list[RealizationRecord]] = {}
    for row in rows:
        by_k.setdefault(row.k_users, []).append(row)
    aggregates = []
    for k_users in sorted(by_k):
        group = by_k[k_users]
        counts = [k_users, len(group), failures.get(k_users, 0)]
        means = [float(np.mean([getattr(r, f) for r in group])) for f in AGGREGATE_MEANS.values()]
        aggregates.append(dict(zip(AGGREGATE_COLUMNS, counts + means)))
    return aggregates


def _refusal(config: ScenarioConfig, k_users: int) -> str | None:
    """Why the configured receiver cannot run K users, or None if it can."""
    dec = config.receiver == "dec"
    return decorrelator_load_error(k_users, config.processing_gain) if dec else None


def run_block(config: ScenarioConfig, user_counts: list[int], realizations: list[int]):
    """Draw a block of realizations once and run the configured scheme at every K.

    Refuses (``ConfigurationError``) a K that the receiver cannot take, before
    any draw.  Each realization is drawn at the largest of ``user_counts``, and
    each K runs on the first K users of every draw.  This relies on the prefix
    property of the draws (see ``seeding``): those users' draws are the ones a
    fresh draw at K gives.  Under the matched filter every K runs in one
    control batch, whose rows are (K, realization) pairs on those draws, each
    starting with its first K users active; under the decorrelator each K runs
    as its own batch.  Yields ``(K, seeds, draws, result)`` per K in
    ``user_counts`` order; the draws are those at the largest K.
    """
    for k_users in user_counts:
        if reason := _refusal(config, k_users):
            raise ConfigurationError(reason)
    seeds = [realization_seed(config.seed, r) for r in realizations]
    draws = [
        draw_scenario(
            config.geometry,
            max(user_counts),
            config.processing_gain,
            config.receiver,
            seed,
            config.path_loss_exponent,
            config.fading,
        )
        for seed in seeds
    ]
    params, size = config.ee_params(), len(draws)
    for group in [user_counts] if config.receiver == "mf" else [[k] for k in user_counts]:
        width = max(group)
        result = run_control_batch(
            np.stack([draw.channel.gain_power[:width] for _ in group for draw in draws]),
            np.stack([draw.codes.correlation[:width, :width] for _ in group for draw in draws]),
            config.receiver,
            config.algorithm,
            params,
            iterations=config.iterations,
            alpha=config.alpha,
            active=np.arange(width) < np.repeat(group, size)[:, None],
        )
        for i, k_users in enumerate(group):
            yield k_users, seeds, draws, result.part(slice(i * size, (i + 1) * size), k_users)


def _run_chunk(config: ScenarioConfig, user_counts: list[int], realizations: list[int]):
    """Run a block of realizations at every K and turn it into records (worker entry point).

    Returns, per K in ``user_counts`` order, ``(K, records, errors,
    diagnostics)``: the records of the kept realizations, an error entry for
    each refused one and the kept ones' counters: Verhulst iterations run and
    budgeted (rounds times ``iterations``), rounds and flagged solves.
    """
    params = config.ee_params()
    gap, circuit = params.gap(), params.circuit_power
    chunk = []
    for k_users, seeds, draws, result in run_block(config, user_counts, realizations):
        kept = np.flatnonzero(~result.failed)
        rounds = int(result.rounds[kept].sum())
        diagnostics = {
            "verhulst_iterations": {
                "run": int(result.iterations_run[kept].sum()), "budget": rounds * config.iterations
            },
            "rounds": rounds,
            "target_flagged": int(result.target_flagged[kept].sum()),
        }
        # Sum rate, sum power and global EE over the rows of each active count at once.
        sum_rate, sum_power, ee = (np.zeros(len(realizations)) for _ in range(3))
        counts = result.active[kept].sum(axis=1)
        for k in np.unique(counts):
            rows = kept[counts == k]
            active = result.active[rows]
            sinr = result.sinr[rows][active].reshape(rows.size, k)
            power = result.power[rows][active].reshape(rows.size, k)
            rates = rate(sinr, gap, config.bandwidth)
            sum_rate[rows] = rates.sum(axis=1)
            sum_power[rows] = (power + circuit).sum(axis=1)
            ee[rows] = global_ee(rates, sinr, power, params)
        errors = [
            dict(k_users=k_users, realization=realizations[b], error=result.failure_reasons[b])
            for b in np.flatnonzero(result.failed)
        ]
        records: list[RealizationRecord] = []
        for b in kept:
            n_removed = len(result.removed[b])
            stab = int(result.stabilized_iteration[b])
            records.append(
                RealizationRecord(
                    k_users=k_users,
                    realization=realizations[b],
                    seed=seeds[b],
                    sum_rate=float(sum_rate[b]),
                    sum_power=float(sum_power[b]),
                    sum_power_incl_removed_circuit=float(sum_power[b] + n_removed * circuit),
                    global_ee=float(ee[b]),
                    outage_fraction=n_removed / k_users,
                    removed_count=n_removed,
                    removed_order=tuple(result.removed[b]),
                    rounds=int(result.rounds[b]),
                    converged=bool(result.converged[b]),
                    stabilized_iteration=stab if stab >= 0 else None,
                    target_flagged=bool(result.target_flagged[b]),
                    draw_checksum=scenario_checksum(draws[b], k_users),
                )
            )
        chunk.append((k_users, records, errors, diagnostics))
    return chunk


def run_environment(workers: int) -> dict:
    """Python, NumPy and BLAS versions (BLAS None where NumPy does not report
    it), the host's CPU count and the ``workers`` that ran the blocks."""
    try:  # NumPy before 1.25 has no mode="dicts"
        blas = "{name} {version}".format(**np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        blas = None
    python, numpy, cpu_count = platform.python_version(), np.__version__, os.cpu_count()
    return dict(python=python, numpy=numpy, blas=blas, cpu_count=cpu_count, workers=workers)


def run_experiment(config: ScenarioConfig) -> RunReport:
    """Run the configured algorithm over the K sweep and all realizations."""
    errors: list[dict] = []
    user_counts: list[int] = []
    for k_users in config.user_counts:
        if reason := _refusal(config, k_users):
            errors.append({"k_users": k_users, "error": reason})
        else:
            user_counts.append(k_users)
    blocks = max(config.workers, 1)
    if config.receiver == "mf" and user_counts:  # see MF_BATCH_VALUES
        k_max = max(user_counts)
        values = config.realizations * len(user_counts) * k_max * mf_width(k_max)
        blocks = max(blocks, -(-values // MF_BATCH_VALUES))
    splits = np.array_split(range(config.realizations), blocks) if user_counts else []
    tasks = [split.tolist() for split in splits if len(split)]
    workers = max(min(config.workers, len(tasks)), 1)  # processes that run the blocks

    rows: list[RealizationRecord] = []
    diagnostics: dict[str, dict] = {}
    run_chunk = functools.partial(_run_chunk, config, user_counts)
    if workers > 1:  # only here: loading the pool costs every other CLI call time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_chunk, tasks))
    else:
        outcomes = list(map(run_chunk, tasks))
    for k_users, records, chunk_errors, counters in itertools.chain(*outcomes):
        rows.extend(records)
        errors.extend(chunk_errors)
        entry = diagnostics.setdefault(str(k_users), {"verhulst_iterations": Counter()})
        entry["verhulst_iterations"].update(counters.pop("verhulst_iterations"))
        entry.update({name: entry.get(name, 0) + count for name, count in counters.items()})

    rows.sort(key=lambda row: (row.k_users, row.realization))
    errors.sort(key=lambda err: (err["k_users"], err.get("realization", -1)))
    return RunReport(
        config=config,
        rows=rows,
        errors=errors,
        diagnostics=diagnostics,
        environment=run_environment(workers),
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


def _t_quantile(p: float, dof: int) -> float:
    """Student-t quantile at ``p >= 0.5`` for an integer ``dof`` >= 1.

    Newton steps on the closed-form CDF (Abramowitz & Stegun 26.7.3-4) start at
    the normal quantile, below the root; the CDF is concave there, so they climb
    to the root without overshooting it.
    """
    log_scale = math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2) - 0.5 * math.log(dof * math.pi)
    odd = dof % 2
    t = NormalDist().inv_cdf(p)
    for _ in range(100):
        cos2 = dof / (dof + t * t)
        term, series = (math.sqrt(cos2) if odd else 1.0), 0.0
        for j in range(dof // 2):
            series += term
            term *= (2 * j + 1 + odd) / (2 * j + 2 + odd) * cos2
        # P(|T| <= t): 26.7.3 for odd dof, 26.7.4 for even dof.
        central = t / math.sqrt(dof + t * t) * series
        if odd:
            central = (math.atan2(t, math.sqrt(dof)) + central) * 2.0 / math.pi
        density = math.exp(log_scale + (dof + 1) / 2 * math.log(cos2))
        step = (p - 0.5 - 0.5 * central) / density
        t += step
        if abs(step) <= 1e-15 * t:
            break
    return t


def paired_comparison(
    report_a: RunReport, report_b: RunReport, metric: str
) -> list[PairedVerdict]:
    """Paired per-K comparison of two runs on identical draws (95% t intervals)."""
    if metric not in METRIC_FIELDS:
        raise ConfigurationError(f"metric must be one of {sorted(METRIC_FIELDS)}")
    if report_a.config.seed != report_b.config.seed:
        raise ConfigurationError("refusing comparison: seeds differ")
    for name in sorted(_LOCATION.keys() - PAIRABLE_KEYS):
        if getattr(report_a.config, name) != getattr(report_b.config, name):
            raise ConfigurationError(
                f"refusing comparison: configs differ in {name!r} "
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
            half = float(_t_quantile(0.975, n - 1) * np.std(diffs, ddof=1) / np.sqrt(n))
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
        return repr(float(value))  # shortest round-trip rendering; repr(np.float64) names its type
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ";".join(str(u) for u in value)
    return str(value)


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    """Write ``header`` and then ``rows``, each cell as its ``_render`` text."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows([_render(v) for v in row] for row in [header, *rows])
    return path


def write_json(path: str | Path, data) -> Path:
    """Write ``data`` as indented JSON with sorted keys and a closing newline;
    refuse (``FloatingPointError``) a NaN or infinity, which JSON cannot hold."""
    path = Path(path)
    try:
        text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(f"{path}: {exc}") from exc
    path.write_text(text + "\n")
    return path


def emit_results(report: RunReport, out_dir: str | Path) -> dict[str, Path]:
    """Write the raw table, the aggregate table and the metadata sidecar."""
    out = Path(out_dir)
    checksums = {}
    for row in report.rows:
        digest = checksums.setdefault(str(row.k_users), hashlib.sha256())
        digest.update(row.draw_checksum.encode())
    metadata = {
        "version": __version__,
        "seed": report.config.seed,
        "config_hash": report.config.config_hash(),
        "config": report.config.echo_dict(),
        "draw_checksums": {k: v.hexdigest()[:16] for k, v in checksums.items()},
        "errors": report.errors,
        "diagnostics": report.diagnostics,
        "environment": report.environment,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    raw = ([getattr(row, name) for _, name, _ in _RAW_SCHEMA] for row in report.rows)
    aggregates = aggregate_rows(report.rows, report.errors)
    aggregate = ([entry[col] for col in AGGREGATE_COLUMNS] for entry in aggregates)
    try:
        out.mkdir(parents=True, exist_ok=True)
        return {
            "raw": write_csv(out / "raw.csv", RAW_COLUMNS, raw),
            "aggregate": write_csv(out / "aggregate.csv", AGGREGATE_COLUMNS, aggregate),
            "metadata": write_json(out / "metadata.json", metadata),
        }
    except OSError as exc:
        raise OSError(f"cannot write results under {out}: {exc}") from exc


def read_report(run_dir: str | Path) -> RunReport:
    """Load a previously emitted run directory back into a ``RunReport``."""
    run_dir = Path(run_dir)
    meta_path = run_dir / "metadata.json"
    raw_path = run_dir / "raw.csv"
    if not meta_path.exists() or not raw_path.exists():
        raise OSError(f"{run_dir} does not contain raw.csv and metadata.json")
    try:
        metadata = json.loads(meta_path.read_text())
        config = config_from_echo(metadata["config"])
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: bad JSON or a bad echo
        detail = 'no "config" entry' if isinstance(exc, (KeyError, TypeError)) else exc
        raise ConfigurationError(f"{meta_path}: {detail}") from exc
    rows: dict[tuple[int, int], RealizationRecord] = {}  # by (K, realization)
    with raw_path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        missing = [column for column in RAW_COLUMNS if column not in header]
        if missing:
            raise ConfigurationError(f"{raw_path}: missing column(s) {', '.join(missing)}")
        cells = [(header.index(column), column, parse) for column, _, parse in _RAW_SCHEMA]
        for line in reader:
            if len(line) != len(header):
                raise ConfigurationError(f"{raw_path} line {reader.line_num}: wrong cell count")
            values = []
            for i, column, parse in cells:
                try:
                    values.append(parse(line[i]))
                except (KeyError, ValueError) as exc:
                    bad = f"bad {column} value {line[i]!r}"
                    raise ConfigurationError(f"{raw_path} line {reader.line_num}: {bad}") from exc
            row = RealizationRecord(*values)
            if (pair := (row.k_users, row.realization)) in rows:  # a pair is one paired sample
                where = f"{raw_path} line {reader.line_num}"
                raise ConfigurationError(f"{where}: repeats K={pair[0]}, realization {pair[1]}")
            rows[pair] = row
    errors = metadata.get("errors", [])
    if not isinstance(errors, list):
        raise ConfigurationError(f'{meta_path}: "errors" must be a list')
    for entry in errors:  # a per-realization failure counts against its K
        if not isinstance(entry, dict) or (
            "realization" in entry and type(entry.get("k_users")) is not int
        ):
            raise ConfigurationError(f'{meta_path}: bad "errors" entry {entry!r}')
    return RunReport(
        config=config,
        rows=list(rows.values()),
        errors=errors,
        diagnostics=metadata.get("diagnostics", {}),
        environment=metadata.get("environment", {}),
    )


# ---------------------------------------------------------------------------
# Config file handling


def _plain(value):
    """A config value as plain data: tuples as lists, a geometry as its document mapping."""
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, RingGeometry):  # each radius at its field name plus "_m"
        return {"kind": "ring", **{f"{f.name}_m": getattr(value, f.name) for f in fields(value)}}
    return value


def _check_keys(data, known, path: str, required=()) -> dict:
    """``data`` as a mapping with no key outside ``known`` and every ``required`` key."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path or 'config'} must be a mapping, got {data!r}")
    unknown = [key for key in data if key not in known]
    missing = [key for key in required if key not in data]
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            names = ", ".join(_path(path, key) for key in keys)
            raise ConfigurationError(f"{problem} config key(s): {names}")
    return data


def _coerce(value, hint, path: str):
    """A document value as a field of type ``hint``; errors name ``path``."""
    if hint is RingGeometry:
        keys = tuple(f"{f.name}_m" for f in fields(RingGeometry))  # as _plain writes them
        if not isinstance(value, dict) or value.get("kind") != "ring":
            raise ConfigurationError(f"{_path(path, 'kind')} must be one of ('ring',)")
        _check_keys(value, ("kind", *keys), path, required=keys)
        args = [_coerce(value[k], float, _path(path, k)) for k in keys]
        try:
            return RingGeometry(*args)
        except ConfigurationError as exc:  # the geometry's own checks name no key
            raise ConfigurationError(f"{path}: {exc}") from exc
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        if isinstance(value, dict) and item is int:  # {start, stop}, both included
            ends = ("start", "stop")
            _check_keys(value, ends, path, required=ends)
            start, stop = (_coerce(value[k], int, _path(path, k)) for k in ends)
            value = range(start, stop + 1)
        if not isinstance(value, (list, tuple, range)):
            raise ConfigurationError(f"{path} must be a list, got {value!r}")
        return tuple(_coerce(v, item, path) for v in value)
    if (hint in (int, float) and isinstance(value, bool)) or (
        hint is int and isinstance(value, float) and not value.is_integer()
    ):  # int() and float() would turn true into 1, int() truncates 2.7 to 2
        raise ConfigurationError(f"{path} must be {hint.__name__}, got {value!r}")
    try:
        value = hint(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{path} must be {hint.__name__}, got {value!r}") from exc
    if hint is float and not math.isfinite(value):
        raise ConfigurationError(f"{path} must be finite, got {value!r}")
    return value


def config_from_dict(data: dict, overrides: dict | None = None) -> ScenarioConfig:
    """Build a resolved config from a YAML document (its ``variants`` list is
    expanded by ``expand_variants``); ``overrides`` sets fields by name (the
    command line's ``--seed`` and the like)."""
    if isinstance(data, dict):
        data = {key: value for key, value in data.items() if key != "variants"}
    keys = {}  # (section, document key) -> (field name, key holds dBm)
    for name, (section, key, power) in _LOCATION.items():
        for suffix, dbm in (("_dbm", True), ("_w", False)) if power else (("", False),):
            keys[section, key + suffix] = (name, dbm)
    sections = {section for section, _ in keys if section}
    _check_keys(data, sections.union(key for section, key in keys if not section), "")
    for section in sections & set(data):
        _check_keys(data[section], {key for s, key in keys if s == section}, section)

    values, paths = {}, {}
    for (section, key), (name, dbm) in keys.items():
        source = data.get(section, {}) if section else data
        if key not in source:
            continue
        path = _path(section, key)
        if name in paths:
            raise ConfigurationError(f"{paths[name]} and {path} exclude each other")
        paths[name] = path
        value = source[key]
        if dbm:
            try:
                value = dbm_to_watt(_coerce(value, float, path))
            except OverflowError:
                raise ConfigurationError(f"{path} overflows in watts, got {value!r}") from None
        values[name] = _coerce(value, _HINTS[name], path)
    for name, value in (overrides or {}).items():
        values[name] = _coerce(value, _HINTS[name], name)
    return ScenarioConfig(**values)


def _differences(a, b, path: str = "") -> list[str]:
    """The dotted keys at which plain documents ``a`` and ``b`` differ."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if a == b else [path]
    keys = sorted(a.keys() | b.keys())
    return [d for key in keys for d in _differences(a.get(key), b.get(key), _path(path, key))]


def config_from_echo(echo: dict) -> ScenarioConfig:
    """Rebuild a config from its echo in metadata, a config document that must
    equal the rebuilt config's own echo: every key, each power in watts."""
    config = config_from_dict(echo)
    if differ := _differences(echo, config.echo_dict()):
        raise ConfigurationError(f"config is not a run's echo: it differs at {', '.join(differ)}")
    return config


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
    source = Path(path)
    if not source.exists():
        from importlib.resources import files

        source = files("cdma_ee.presets").joinpath(f"{path}.yaml")
        if not source.is_file():
            raise ConfigurationError(f"config {path!r} is neither a file nor a known preset")
    try:
        data = yaml.safe_load(source.read_text())
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config {path!r} is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"config {path!r} must be a mapping document")
    return data


def expand_variants(data: dict) -> list[tuple[str, dict]]:
    """Expand the optional ``variants`` list into per-variant documents, one per name."""
    variants = data.get("variants", [])
    if not isinstance(variants, list):
        raise ConfigurationError(f"variants must be a list, got {variants!r}")
    base = {k: v for k, v in data.items() if k != "variants"}
    expanded = {}
    for index, entry in enumerate(variants or [{"name": base.get("name", "run")}]):
        if not isinstance(entry, dict):
            raise ConfigurationError(f"variants[{index}] must be a mapping, got {entry!r}")
        label = str(entry.get("name", f"variant{index}"))
        # A variant's name names its directory under output_dir.
        if variants and (PurePath(label).parts != (label,) or label in (".", "..")):
            raise ConfigurationError(
                f"variants[{index}].name must be one plain path component, got {label!r}"
            )
        if label in expanded:
            raise ConfigurationError(f"variants[{index}] repeats the name {label!r}")
        override = {k: v for k, v in entry.items() if k != "name"}
        expanded[label] = {**_merge_dicts(base, override), "name": label}
    return list(expanded.items())
