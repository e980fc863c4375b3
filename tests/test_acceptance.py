"""Acceptance suite: one test per criterion, each printing a PASS line.

Desk-scale Monte Carlo settings (200 paired realizations) keep the ensemble
orderings stable while finishing in minutes; run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest
import yaml

import cdma_ee as ce
from cdma_ee.cli import main as cli_main
from cdma_ee.harness import ScenarioConfig, aggregate_rows, run_experiment
from cdma_ee.seeding import realization_seed

from conftest import check_quasiconcavity, gamma_star, run_single, verify_nash

SEED = 20260810
REALIZATIONS = 200
WORKERS = 2

# float64 can expose the decorrelator identity at 1e-10 only while the
# correlation stays reasonably conditioned (the check itself carries
# eps * ||R^-1|| rounding); draws beyond this estimate are skipped and counted.
IDENTITY_COND_LIMIT = 3e4


def fig_params(circuit_power=None, min_rate=5e5):
    return ce.EEParams(
        packet_bits=80,
        info_bits=50,
        circuit_power=ce.dbm_to_watt(7.0) if circuit_power is None else circuit_power,
        bandwidth=1e6,
        max_power=ce.dbm_to_watt(10.0),
        noise_power=ce.dbm_to_watt(-90.0),
        ber=1e-3,
        min_rate=min_rate,
    )


def random_utility_scenarios(count, rng):
    """Random (interference, circuit power, gap, packet size) draws."""
    scenarios = []
    while len(scenarios) < count:
        packets = int(rng.integers(1, 200))
        info = int(rng.integers(1, packets + 1))
        ber = 10.0 ** rng.uniform(-8.0, np.log10(0.04))
        itf = 10.0 ** rng.uniform(-12.0, -4.0)
        circuit = 10.0 ** rng.uniform(-6.0, -2.0) if rng.random() > 0.25 else 0.0
        params = ce.EEParams(
            packet_bits=packets,
            info_bits=info,
            circuit_power=circuit,
            bandwidth=1e6,
            max_power=1e-2,
            noise_power=1e-12,
            ber=ber,
        )
        scenarios.append((itf, params, float(params.gap())))
    return scenarios


def aggregates_by_k(report, column):
    return {entry["k_users"]: entry[column] for entry in aggregate_rows(report.rows, report.errors)}


@pytest.fixture(scope="session")
def mixed_load_reports():
    """Criterion 8 runs: N=63, K=2..15, 200 paired realizations."""
    base = dict(
        seed=SEED,
        realizations=REALIZATIONS,
        workers=WORKERS,
        processing_gain=63,
        user_counts=tuple(range(2, 16)),
        iterations=500,
    )
    started = time.perf_counter()
    reports = {}
    for label, algorithm, receiver in (
        ("alg1_mf", "alg1", "mf"),
        ("alg2_mf", "alg2", "mf"),
        ("baseline_mf", "baseline", "mf"),
        ("alg1_dec", "alg1", "dec"),
        ("alg2_dec", "alg2", "dec"),
    ):
        config = ScenarioConfig(name=label, algorithm=algorithm, receiver=receiver, **base)
        reports[label] = run_experiment(config)
    return reports, time.perf_counter() - started


@pytest.fixture(scope="session")
def full_load_reports():
    """Criterion 9 runs: DEC, K=3..63, two minimum-rate criteria."""
    base = dict(
        seed=SEED,
        realizations=REALIZATIONS,
        workers=WORKERS,
        processing_gain=63,
        user_counts=tuple(range(3, 64)),
        receiver="dec",
        iterations=500,
    )
    reports = {}
    for label, algorithm, min_rate in (
        ("alg1", "alg1", 5e4),
        ("baseline", "baseline", 5e4),
        ("alg2_lo", "alg2", 5e4),
        ("alg2_hi", "alg2", 1e6),
    ):
        config = ScenarioConfig(name=label, algorithm=algorithm, min_rate=min_rate, **base)
        reports[label] = run_experiment(config)
    return reports


def test_criterion_01_quasiconcavity():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    grid = np.geomspace(1e-3, 1e6, 10_000)
    for itf, params, gap in random_utility_scenarios(100, rng):
        report = check_quasiconcavity(
            lambda g: ce.utility(g * itf, g, params, gap), grid, rng=rng
        )
        assert report.passed, (itf, params.circuit_power, report)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1 PASS: 100 utility curves unimodal on a 10^4-point log grid "
          f"({elapsed:.1f}s)")


def test_criterion_02_solver_vs_grid_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    oracle_grid = np.geomspace(1e-3, 1e7, 200_000)
    checked = 0
    worst = 0.0
    while checked < 100:
        (scenario,) = random_utility_scenarios(1, rng)
        itf, params, gap = scenario
        solved, no_interior = ce.solve_optimal_sinr_batch(np.array([itf]), params)
        if no_interior[0]:
            continue  # utility monotone on the bracket: no interior argmax to compare
        values = ce.utility(oracle_grid * itf, oracle_grid, params, gap)
        oracle = float(oracle_grid[np.argmax(values)])
        rel = abs(solved[0] - oracle) / oracle
        worst = max(worst, rel)
        assert rel < 1e-3, (itf, params.circuit_power, solved[0], oracle)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"ACCEPTANCE 2 PASS: solver matches brute-force argmax on {checked} scenarios "
          f"(worst rel diff {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_interference_invariance_without_circuit_power():
    params = fig_params(circuit_power=0.0)
    stars = [gamma_star(itf, params) for itf in (1e-12, 1e-9, 1e-6, 1e-3)]
    spread = (max(stars) - min(stars)) / min(stars)
    assert spread < 1e-6
    print(f"ACCEPTANCE 3 PASS: zero-circuit-power optimal SINR spread {spread:.2e} "
          f"over interference spanning 9 decades")


def test_criterion_04_decorrelator_identities():
    rng = np.random.default_rng(SEED + 2)
    checked = 0
    skipped = 0
    worst = 0.0
    while checked < 100:
        k = int(rng.integers(1, 64))
        codes = ce.generate_codes(63, k, rng)
        inverse = np.linalg.inv(codes.correlation)
        estimate = np.linalg.norm(codes.correlation, 1) * np.linalg.norm(inverse, 1)
        if estimate > IDENTITY_COND_LIMIT:
            skipped += 1  # identity not measurable at 1e-10 in float64
            continue
        # the receiver's noise enhancement is the diagonal of D'D, D = S R^-1
        enhancement = ce.dec_eff_interference(np.ones(k), codes.correlation, np.ones(k, bool), 1.0)
        assert np.array_equal(enhancement, np.diagonal(inverse))
        filters = codes.chips @ inverse
        error = float(np.max(np.abs(filters.T @ filters - inverse)))
        worst = max(worst, error)
        assert error < 1e-10, (k, estimate, error)
        checked += 1
    assert skipped < 40

    params = fig_params()
    scenario = ce.draw_scenario(ce.RingGeometry(50.0, 200.0), 12, 63, "dec", SEED)
    gain = scenario.channel.gain_power
    everyone = np.ones(12, dtype=bool)
    base = 1e-3 / ce.dec_eff_interference(
        gain, scenario.codes.correlation, everyone, params.noise_power
    )[0]
    for _ in range(20):
        # scaling an interferer's gain scales its received power p_j * h_j
        received = gain.copy()
        received[1:] *= rng.uniform(0.0, 1e-2, size=11) / 1e-3
        itf = ce.dec_eff_interference(
            received, scenario.codes.correlation, everyone, params.noise_power
        )
        assert 1e-3 / itf[0] == base  # bit identical
    print(f"ACCEPTANCE 4 PASS: decorrelator identity {worst:.2e} < 1e-10 on "
          f"{checked} code sets ({skipped} beyond the float64 envelope skipped); "
          f"DEC SINR bit-invariant to interferer powers")


def test_criterion_05_verhulst_convergence():
    params = fig_params()
    placement = np.array([50.0])
    channel = ce.draw_channel(placement, 2.0, "none")
    codes = ce.generate_codes(15, 1, SEED)
    scenario = ce.NetworkScenario(
        placement=placement, channel=channel, codes=codes, receiver="mf"
    )
    result = run_single(scenario, params, iterations=500, alpha=0.5)
    itf = params.noise_power / channel.gain_power[0]
    star = gamma_star(itf, params)
    single_err = abs(result.sinr[0, 0] - star) / star
    assert single_err < 1e-3

    multi_checked = 0
    worst = 0.0
    seed = 0
    while multi_checked < 5:
        seed += 1
        scenario = ce.draw_scenario(
            ce.RingGeometry(50.0, 200.0), 4, 63, "mf", realization_seed(SEED, seed)
        )
        result = run_single(scenario, params)
        if result.removed[0]:
            continue
        rel = np.max(np.abs(result.sinr - result.target_sinr) / result.target_sinr)
        worst = max(worst, float(rel))
        assert rel < 1e-3
        multi_checked += 1
    print(f"ACCEPTANCE 5 PASS: single-user SINR error {single_err:.2e}; "
          f"{multi_checked} multi-user MF fixed points within {worst:.2e}")


def test_criterion_06_nash_equilibrium_and_uniqueness():
    started = time.perf_counter()
    params = fig_params()
    rng = np.random.default_rng(SEED + 3)
    user_counts = {"mf": 4, "dec": 6}
    checked = 0
    seed = 0
    worst_gain = 0.0
    worst_restart = 0.0
    while checked < 50:
        seed += 1
        receiver = "mf" if checked % 2 == 0 else "dec"
        scenario = ce.draw_scenario(
            ce.RingGeometry(50.0, 200.0),
            user_counts[receiver],
            63,
            receiver,
            realization_seed(SEED, seed),
        )
        result = run_single(scenario, params, "alg1")
        if result.removed[0] or not result.converged[0]:
            continue
        report = verify_nash(result, scenario, params, algorithm="alg1", rng=rng)
        assert report.equilibrium, report.violations
        assert report.uniqueness_checked and report.uniqueness_ok
        worst_gain = max(worst_gain, report.max_improvement)
        worst_restart = max(worst_restart, report.restart_max_deviation)
        checked += 1
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE 6 PASS: 50 no-removal equilibria; best unilateral gain "
          f"{worst_gain:.2e} (< 1e-6), restart deviation {worst_restart:.2e} (< 1e-4) "
          f"({elapsed:.1f}s)")


def test_criterion_07_tradeoff_gap_ordering():
    started = time.perf_counter()
    params = fig_params()
    codes = ce.generate_codes(15, 3, np.random.default_rng(SEED))
    distances = (200.0, 100.0, 80.0)
    curves = ce.sweep_tradeoff(
        [[50.0, distance, distance] for distance in distances],
        codes,
        params,
        "mf",
        interferer_power=params.max_power,
        fading="rayleigh",
        fading_draws=5000,
        rng=np.random.default_rng(SEED),
    )
    gaps = {}
    for distance, curve in zip(distances, curves):
        assert curve.se_monotone and curve.ee_unimodal
        gaps[distance] = curve.lambda_gap
    elapsed = time.perf_counter() - started
    assert gaps[80.0] < gaps[100.0] < gaps[200.0]
    assert elapsed < 300.0
    print(f"ACCEPTANCE 7 PASS: lambda gap {gaps[80.0]:.3f} < {gaps[100.0]:.3f} < "
          f"{gaps[200.0]:.3f} bit/s/Hz as interference grows ({elapsed:.1f}s)")


def test_criterion_08_mixed_load_orderings(mixed_load_reports):
    reports, elapsed = mixed_load_reports
    ee = {l: aggregates_by_k(r, "mean_global_ee_bit_per_joule") for l, r in reports.items()}
    outage = {l: aggregates_by_k(r, "mean_outage_probability") for l, r in reports.items()}
    # like-for-like power accounting: keep removed users' circuit draw on both sides
    power = {
        l: aggregates_by_k(r, "mean_sum_power_incl_removed_circuit_w")
        for l, r in reports.items()
    }
    all_k = range(2, 16)
    high_k = range(7, 16)
    for k in high_k:
        assert ee["alg1_mf"][k] >= ee["alg2_mf"][k] >= ee["baseline_mf"][k], k
    for k in all_k:
        assert outage["alg1_mf"][k] >= outage["alg2_mf"][k], k
        assert outage["alg1_dec"][k] >= outage["alg2_dec"][k], k
    for k in high_k:
        assert power["alg1_dec"][k] < power["alg1_mf"][k], k
        assert power["alg2_dec"][k] < power["alg2_mf"][k], k
        assert outage["alg1_dec"][k] < outage["alg1_mf"][k], k
        assert outage["alg2_dec"][k] < outage["alg2_mf"][k], k
    # keeping non-optimal users transmitting buys sum rate at the EE's expense;
    # the ordering emerges once the load is high enough that removals bite
    # (below K=11, dropping poison users still *raises* the survivors' rates)
    sum_rate = {
        l: aggregates_by_k(r, "mean_sum_rate_bit_per_s") for l, r in reports.items()
    }
    for k in range(11, 16):
        assert sum_rate["baseline_mf"][k] >= sum_rate["alg2_mf"][k] >= sum_rate["alg1_mf"][k], k
    assert elapsed < 900.0
    print(f"ACCEPTANCE 8 PASS: EE ordering alg1>=alg2>=baseline (K>=7, MF), "
          f"outage(alg1)>=outage(alg2) all K, DEC beats MF in sum power and outage "
          f"for K>=7 ({elapsed:.0f}s for 5 paired runs x 200 realizations)")


def test_criterion_09_full_load_trends(full_load_reports):
    reports = full_load_reports
    ee = {l: aggregates_by_k(r, "mean_global_ee_bit_per_joule") for l, r in reports.items()}
    ks = sorted(ee["alg1"])
    assert ks == list(range(3, 64))
    for label in reports:
        values = [ee[label][k] for k in ks]
        assert np.all(np.diff(values) < 0.0), label
    toward_alg1_hi = np.mean([abs(ee["alg2_hi"][k] - ee["alg1"][k]) for k in ks])
    toward_alg1_lo = np.mean([abs(ee["alg2_lo"][k] - ee["alg1"][k]) for k in ks])
    toward_base_lo = np.mean([abs(ee["alg2_lo"][k] - ee["baseline"][k]) for k in ks])
    toward_base_hi = np.mean([abs(ee["alg2_hi"][k] - ee["baseline"][k]) for k in ks])
    assert toward_alg1_hi < toward_alg1_lo
    assert toward_base_lo < toward_base_hi
    print(f"ACCEPTANCE 9 PASS: DEC mean EE strictly decreasing over K=3..63 for all "
          f"schemes; |alg2-alg1| {toward_alg1_hi:.2e} (1 Mbps) < {toward_alg1_lo:.2e} "
          f"(50 kbps); |alg2-baseline| {toward_base_lo:.2e} (50 kbps) < "
          f"{toward_base_hi:.2e} (1 Mbps)")


def test_criterion_10_alg2_degenerates_to_alg1():
    # zero circuit power puts the optimal SINR near 7.29 while a 2 Mbit/s
    # floor maps to ~10.6, so the rate condition is implied by the SINR one
    params = ce.EEParams(
        packet_bits=80,
        info_bits=50,
        circuit_power=0.0,
        bandwidth=1e6,
        max_power=ce.dbm_to_watt(10.0),
        noise_power=1e-12,
        ber=1e-3,
        min_rate=2e6,
    )
    assert ce.rate(7.3, params.gap(), params.bandwidth) < params.min_rate
    with_removals = 0
    for seed in range(12):
        scenario = ce.draw_scenario(
            ce.RingGeometry(50.0, 200.0), 10, 15, "mf", realization_seed(SEED, seed)
        )
        one = run_single(scenario, params, "alg1")
        two = run_single(scenario, params, "alg2")
        assert one.removed == two.removed
        if one.active.any():
            scale = np.where(one.power > 0, one.power, 1.0)
            assert np.max(np.abs(one.power - two.power) / scale) < 1e-12
        with_removals += bool(one.removed[0])
    assert with_removals >= 3  # the removal path itself was exercised
    print(f"ACCEPTANCE 10 PASS: alg2 identical to alg1 on 12 scenarios with "
          f"min-SINR above the EE optimum ({with_removals} exercised removals)")


def test_criterion_11_pipeline_determinism(tmp_path):
    document = {
        "name": "determinism",
        "seed": SEED,
        "realizations": 8,
        "output_dir": str(tmp_path / "unused"),
        "system": {
            "processing_gain": 31,
            "user_counts": [2, 3],
            "receiver": "mf",
            "algorithm": "alg1",
            "geometry": {"kind": "ring", "inner_radius_m": 50.0, "outer_radius_m": 200.0},
        },
        "control": {"iterations": 300},
    }
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(document))
    outputs = {}
    for label, workers in (("serial_a", 0), ("serial_b", 0), ("parallel", 2)):
        out_dir = tmp_path / label
        document["workers"] = workers
        config_path.write_text(yaml.safe_dump(document))
        assert cli_main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
        outputs[label] = (
            (out_dir / "raw.csv").read_bytes(),
            (out_dir / "aggregate.csv").read_bytes(),
        )
    assert outputs["serial_a"] == outputs["serial_b"]
    assert outputs["serial_a"] == outputs["parallel"]
    print("ACCEPTANCE 11 PASS: run pipeline byte-identical across reruns and "
          "serial/parallel execution")
