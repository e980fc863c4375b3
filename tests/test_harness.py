import concurrent.futures
import csv
import dataclasses
import json
import os
import platform

import numpy as np
import pytest

import cdma_ee as ce
from cdma_ee import control, harness
from cdma_ee.harness import (
    ScenarioConfig,
    _t_quantile,
    aggregate_rows,
    config_from_dict,
    emit_results,
    expand_variants,
    load_config_data,
    paired_comparison,
    read_report,
    run_block,
    run_experiment,
)


def tiny_config(**overrides):
    base = dict(
        name="tiny",
        seed=424242,
        realizations=3,
        workers=0,
        processing_gain=15,
        user_counts=(2, 3),
        receiver="mf",
        algorithm="alg1",
        geometry=ce.RingGeometry(50.0, 200.0),
        iterations=120,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_config_default_matches_study_parameters():
    config = ScenarioConfig()
    assert config.noise_power == pytest.approx(1e-12)
    assert config.max_power == pytest.approx(1e-2)
    assert config.circuit_power == pytest.approx(10.0 ** (-2.3))
    params = config.ee_params()
    assert params.packet_bits == 80 and params.info_bits == 50


def test_config_from_dict_with_dbm_and_range():
    data = {
        "name": "x",
        "seed": 5,
        "system": {
            "processing_gain": 15,
            "user_counts": {"start": 2, "stop": 5},
            "receiver": "dec",
            "algorithm": "alg2",
            "geometry": {"kind": "ring", "inner_radius_m": 20.0, "outer_radius_m": 100.0},
        },
        "radio": {"noise_power_dbm": -90.0, "max_power_dbm": 10.0, "circuit_power_w": 0.0,
                  "min_rate_bps": 1e6},
        "control": {"iterations": 50, "alpha": 0.25},
    }
    config = config_from_dict(data)
    assert config.user_counts == (2, 3, 4, 5)
    assert config.noise_power == pytest.approx(1e-12)
    assert config.circuit_power == 0.0
    assert config.geometry == ce.RingGeometry(20.0, 100.0)
    assert config.alpha == 0.25
    assert config.min_rate == 1e6


def test_config_validation_errors():
    with pytest.raises(ce.ConfigurationError):
        tiny_config(receiver="zf")
    with pytest.raises(ce.ConfigurationError):
        tiny_config(algorithm="foo")
    with pytest.raises(ce.ConfigurationError):
        tiny_config(realizations=0)
    with pytest.raises(ce.ConfigurationError):
        tiny_config(user_counts=())


def test_config_hash_ignores_output_dir_and_workers():
    config = tiny_config()
    moved = dataclasses.replace(config, output_dir="elsewhere", workers=2)
    assert moved.config_hash() == config.config_hash()
    renamed = dataclasses.replace(config, name="renamed")
    assert renamed.config_hash() == config.config_hash()
    assert dataclasses.replace(config, seed=1).config_hash() != config.config_hash()


def test_presets_load_and_resolve():
    for preset in ("fig2_tradeoff", "fig34_mixed", "fig56_fullload"):
        data = load_config_data(preset)
        for label, document in expand_variants(data):
            config = config_from_dict(document)
            assert config.processing_gain in (15, 63)
    variants = expand_variants(load_config_data("fig56_fullload"))
    labels = [label for label, _ in variants]
    assert labels == ["alg1_dec", "baseline_dec", "alg2_dec_rmin50k", "alg2_dec_rmin1m"]
    rates = {label: config_from_dict(doc).min_rate for label, doc in variants}
    assert rates["alg2_dec_rmin1m"] == pytest.approx(1e6)


def test_unknown_config_raises():
    with pytest.raises(ce.ConfigurationError):
        load_config_data("no_such_preset")


def test_run_experiment_single_user_hits_analytic_optimum():
    config = tiny_config(user_counts=(1,), fading="none", realizations=2, iterations=500)
    report = run_experiment(config)
    assert all(row.outage_fraction == 0.0 for row in report.rows)
    params = config.ee_params()
    gap = params.gap()
    grid = np.geomspace(1e-3, 1e7, 300_000)
    for row in report.rows:
        # The row's own draw: its user's distance on the ring sets the interference.
        scenario = ce.draw_scenario(
            config.geometry, 1, config.processing_gain, "mf", row.seed, fading="none"
        )
        itf = params.noise_power / scenario.channel.gain_power[0]
        star = grid[np.argmax(ce.utility(grid * itf, grid, params, gap))]
        best = float(ce.utility(star * itf, star, params, gap))
        assert abs(row.global_ee - best) / best < 1e-3


def test_aggregates_are_means_of_rows():
    config = tiny_config(realizations=2)
    report = run_experiment(config)
    aggregates = aggregate_rows(report.rows, report.errors)
    for k_users in config.user_counts:
        rows = [row for row in report.rows if row.k_users == k_users]
        (entry,) = [e for e in aggregates if e["k_users"] == k_users]
        assert entry["realizations"] == 2
        assert entry["mean_global_ee_bit_per_joule"] == pytest.approx(
            np.mean([r.global_ee for r in rows]), rel=1e-15
        )
        assert entry["mean_sum_power_w"] == pytest.approx(
            np.mean([r.sum_power for r in rows]), rel=1e-15
        )


def test_dec_above_processing_gain_records_error_and_continues():
    config = tiny_config(receiver="dec", user_counts=(2, 40), processing_gain=15)
    report = run_experiment(config)
    assert {row.k_users for row in report.rows} == {2}
    assert any(err["k_users"] == 40 and "K <= N" in err["error"] for err in report.errors)


def test_paired_draws_share_checksums():
    config_a = tiny_config(algorithm="alg1")
    config_b = tiny_config(algorithm="baseline")
    report_a = run_experiment(config_a)
    report_b = run_experiment(config_b)
    sums_a = [(r.k_users, r.realization, r.draw_checksum) for r in report_a.rows]
    sums_b = [(r.k_users, r.realization, r.draw_checksum) for r in report_b.rows]
    assert sums_a == sums_b


@pytest.mark.parametrize("receiver", ["mf", "dec"])
def test_first_users_of_a_draw_equal_a_fresh_draw(receiver):
    # The harness runs every K on a slice of one draw at the largest K.
    ring = ce.RingGeometry(50.0, 200.0)
    for seed in (7, 20260810):
        full = ce.draw_scenario(ring, 63, 63, receiver, seed)
        for k in (1, 3, 13, 33, 62, 63):
            fresh = ce.draw_scenario(ring, k, 63, receiver, seed)
            pairs = [
                (full.placement[:k], fresh.placement),
                (full.channel.gains[:k], fresh.channel.gains),
                (full.channel.gain_power[:k], fresh.channel.gain_power),
                (full.codes.chips[:, :k], fresh.codes.chips),
                (full.codes.correlation[:k, :k], fresh.codes.correlation),
            ]
            for a, b in pairs:
                assert a.shape == b.shape
                assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
            assert ce.scenario_checksum(full, k) == ce.scenario_checksum(fresh)


@pytest.mark.parametrize(
    "receiver, user_counts", [("mf", (3, 13)), ("dec", (3, 13)), ("dec", (3, 20, 13))]
)
def test_k_sweep_equals_each_k_run_alone(monkeypatch, receiver, user_counts):
    drawn = []
    draw = harness.draw_scenario

    def counting_draw(geometry, k, *args):
        drawn.append(k)
        return draw(geometry, k, *args)

    monkeypatch.setattr(harness, "draw_scenario", counting_draw)
    sweep = run_experiment(tiny_config(receiver=receiver, user_counts=user_counts))
    # One draw per realization, at the largest K the receiver accepts (N = 15).
    assert drawn == [13] * 3
    alone = [run_experiment(tiny_config(receiver=receiver, user_counts=(k,))) for k in user_counts]
    assert sweep.rows == sorted(
        (row for report in alone for row in report.rows), key=lambda row: row.k_users
    )
    assert sweep.errors == sorted(
        (err for report in alone for err in report.errors),
        key=lambda err: (err["k_users"], err.get("realization", -1)),
    )
    assert sweep.diagnostics == {k: v for report in alone for k, v in report.diagnostics.items()}
    if 20 in user_counts:
        refusal = {"k_users": 20, "error": "decorrelator needs K <= N, got K=20 > N=15"}
        assert refusal in sweep.errors


@pytest.mark.parametrize("receiver, calls", [("mf", 1), ("dec", 3)])
def test_run_block_makes_one_control_batch_per_block_under_mf_and_per_k_under_dec(
    monkeypatch, receiver, calls
):
    widths = []

    def counting_run(gain_power, *args, **kwargs):
        widths.append(gain_power.shape)
        return control.run_control_batch(gain_power, *args, **kwargs)

    monkeypatch.setattr(harness, "run_control_batch", counting_run)
    config = tiny_config(receiver=receiver, user_counts=(2, 5, 12), iterations=60)
    blocks = list(run_block(config, list(config.user_counts), [0, 1, 2]))
    assert [k for k, _, _, _ in blocks] == [2, 5, 12]
    assert [result.power.shape for _, _, _, result in blocks] == [(3, 2), (3, 5), (3, 12)]
    assert widths == ([(9, 12)] if receiver == "mf" else [(3, 2), (3, 5), (3, 12)])
    assert len(widths) == calls


def test_mf_runs_cut_into_blocks_at_the_value_budget_change_no_row(monkeypatch):
    config = tiny_config(user_counts=(2, 5, 12), realizations=5, iterations=60)
    whole = run_experiment(config)
    calls = []

    def counting_run(*args, **kwargs):
        calls.append(len(args[0]))
        return control.run_control_batch(*args, **kwargs)

    # A realization brings 3 rows of 12 users summing over 16, 576 weights: 1153 hold two.
    monkeypatch.setattr(harness, "MF_BATCH_VALUES", 2 * 3 * 12 * 16 + 1)
    monkeypatch.setattr(harness, "run_control_batch", counting_run)
    cut = run_experiment(config)
    assert calls == [6, 6, 3]
    assert cut.rows == whole.rows
    assert cut.errors == whole.errors and cut.diagnostics == whole.diagnostics


def read_aggregate_csv(run_dir):
    """The entries of a written aggregate.csv, every cell as a float."""
    with (run_dir / "aggregate.csv").open(newline="") as handle:
        return [{k: float(v) for k, v in line.items()} for line in csv.DictReader(handle)]


def test_emit_and_read_round_trip(tmp_path):
    # 30 iterations leave rows with a removal and no stabilized iteration.
    config = tiny_config(realizations=2, iterations=30)
    report = run_experiment(config)
    assert any(row.removed_order for row in report.rows)
    assert any(row.stabilized_iteration is None for row in report.rows)
    first, second = tmp_path / "out", tmp_path / "again"
    paths = emit_results(report, first)
    loaded = read_report(first)
    assert loaded.rows == report.rows
    aggregates = aggregate_rows(report.rows, report.errors)
    assert aggregate_rows(loaded.rows, loaded.errors) == aggregates
    assert read_aggregate_csv(first) == aggregates
    assert loaded.config == config
    meta = json.loads(paths["metadata"].read_text())
    assert config_from_dict(meta["config"]) == config
    assert meta["seed"] == config.seed
    assert meta["config_hash"] == config.config_hash()
    assert set(meta["draw_checksums"]) == {str(k) for k in config.user_counts}
    # emit -> read -> emit writes the same bytes.
    emit_results(loaded, second)
    for name in ("raw.csv", "aggregate.csv"):
        assert (second / name).read_bytes() == (first / name).read_bytes()
    meta_again = json.loads((second / "metadata.json").read_text())
    meta.pop("timestamp"), meta_again.pop("timestamp")
    assert meta_again == meta


def test_emit_rerun_is_byte_identical(tmp_path):
    config = tiny_config()
    emit_results(run_experiment(config), tmp_path / "a")
    emit_results(run_experiment(config), tmp_path / "b")
    assert (tmp_path / "a/raw.csv").read_bytes() == (tmp_path / "b/raw.csv").read_bytes()
    assert (
        tmp_path / "a/aggregate.csv"
    ).read_bytes() == (tmp_path / "b/aggregate.csv").read_bytes()
    meta_a = json.loads((tmp_path / "a/metadata.json").read_text())
    meta_b = json.loads((tmp_path / "b/metadata.json").read_text())
    meta_a.pop("timestamp"), meta_b.pop("timestamp")
    assert meta_a == meta_b


@pytest.mark.parametrize("receiver", ["mf", "dec"])
def test_parallel_run_matches_serial(tmp_path, receiver):
    serial = run_experiment(tiny_config(workers=0, receiver=receiver))
    parallel = run_experiment(tiny_config(workers=2, receiver=receiver))
    assert serial.rows == parallel.rows
    assert serial.diagnostics == parallel.diagnostics
    emit_results(serial, tmp_path / "s")
    emit_results(parallel, tmp_path / "p")
    assert (tmp_path / "s/raw.csv").read_bytes() == (tmp_path / "p/raw.csv").read_bytes()


def test_metadata_records_the_environment_outside_the_config(tmp_path):
    serial = run_experiment(tiny_config(workers=0))
    parallel = run_experiment(tiny_config(workers=2))
    written = []
    for name, report in (("s", serial), ("p", parallel)):
        paths = emit_results(report, tmp_path / name)
        written.append(json.loads(paths["metadata"].read_text()))
    for meta, workers in zip(written, (1, 2)):
        environment = meta["environment"]
        assert environment == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": environment["blas"],
            "cpu_count": os.cpu_count(),
            "workers": workers,
        }
        assert environment["blas"] is None or isinstance(environment["blas"], str)
        assert "environment" not in meta["config"]
    assert written[0]["config_hash"] == written[1]["config_hash"]
    for name in ("raw.csv", "aggregate.csv"):
        assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()
    assert read_report(tmp_path / "p").environment == written[1]["environment"]


def test_metadata_counts_verhulst_iterations_per_k(tmp_path):
    config = tiny_config(realizations=4, iterations=300)
    report = run_experiment(config)
    paths = emit_results(report, tmp_path / "out")
    diagnostics = json.loads(paths["metadata"].read_text())["diagnostics"]
    assert set(diagnostics) == {"2", "3"}
    for k, entry in diagnostics.items():
        counts = entry["verhulst_iterations"]
        rounds = sum(row.rounds for row in report.rows if row.k_users == int(k))
        assert counts["budget"] == rounds * config.iterations
        assert 0 < counts["run"] < counts["budget"]  # rows here leave their rounds early
        assert entry["rounds"] == rounds
        flagged = sum(row.target_flagged for row in report.rows if row.k_users == int(k))
        assert entry["target_flagged"] == flagged


# A 30 mW circuit power near the base station flags some solves, not all.
NEAR = dict(geometry=ce.RingGeometry(1.0, 200.0), circuit_power=0.03, realizations=6)


@pytest.mark.parametrize(
    "overrides, refusals",
    [
        (NEAR, False),
        (dict(NEAR, receiver="dec"), False),
        # N = K = 4: about half the decorrelators are refused, row by row.
        (dict(processing_gain=4, user_counts=(2, 4), realizations=20, receiver="dec"), True),
    ],
)
def test_diagnostics_count_kept_rows_alike_serial_and_parallel(tmp_path, overrides, refusals):
    serial = run_experiment(tiny_config(**overrides))
    parallel = run_experiment(tiny_config(workers=2, **overrides))
    assert serial.rows == parallel.rows and serial.errors == parallel.errors
    emit_results(serial, tmp_path / "s")
    emit_results(parallel, tmp_path / "p")
    written = [json.loads((tmp_path / d / "metadata.json").read_text()) for d in "sp"]
    assert written[0]["diagnostics"] == written[1]["diagnostics"]
    assert written[0]["errors"] == written[1]["errors"]
    for k, entry in written[0]["diagnostics"].items():
        rows = [row for row in serial.rows if row.k_users == int(k)]
        assert entry["rounds"] == sum(row.rounds for row in rows)
        assert entry["target_flagged"] == sum(row.target_flagged for row in rows)
    if refusals:
        assert any("realization" in err for err in serial.errors)
    else:
        flagged = sum(entry["target_flagged"] for entry in written[0]["diagnostics"].values())
        assert 0 < flagged < len(serial.rows)


def test_grouped_metrics_equal_each_row_alone():
    # DEC at N = 4 over a wide ring: rows keep all, some or none of their users.
    config = tiny_config(
        realizations=20,
        processing_gain=4,
        user_counts=(3, 4),
        receiver="dec",
        geometry=ce.RingGeometry(50.0, 2000.0),
        max_power=1e-3,
        iterations=100,
    )
    report = run_experiment(config)
    records = {(row.k_users, row.realization): row for row in report.rows}
    assert {row.removed_count == row.k_users for row in report.rows} == {True, False}
    assert any(0 < row.removed_count < row.k_users for row in report.rows)
    params = config.ee_params()
    circuit = params.circuit_power
    realizations = list(range(config.realizations))
    for k_users, _, _, result in run_block(config, list(config.user_counts), realizations):
        for b in np.flatnonzero(~result.failed):
            row = records[k_users, b]
            active = result.active[b]
            sinr, power = result.sinr[b][active], result.power[b][active]
            rates = ce.rate(sinr, params.gap(), config.bandwidth)
            delivered = params.load_fraction * rates * ce.packet_success(sinr, params.packet_bits)
            total = np.sum(power + circuit)
            assert row.sum_rate == float(np.sum(rates))
            assert row.sum_power == float(total)
            assert row.sum_power_incl_removed_circuit == float(total + row.removed_count * circuit)
            assert row.global_ee == (float(np.sum(delivered) / total) if total > 0.0 else 0.0)
            if not active.any():
                assert row.global_ee == 0.0


def test_run_experiment_takes_its_worker_count_from_the_config_alone(monkeypatch):
    # The variable is a `cdma-ee run` override (test_cli); library callers set config.workers.
    monkeypatch.setenv("CDMA_EE_WORKERS", "3")
    assert run_experiment(tiny_config(workers=0)).environment["workers"] == 1


def test_a_run_of_one_block_builds_no_pool(monkeypatch):
    def refuse(**_):
        pytest.fail("a process pool was built for a single block")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    report = run_experiment(tiny_config(realizations=1, workers=2))
    assert report.environment["workers"] == 1 and len(report.rows) == 2


def test_header_only_tables_when_no_valid_k(tmp_path):
    config = tiny_config(receiver="dec", user_counts=(40,), processing_gain=15)
    report = run_experiment(config)
    assert report.rows == []
    paths = emit_results(report, tmp_path / "empty")
    raw_lines = paths["raw"].read_text().strip().splitlines()
    agg_lines = paths["aggregate"].read_text().strip().splitlines()
    assert len(raw_lines) == 1 and len(agg_lines) == 1


def test_full_precision_round_trip(tmp_path):
    config = tiny_config(realizations=2)
    report = run_experiment(config)
    emit_results(report, tmp_path / "rt")
    loaded = read_report(tmp_path / "rt")
    for original, parsed in zip(report.rows, loaded.rows):
        assert parsed.global_ee == original.global_ee  # exact, not approximate
        assert parsed.sum_rate == original.sum_rate


def test_emit_writes_the_aggregates_of_the_rows_it_is_given(tmp_path):
    # A report whose rows were replaced gets the new rows' means, not the old ones'.
    report = run_experiment(tiny_config())
    rows = [dataclasses.replace(r, global_ee=r.global_ee + r.realization) for r in report.rows]
    emit_results(dataclasses.replace(report, rows=rows), tmp_path)
    written = read_aggregate_csv(tmp_path)
    assert written == aggregate_rows(rows, report.errors)
    assert written != aggregate_rows(report.rows, report.errors)


def test_paired_comparison_identical_runs():
    report = run_experiment(tiny_config())
    verdicts = paired_comparison(report, report, "global_ee")
    assert all(v.verdict == "indistinguishable" and v.mean_diff == 0.0 for v in verdicts)


def test_paired_comparison_detects_signal():
    report_a = run_experiment(tiny_config(algorithm="alg1"))
    report_b = run_experiment(tiny_config(algorithm="baseline"))
    # same draws, different schemes: comparison is accepted and paired
    verdicts = paired_comparison(report_a, report_b, "global_ee")
    assert len(verdicts) == 2
    for v in verdicts:
        assert v.samples == 3


# scipy.stats.t.ppf(0.975, dof), computed with SciPy 1.17.1
T_975 = {
    1: 12.706204736174694,
    2: 4.302652729749462,
    3: 3.1824463052837078,
    5: 2.5705818356363146,
    10: 2.228138851986274,
    30: 2.0422724563012378,
    100: 1.9839715185235518,
    199: 1.9719565442517533,
    1000: 1.9623390808264083,
    1999: 1.9611514201705613,
}


@pytest.mark.parametrize("dof", sorted(T_975))
def test_t_quantile_matches_reference_table(dof):
    assert _t_quantile(0.975, dof) == pytest.approx(T_975[dof], rel=1e-12, abs=0.0)


def test_paired_comparison_interval_is_mean_plus_minus_t_sem():
    report = run_experiment(tiny_config())
    diffs = {2: [2.0, 3.0, 4.0], 3: [-3.0, -2.5, -2.0]}

    def with_ee(offsets):
        rows = [dataclasses.replace(r, global_ee=offsets(r)) for r in report.rows]
        return dataclasses.replace(report, rows=rows)

    report_a = with_ee(lambda r: 10.0 + diffs[r.k_users][r.realization])
    report_b = with_ee(lambda r: 10.0)
    verdicts = paired_comparison(report_a, report_b, "global_ee")
    assert [v.verdict for v in verdicts] == ["a>b", "b>a"]
    for v in verdicts:
        d = np.asarray(diffs[v.k_users])
        half = T_975[2] * np.std(d, ddof=1) / np.sqrt(3)
        assert v.samples == 3 and v.mean_diff == pytest.approx(np.mean(d), rel=1e-15)
        assert v.ci_low == pytest.approx(np.mean(d) - half, rel=1e-12)
        assert v.ci_high == pytest.approx(np.mean(d) + half, rel=1e-12)


def test_paired_comparison_refusals():
    report_a = run_experiment(tiny_config())
    report_b = run_experiment(tiny_config(seed=999))
    with pytest.raises(ce.ConfigurationError):
        paired_comparison(report_a, report_b, "global_ee")
    report_c = run_experiment(tiny_config(processing_gain=31))
    with pytest.raises(ce.ConfigurationError):
        paired_comparison(report_a, report_c, "global_ee")
    with pytest.raises(ce.ConfigurationError):
        paired_comparison(report_a, report_a, "nonsense_metric")


def test_emit_to_unwritable_path_raises(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    report = run_experiment(tiny_config())
    with pytest.raises(OSError) as excinfo:
        emit_results(report, blocker / "sub")
    assert "blocker" in str(excinfo.value)


def test_aggregate_rows_counts_failures():
    report = run_experiment(tiny_config())
    errors = [{"k_users": 2, "realization": 0, "error": "x"}]
    aggregates = aggregate_rows(report.rows, errors)
    entry = [a for a in aggregates if a["k_users"] == 2][0]
    assert entry["failed_realizations"] == 1


def test_write_json_refuses_non_finite_numbers(tmp_path):
    target = tmp_path / "bad.json"
    with pytest.raises(FloatingPointError) as excinfo:
        harness.write_json(target, {"coupling": float("nan")})
    assert "bad.json" in str(excinfo.value) and not target.exists()
