import copy
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import cdma_ee
from cdma_ee import cli, tradeoff
from cdma_ee.cli import main
from cdma_ee.harness import emit_results, read_report


def write_config(tmp_path, filename="config.yaml", **overrides):
    data = {
        "name": "cli_tiny",
        "seed": 777,
        "realizations": 2,
        "output_dir": str(tmp_path / "out"),
        "system": {
            "processing_gain": 15,
            "user_counts": [2, 3],
            "receiver": "mf",
            "algorithm": "alg1",
            "geometry": {"kind": "ring", "inner_radius_m": 50.0, "outer_radius_m": 200.0},
        },
        "control": {"iterations": 120},
        "tradeoff": {
            "interest_distance_m": 50.0,
            "interferer_distances_m": [200.0, 80.0],
            "user_count": 3,
            "interferer_power_dbm": 10.0,
            "sweep_points": 60,
            "fading_draws": 50,
        },
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key].update(value)
        else:
            data[key] = value
    path = tmp_path / filename
    path.write_text(yaml.safe_dump(data))
    return path


def test_run_subcommand(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    out_dir = tmp_path / "out"
    assert (out_dir / "raw.csv").exists()
    assert (out_dir / "aggregate.csv").exists()
    assert (out_dir / "metadata.json").exists()
    assert "[cli_tiny] 4 rows ->" in capsys.readouterr().out  # 2 K x 2 realizations


def test_run_with_overrides(tmp_path):
    config = write_config(tmp_path)
    target = tmp_path / "override"
    assert (
        main(
            [
                "run",
                "--config",
                str(config),
                "--seed",
                "9",
                "--realizations",
                "1",
                "--algorithm",
                "baseline",
                "--out",
                str(target),
            ]
        )
        == 0
    )
    meta = json.loads((target / "metadata.json").read_text())
    assert meta["seed"] == 9
    assert meta["config"]["system"]["algorithm"] == "baseline"
    assert meta["config"]["realizations"] == 1


def test_run_of_a_metadata_config_writes_the_same_tables(tmp_path):
    # the config echoed in metadata.json is a config document that reproduces the run
    config = write_config(tmp_path, radio={"noise_power_dbm": -90.0, "max_power_dbm": 10.0})
    assert main(["run", "--config", str(config)]) == 0
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(meta["config"]))
    assert main(["run", "--config", str(replay), "--out", str(tmp_path / "again")]) == 0
    for name in ("raw.csv", "aggregate.csv"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


def test_run_variants_make_subdirectories(tmp_path):
    config = write_config(
        tmp_path,
        variants=[
            {"name": "a1", "system": {"algorithm": "alg1"}},
            {"name": "b0", "system": {"algorithm": "baseline"}},
        ],
    )
    assert main(["run", "--config", str(config)]) == 0
    assert (tmp_path / "out/a1/raw.csv").exists()
    assert (tmp_path / "out/b0/raw.csv").exists()


@pytest.mark.parametrize(
    "variants, named",
    [
        (["alg1"], "variants[0] must be a mapping, got 'alg1'"),
        (5, "variants must be a list, got 5"),
        ([{"name": "a1"}, {"name": "a1", "system": {"algorithm": "baseline"}}],
         "variants[1] repeats the name 'a1'"),
    ],
    ids=["entry_not_mapping", "not_a_list", "repeated_name"],
)
def test_malformed_variants_exit_with_config_code(tmp_path, capsys, variants, named):
    config = write_config(tmp_path, variants=variants)
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and named in err
    assert not (tmp_path / "out").exists()


def test_bad_later_variant_exits_before_any_variant_runs(tmp_path, capsys):
    # every variant's config is checked first, so the good first variant writes nothing
    config = write_config(
        tmp_path,
        variants=[{"name": "a"}, {"name": "b", "system": {"user_counts": []}}],
    )
    assert main(["run", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert "system.user_counts must not be empty" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["../../escaped", "a/b", "/abs", "..", ".", "", "a/"])
def test_variant_names_outside_one_path_component_exit_with_config_code(tmp_path, capsys, name):
    # A variant writes under output_dir/<name>, so its name must not climb out of it.
    (tmp_path / "deep/er").mkdir(parents=True)
    config = write_config(
        tmp_path,
        output_dir=str(tmp_path / "deep/er/out"),
        variants=[{"name": "ok"}, {"name": name, "system": {"algorithm": "baseline"}}],
    )
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"variants[1].name must be one plain path component, got {name!r}" in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.yaml", "deep", "er"]


@pytest.mark.parametrize(
    "command, flag", [("solve", ["--out", "elsewhere"]), ("tradeoff", ["--algorithm", "alg2"])]
)
def test_overrides_a_subcommand_does_not_read_are_refused(tmp_path, capsys, command, flag):
    config = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tradeoff_subcommand(tmp_path):
    config = write_config(tmp_path, system={"fading": "none"})
    assert main(["tradeoff", "--config", str(config)]) == 0
    out_dir = tmp_path / "out"
    files = sorted(p.name for p in out_dir.glob("tradeoff_*.csv"))
    assert files == ["tradeoff_mf_d200.csv", "tradeoff_mf_d80.csv"]
    meta = json.loads((out_dir / "tradeoff_metadata.json").read_text())
    for entry in meta["curves"].values():
        assert entry["lambda_gap_bit_per_s_per_hz"] >= 0.0
        assert "coupling_reciprocal" in entry


def test_compare_subcommand(tmp_path, capsys):
    config_a = write_config(tmp_path, filename="a.yaml", output_dir=str(tmp_path / "ra"))
    config_b = write_config(
        tmp_path,
        filename="b.yaml",
        output_dir=str(tmp_path / "rb"),
        system={"algorithm": "baseline"},
    )
    assert main(["run", "--config", str(config_a)]) == 0
    assert main(["run", "--config", str(config_b)]) == 0
    out_csv = tmp_path / "verdicts.csv"
    code = main(
        [
            "compare",
            "--a",
            str(tmp_path / "ra"),
            "--b",
            str(tmp_path / "rb"),
            "--metric",
            "global_ee",
            "--out",
            str(out_csv),
        ]
    )
    assert code == 0
    assert "K=2" in capsys.readouterr().out
    assert out_csv.read_text().startswith("k_users,")


def test_solve_subcommand(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["solve", "--config", str(config), "--k", "3"]) == 0
    output = capsys.readouterr().out
    assert "K=3" in output
    assert "gain_pow" in output


def test_solve_refuses_negative_realization(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["solve", "--config", str(config), "--realization", "-1"]) == 2
    assert "--realization must be >= 0" in capsys.readouterr().err
    assert main(["solve", "--config", str(config), "--k", "0"]) == 2
    assert "--k must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("receiver", ["mf", "dec"])
def test_solve_matches_the_row_of_a_run(tmp_path, capsys, receiver):
    # 40 iterations leave some realizations with a removal
    config = write_config(
        tmp_path, realizations=3, system={"receiver": receiver, "user_counts": [3, 6]},
        control={"iterations": 40},
    )
    assert main(["run", "--config", str(config)]) == 0
    with (tmp_path / "out/raw.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 6 and any(row["removed_order"] for row in rows)
    capsys.readouterr()
    for row in rows:
        argv = ["--k", row["k_users"], "--realization", row["realization"]]
        assert main(["solve", "--config", str(config), *argv]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        removed = row["removed_order"].replace(";", ", ")
        assert f"rounds={row['rounds']} " in summary and summary.endswith(f"removed=[{removed}]")


def test_solve_of_a_refused_decorrelator_exits_with_numeric_code(tmp_path, capsys):
    # At N = 4, codes of seed 3 make some K = 4 correlation matrices singular or ill-conditioned.
    config = write_config(
        tmp_path, seed=3, realizations=20,
        system={"processing_gain": 4, "user_counts": [2, 4], "receiver": "dec"},
    )
    assert main(["run", "--config", str(config)]) == 0
    errors = json.loads((tmp_path / "out/metadata.json").read_text())["errors"]
    assert errors
    refused = errors[0]
    capsys.readouterr()
    argv = ["--k", str(refused["k_users"]), "--realization", str(refused["realization"])]
    assert main(["solve", "--config", str(config), *argv]) == 4
    assert capsys.readouterr().err == f"numerical error: {refused['error']}\n"


def test_missing_config_exits_with_config_code(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "tradeoff"])
def test_bad_receiver_k_combination_exits_numeric_or_config(tmp_path, capsys, command):
    config = write_config(
        tmp_path, system={"receiver": "dec", "user_counts": [40]}, tradeoff={"user_count": 40}
    )
    assert main([command, "--config", str(config)]) == 2
    assert "decorrelator needs K <= N" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tradeoff_codes_and_fading_draw_from_separate_streams(tmp_path, monkeypatch):
    # The codes and the fading take two children of the seed, and every curve
    # draws from the fading child as it stood at the start: the DEC curves,
    # which do not depend on the interferers, are then the same at every distance.
    seen = {"codes": [], "fading": []}
    real_codes, real_draw = cli.generate_codes, tradeoff.draw_channel

    def codes(processing_gain, users, rng):
        seen["codes"].append(copy.deepcopy(rng))
        return real_codes(processing_gain, users, rng)

    def draw(distances, exponent, fading, rng):
        seen["fading"].append(copy.deepcopy(rng))
        return real_draw(distances, exponent, fading, rng)

    monkeypatch.setattr(cli, "generate_codes", codes)
    monkeypatch.setattr(tradeoff, "draw_channel", draw)
    distances = [200, 100, 80]
    config = write_config(
        tmp_path, system={"receiver": "dec"}, tradeoff={"interferer_distances_m": distances}
    )
    assert main(["tradeoff", "--config", str(config)]) == 0
    [code_rng] = seen["codes"]
    fading = [rng.random(4) for rng in seen["fading"]]
    assert len(fading) == len(distances)
    assert not np.array_equal(code_rng.random(4), fading[0])
    assert all(np.array_equal(draws, fading[0]) for draws in fading)
    out = tmp_path / "out"
    curves = {(out / f"tradeoff_dec_d{d}.csv").read_bytes() for d in distances}
    assert len(curves) == 1


@pytest.mark.parametrize("distances", [[100.0, 100.0000001, 80.0], [80.0, 200.0, 80.0]])
def test_tradeoff_refuses_distances_that_name_one_curve_file(tmp_path, capsys, distances):
    # Each curve file is named by its distance to 6 significant digits.
    config = write_config(tmp_path, tradeoff={"interferer_distances_m": distances})
    assert main(["tradeoff", "--config", str(config)]) == 2
    assert "tradeoff.interferer_distances_m" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_single_user_tradeoff_writes_strict_json(tmp_path, capsys):
    config = write_config(tmp_path, tradeoff={"user_count": 1})
    assert main(["tradeoff", "--config", str(config)]) == 0
    assert "nan" not in capsys.readouterr().out.lower()

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    text = (tmp_path / "out" / "tradeoff_metadata.json").read_text()
    curves = json.loads(text, parse_constant=refuse)["curves"].values()
    assert all(c["coupling"] is None and c["coupling_reciprocal"] is None for c in curves)


def test_preset_configs_are_reachable(tmp_path):
    # presets resolve by name; keep the run tiny via overrides
    code = main(
        [
            "solve",
            "--config",
            "fig34_mixed",
            "--k",
            "2",
            "--seed",
            "3",
            "--algorithm",
            "baseline",
        ]
    )
    assert code == 0


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"radio": {"min_rate_bp": 5e5}}, "radio.min_rate_bp"),
        ({"control": {"iteration": 10}}, "control.iteration"),
        ({"system": {"recevier": "dec"}}, "system.recevier"),
        ({"control": {"resolve_targets_each_iteration": True}},
         "unknown config key(s): control.resolve_targets_each_iteration"),
        ({"radio": {"max_power_dbm": 10.0, "max_power_w": 0.01}}, "radio.max_power_w"),
        ({"system": 5}, "system"),
        ({"radio": {"info_bits": 90}}, "info_bits"),
        ({"radio": {"ber": 0.5}}, "ber"),
        ({"system": {"processing_gain": 0}}, "system.processing_gain"),
        ({"realizations": 2.7}, "realizations must be int"),
        ({"realizations": True}, "realizations must be int"),
        ({"tradeoff": {"user_count": 0}}, "tradeoff.user_count"),
        ({"radio": {"max_power_w": True}}, "radio.max_power_w must be float"),
        ({"seed": -1}, "seed"),
        ({"control": {"alpha": 1.0}}, "control.alpha"),
        ({"control": {"iterations": 0}}, "control.iterations"),
        ({"radio": {"circuit_power_w": float("nan")}}, "radio.circuit_power_w must be finite"),
        ({"radio": {"max_power_w": float("inf")}}, "radio.max_power_w must be finite"),
        ({"radio": {"bandwidth_hz": float("inf")}}, "radio.bandwidth_hz must be finite"),
        ({"radio": {"min_rate_bps": float("nan")}}, "radio.min_rate_bps must be finite"),
        ({"radio": {"max_power_dbm": 1.0e6}}, "radio.max_power_dbm overflows"),
        ({"radio": {"bandwidth_hz": 10**400}}, "radio.bandwidth_hz must be float"),
        ({"tradeoff": {"interest_distance_m": float("inf")}}, "tradeoff.interest_distance_m"),
        ({"system": {"user_counts": [2, 2, 3]}}, "system.user_counts must not repeat"),
        ({"system": {"fading": "foo"}}, "system.fading must be one of"),
        ({"system": {"path_loss_exponent": 0}}, "system.path_loss_exponent must be > 0"),
        ({"system": {"geometry": {"kind": "ring", "inner_radius_m": 300.0,
                                  "outer_radius_m": 200.0}}},
         "system.geometry: ring needs inner_radius < outer_radius"),
        ({"system": {"geometry": {"kind": "fixed", "interest_distance_m": 50.0,
                                  "interferer_distances_m": [80.0]}}},
         "system.geometry.kind must be one of ('ring',)"),
        ({"tradeoff": {"interferer_distances_m": []}},
         "tradeoff.interferer_distances_m must not be empty"),
        ({"control": {"count_removed_circuit_power": False}},
         "unknown config key(s): control.count_removed_circuit_power"),
        ({"system": {"user_counts": []}}, "system.user_counts must not be empty"),
        ({"workers": -3}, "workers must be >= 0"),
        # A kind that cannot be a mapping key is refused like any other kind.
        ({"system": {"geometry": {"kind": ["ring"], "inner_radius_m": 50.0,
                                  "outer_radius_m": 200.0}}},
         "system.geometry.kind must be one of ('ring',)"),
    ],
)
def test_bad_config_exits_with_config_code(tmp_path, capsys, overrides, named):
    config = write_config(tmp_path, **overrides)
    assert main(["solve", "--config", str(config), "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err


@pytest.mark.parametrize(
    "text, named",
    [("system: [unclosed\n", "is not valid YAML"), ("- a\n- b\n", "must be a mapping document")],
)
def test_unreadable_config_document_exits_with_config_code(tmp_path, capsys, text, named):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: config {str(path)!r} {named}")


def test_workers_env_var_makes_run_parallel_and_is_echoed(tmp_path, monkeypatch):
    monkeypatch.setenv("CDMA_EE_WORKERS", "2")
    assert main(["run", "--config", str(write_config(tmp_path))]) == 0
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["config"]["workers"] == 2 and meta["environment"]["workers"] == 2


@pytest.mark.parametrize(
    "value, named", [("junk", "workers must be int, got 'junk'"), ("2.5", "workers must be int"),
                     ("-1", "workers must be >= 0")]
)
def test_bad_workers_env_var_exits_with_config_code(tmp_path, capsys, monkeypatch, value, named):
    monkeypatch.setenv("CDMA_EE_WORKERS", value)
    assert main(["run", "--config", str(write_config(tmp_path))]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _drop_config(run_dir):
    meta = json.loads((run_dir / "metadata.json").read_text())
    del meta["config"]
    (run_dir / "metadata.json").write_text(json.dumps(meta))


def _edit_config(run_dir, edit):
    meta = json.loads((run_dir / "metadata.json").read_text())
    edit(meta["config"])
    (run_dir / "metadata.json").write_text(json.dumps(meta))


def _power_in_dbm(config):
    config["radio"]["noise_power_dbm"] = -90.0
    del config["radio"]["noise_power_w"]


def _set_removed_key(key, value):
    """An echo edit that sets a control key the config schema no longer has."""
    return lambda config: config["control"].update({key: value})


def _add_error_without_k(run_dir):
    meta = json.loads((run_dir / "metadata.json").read_text())
    meta["errors"].append({"realization": 0, "error": "receiver unavailable"})
    (run_dir / "metadata.json").write_text(json.dumps(meta))


def _errors_not_a_list(run_dir):
    meta = json.loads((run_dir / "metadata.json").read_text())
    meta["errors"] = {"k_users": 2}
    (run_dir / "metadata.json").write_text(json.dumps(meta))


def _append_raw_line(run_dir, line):
    with (run_dir / "raw.csv").open("a") as handle:
        handle.write(line + "\n")


def _set_raw_cell(run_dir, row, column, value):
    """Overwrite one cell of raw.csv; row 0 is the header."""
    path = run_dir / "raw.csv"
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    rows[row][rows[0].index(column)] = value
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)


@pytest.mark.parametrize(
    "damage, file, named",
    [
        (lambda d: _set_raw_cell(d, 0, "global_ee_bit_per_joule", "ee"), "raw.csv",
         "global_ee_bit_per_joule"),
        (_drop_config, "metadata.json", '"config"'),
        (lambda d: _set_raw_cell(d, 2, "converged", "yes"), "raw.csv",
         "line 3: bad converged value 'yes'"),
        (_add_error_without_k, "metadata.json", '"errors" entry'),
        (lambda d: _edit_config(d, lambda c: c["radio"].pop("ber")), "metadata.json", "radio.ber"),
        (lambda d: _edit_config(d, _power_in_dbm), "metadata.json", "radio.noise_power_dbm"),
        (lambda d: _edit_config(d, _set_removed_key("resolve_targets_each_iteration", True)),
         "metadata.json", "unknown config key(s): control.resolve_targets_each_iteration"),
        (lambda d: _edit_config(d, _set_removed_key("count_removed_circuit_power", False)),
         "metadata.json", "unknown config key(s): control.count_removed_circuit_power"),
        # Rows of K = 2 and 3 at one realization fill lines 2 and 3.
        (lambda d: _append_raw_line(d, "2,0"), "raw.csv", "line 4: wrong cell count"),
        (_errors_not_a_list, "metadata.json", '"errors" must be a list'),
    ],
    ids=["renamed_column", "no_config", "converged_yes", "error_without_k", "echo_without_ber",
         "echo_in_dbm", "echo_with_resolve_targets", "echo_with_removed_circuit",
         "short_raw_line", "errors_not_a_list"],
)
def test_compare_rejects_malformed_run(tmp_path, capsys, damage, file, named):
    assert main(["run", "--config", str(write_config(tmp_path)), "--realizations", "1"]) == 0
    run_dir = tmp_path / "out"
    damage(run_dir)
    assert main(["compare", "--a", str(run_dir), "--b", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert str(run_dir / file) in err and named in err


def test_read_report_spans_parse_blocks(tmp_path, capsys):
    # 80 raw.csv rows: more than one block of the column-wise parse.  Records,
    # bad cells and repeats past the first block keep their lines.
    config = write_config(tmp_path, realizations=40)
    assert main(["run", "--config", str(config)]) == 0
    run_dir = tmp_path / "out"
    report = read_report(run_dir)
    assert [(row.k_users, row.realization) for row in report.rows] == [
        (k, r) for k in (2, 3) for r in range(40)
    ]
    emit_results(report, tmp_path / "again")
    assert (tmp_path / "again" / "raw.csv").read_bytes() == (run_dir / "raw.csv").read_bytes()
    damaged = tmp_path / "damaged"
    shutil.copytree(run_dir, damaged)
    _set_raw_cell(damaged, 70, "converged", "yes")
    assert main(["compare", "--a", str(damaged), "--b", str(run_dir)]) == 2
    assert "raw.csv line 71: bad converged value 'yes'" in capsys.readouterr().err
    lines = (run_dir / "raw.csv").read_text().splitlines()
    _append_raw_line(run_dir, lines[1])
    assert main(["compare", "--a", str(run_dir), "--b", str(damaged)]) == 2
    assert "raw.csv line 82: repeats K=2, realization 0" in capsys.readouterr().err


def test_compare_of_a_directory_without_raw_csv_exits_with_io_code(tmp_path, capsys):
    assert main(["run", "--config", str(write_config(tmp_path)), "--realizations", "1"]) == 0
    run_dir = tmp_path / "out"
    (run_dir / "raw.csv").unlink()
    assert main(["compare", "--a", str(run_dir), "--b", str(run_dir)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and f"{run_dir} does not contain raw.csv" in err


def test_compare_refuses_a_repeated_raw_row(tmp_path, capsys):
    # A repeated (K, realization) row would count twice as a paired sample.
    for side, algorithm in (("ra", "alg1"), ("rb", "baseline")):
        config = write_config(
            tmp_path, filename=f"{side}.yaml", output_dir=str(tmp_path / side), realizations=4,
            system={"user_counts": [2], "algorithm": algorithm},
        )
        assert main(["run", "--config", str(config)]) == 0
    raw = tmp_path / "ra" / "raw.csv"
    _append_raw_line(tmp_path / "ra", raw.read_text().splitlines()[2])  # K = 2, realization 1
    argv = ["compare", "--a", str(tmp_path / "ra"), "--b", str(tmp_path / "rb")]
    assert main(argv) == 2
    assert f"{raw} line 6: repeats K=2, realization 1" in capsys.readouterr().err


def test_compare_refuses_runs_whose_draws_differ(tmp_path, capsys):
    assert main(["run", "--config", str(write_config(tmp_path)), "--realizations", "1"]) == 0
    run_dir, other = tmp_path / "out", tmp_path / "other"
    shutil.copytree(run_dir, other)
    _set_raw_cell(other, 2, "draw_checksum", "0" * 16)  # row 2: K = 3, realization 0
    assert main(["compare", "--a", str(run_dir), "--b", str(other)]) == 2
    err = capsys.readouterr().err
    assert "refusing comparison: draws differ at K=3, realization 0" in err


@pytest.mark.parametrize("command", ["run", "solve", "tradeoff"])
def test_underflowing_gains_exit_with_numeric_code(tmp_path, capsys, command):
    # d^-200 underflows every gain power to 0, on the ring and in the trade-off geometry
    config = write_config(tmp_path, system={"path_loss_exponent": 200.0})
    assert main([command, "--config", str(config)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical error: channel gain powers") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "solve", "tradeoff"])
def test_overflowing_interference_exits_with_numeric_code(tmp_path, capsys, command):
    # normal gains, but noise_power / gain_power overflows for every user
    config = write_config(tmp_path, radio={"noise_power_w": 1.0e307})
    assert main([command, "--config", str(config)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical error: effective interference") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["run", "solve"])
def test_overflowing_loop_interference_exits_with_numeric_code(tmp_path, capsys, command):
    # Gains near 1e252 pass the entry checks, but with a 1e300 W cap the received
    # powers of the matched-filter loop overflow after about 390 iterations: a
    # numerical error where it happens, with no warning before its one line.
    config = write_config(
        tmp_path, seed=3, realizations=4, control={"iterations": 500},
        system={"processing_gain": 15, "user_counts": [14], "algorithm": "baseline",
                "geometry": {"kind": "ring", "inner_radius_m": 1.0e-126,
                             "outer_radius_m": 2.0e-126}},
        radio={"max_power_w": 1.0e300},
    )
    argv = [command, "--config", str(config)] + (["--k", "14"] if command == "solve" else [])
    assert main(argv) == 4
    err = capsys.readouterr().err
    loop = "Verhulst loop: overflow encountered in multiply; check max_power_w"
    assert err == f"numerical error: {loop}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("receiver", ["mf", "dec"])
def test_a_loop_that_settles_far_below_a_huge_cap_runs(tmp_path, capsys, receiver):
    config = write_config(tmp_path, radio={"max_power_w": 1.0e300})
    assert main(["run", "--config", str(config), "--receiver", receiver]) == 0
    assert capsys.readouterr().err == ""
    with open(tmp_path / "out" / "raw.csv") as handle:
        powers = [float(row["sum_power_w"]) for row in csv.DictReader(handle)]
    assert len(powers) == 4 and max(powers) < 1.0


def _run_with_closed_stdout(argv):
    """Exit code and stderr of ``cdma-ee argv`` in a new interpreter whose stdout
    pipe is closed before the command prints."""
    src = str(Path(cdma_ee.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); from cdma_ee.cli import main; "
    code += f"sys.exit(main({argv!r}))"
    env = {k: v for k, v in os.environ.items() if k != "CDMA_EE_WORKERS"}
    proc = subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    return proc.wait(), err


def test_a_closed_stdout_does_not_change_the_outcome(tmp_path):
    config = write_config(
        tmp_path, variants=[{"name": "a"}, {"name": "b", "system": {"algorithm": "baseline"}}]
    )
    assert _run_with_closed_stdout(["run", "--config", str(config)]) == (0, "")
    for variant in ("a", "b"):
        assert (tmp_path / "out" / variant / "raw.csv").is_file()
    assert _run_with_closed_stdout(["solve", "--config", str(config), "--k", "3"]) == (0, "")
    # An unwritable result directory still fails as an i/o error.
    (tmp_path / "blocker").write_text("a file, not a directory")
    argv = ["run", "--config", str(config), "--realizations", "1"]
    code, err = _run_with_closed_stdout(argv + ["--out", str(tmp_path / "blocker" / "out")])
    assert code == 3 and err.startswith("i/o error: cannot write results")


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # no command needs SciPy, and no serial one the process pool: two runs and a
    # compare must import neither
    src = str(Path(cdma_ee.__file__).parents[1])
    runs = [tmp_path / "ra", tmp_path / "rb"]
    configs = [
        write_config(tmp_path, f"{run.name}.yaml", output_dir=str(run), realizations=3,
                     system={"user_counts": [2], "algorithm": algorithm})
        for run, algorithm in zip(runs, ["alg1", "baseline"])
    ]
    calls = [["run", "--config", str(c)] for c in configs]
    calls.append(["compare", "--a", str(runs[0]), "--b", str(runs[1])])
    code = f"import sys; sys.path.insert(0, {src!r}); from cdma_ee.cli import main; "
    code += f"codes = [main(argv) for argv in {calls!r}]; "
    code += "print(codes, 'scipy' in sys.modules, 'concurrent.futures.process' in sys.modules)"
    env = {k: v for k, v in os.environ.items() if k != "CDMA_EE_WORKERS"}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.splitlines()[-1] == "[0, 0, 0] False False"
