import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import cdma_ee
from cdma_ee.cli import main


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
    assert "cli_tiny" in capsys.readouterr().out


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
        ({"system": {"geometry": {"kind": "fixed", "interest_distance_m": 0.0,
                                  "interferer_distances_m": [80.0]}}},
         "system.geometry: all distances must be positive"),
        ({"tradeoff": {"interferer_distances_m": []}},
         "tradeoff.interferer_distances_m must not be empty"),
        ({"control": {"count_removed_circuit_power": False}},
         "unknown config key(s): control.count_removed_circuit_power"),
    ],
)
def test_bad_config_exits_with_config_code(tmp_path, capsys, overrides, named):
    config = write_config(tmp_path, **overrides)
    assert main(["solve", "--config", str(config), "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err


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
        (lambda d: _set_raw_cell(d, 1, "converged", "yes"), "raw.csv", "converged value 'yes'"),
        (_add_error_without_k, "metadata.json", '"errors" entry'),
        (lambda d: _edit_config(d, lambda c: c["radio"].pop("ber")), "metadata.json", "radio.ber"),
        (lambda d: _edit_config(d, _power_in_dbm), "metadata.json", "radio.noise_power_dbm"),
        (lambda d: _edit_config(d, _set_removed_key("resolve_targets_each_iteration", True)),
         "metadata.json", "unknown config key(s): control.resolve_targets_each_iteration"),
        (lambda d: _edit_config(d, _set_removed_key("count_removed_circuit_power", False)),
         "metadata.json", "unknown config key(s): control.count_removed_circuit_power"),
    ],
    ids=["renamed_column", "no_config", "converged_yes", "error_without_k", "echo_without_ber",
         "echo_in_dbm", "echo_with_resolve_targets", "echo_with_removed_circuit"],
)
def test_compare_rejects_malformed_run(tmp_path, capsys, damage, file, named):
    assert main(["run", "--config", str(write_config(tmp_path)), "--realizations", "1"]) == 0
    run_dir = tmp_path / "out"
    damage(run_dir)
    assert main(["compare", "--a", str(run_dir), "--b", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert str(run_dir / file) in err and named in err


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


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # no command needs SciPy: two runs and a compare must not import it
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
    code += "print(codes, 'scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[0, 0, 0] False"
