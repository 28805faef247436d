import json
from fractions import Fraction

import pytest

from treewave.cli import main
from treewave.errors import ConfigError, ParameterError, TruncationError
from treewave.experiment import ExperimentConfig, resolve_initial_data, run_experiment
from treewave.functions import RadialProfile, TreeFunction
from treewave.scalars import QSurd, ScalarMode
from treewave.topology import VertexAddress
from treewave.verify import run_verification


def test_experiment_manifest_counts_and_agreement(tmp_path):
    config = ExperimentConfig(q=2, steps=8, solver="both", out=str(tmp_path / "run"))
    out_dir = run_experiment(config)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["snapshot_count"] == 17
    assert manifest["snapshots"] == list(range(-8, 9))
    assert manifest["closed_recurrence_agreement"] == "exact"
    assert "wall_time_seconds" in manifest
    assert len(manifest["files"]) == 17 + 2  # snapshots + energy + huygens


def test_experiment_rejects_small_radius_naming_time(tmp_path):
    config = ExperimentConfig(q=2, steps=8, radius=4, out=str(tmp_path / "run"))
    with pytest.raises(TruncationError, match="n="):
        run_experiment(config)


def test_invalid_config_names_field():
    with pytest.raises(ConfigError, match="'q'"):
        ExperimentConfig(q=1).validated()
    with pytest.raises(ConfigError, match="'steps'"):
        ExperimentConfig(steps=0).validated()
    with pytest.raises(ConfigError, match="'solver'"):
        ExperimentConfig(solver="magic").validated()
    with pytest.raises(ConfigError, match="'schedule'"):
        ExperimentConfig(schedule="linear").validated()
    with pytest.raises(ConfigError, match="'schedule'"):
        ExperimentConfig(schedule=-1).validated()


def test_energy_column_is_constant_five_sixteenths(tmp_path):
    config = ExperimentConfig(q=2, steps=6, solver="both", out=str(tmp_path / "run"))
    out_dir = run_experiment(config)
    rows = (out_dir / "energy.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    e_a = header.index("E_a")
    e_b = header.index("E_b")
    for row in rows[1:]:
        parts = row.split(",")
        assert parts[e_a] == "5/16"
        assert parts[e_b] == "0"


def test_outputs_are_byte_stable(tmp_path):
    blobs = []
    for attempt in ("one", "two"):
        config = ExperimentConfig(
            q=2,
            steps=4,
            seed=11,
            initial={"f": "random", "g": "random"},
            out=str(tmp_path / attempt),
        )
        out_dir = run_experiment(config)
        content = {
            path.name: path.read_bytes()
            for path in sorted(out_dir.iterdir())
            if path.suffix == ".csv"
        }
        manifest = json.loads((out_dir / "manifest.json").read_text())
        manifest.pop("wall_time_seconds")
        manifest["config"].pop("out")
        content["manifest"] = json.dumps(manifest, sort_keys=True).encode()
        blobs.append(content)
    assert blobs[0] == blobs[1]


def test_initial_data_from_serialized_function(tmp_path):
    f = TreeFunction(
        2, ScalarMode.EXACT, [(VertexAddress(2, (1,)), QSurd(Fraction(3, 2), 0, 2))]
    )
    config = ExperimentConfig(q=2, steps=3, initial={"f": f.to_json(), "g": "zero"})
    resolved_f, resolved_g = resolve_initial_data(config)
    assert resolved_f == f
    assert not resolved_g


def test_initial_data_mismatched_q_rejected():
    f = TreeFunction.delta(3, ScalarMode.EXACT)
    config = ExperimentConfig(q=2, steps=3, initial={"f": f.to_json()})
    with pytest.raises(ConfigError, match="'initial'"):
        resolve_initial_data(config)


def test_cli_propagate_and_exit_codes(tmp_path, capsys):
    assert main(["propagate", "--q", "2", "--steps", "3", "--out", str(tmp_path / "a")]) == 0
    assert (tmp_path / "a" / "manifest.json").exists()
    # small radius: truncation exit code
    assert (
        main(
            [
                "propagate",
                "--q",
                "2",
                "--steps",
                "6",
                "--radius",
                "3",
                "--out",
                str(tmp_path / "b"),
            ]
        )
        == 3
    )
    capsys.readouterr()


def test_cli_verify_reports_and_negative_control(capsys):
    assert main(["verify", "--q", "2", "--size", "small", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert "PASS" in first and "FAIL" not in first
    assert main(["verify", "--q", "2", "--size", "small", "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second  # identical report bytes on rerun
    assert (
        main(["verify", "--q", "2", "--size", "small", "--seed", "5", "--negative-control"])
        == 1
    )
    control = capsys.readouterr().out
    assert "FAIL energy conservation" in control


def test_cli_transforms_schema(tmp_path, capsys):
    assert main(["transforms", "--q", "2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in ("abel", "abel_inverse", "dual_abel", "dual_abel_inverse"):
        header = (tmp_path / f"{name}.csv").read_text().splitlines()[0]
        assert header.endswith("exact_value_a,exact_value_b,float_value")


def test_cli_float_mode_agreement_recorded(tmp_path):
    config = ExperimentConfig(
        q=2, steps=4, mode="float64", solver="both", out=str(tmp_path / "f")
    )
    out_dir = run_experiment(config)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["closed_recurrence_agreement"].startswith("max abs deviation")


def test_env_var_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TREEWAVE_OUT", str(tmp_path / "env"))
    assert main(["energy", "--q", "2", "--steps", "3"]) == 0
    capsys.readouterr()
    assert (tmp_path / "env" / "energy.csv").exists()


def test_cli_huygens_fixed_margin(tmp_path, capsys):
    code = main(
        ["huygens", "--q", "2", "--steps", "7", "--schedule", "2", "--out", str(tmp_path)]
    )
    capsys.readouterr()
    assert code == 0
    rows = (tmp_path / "huygens.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    n_col, margin_col = header.index("n"), header.index("margin")
    mass_a = header.index("mass_a")
    by_n = {row.split(",")[n_col]: row.split(",") for row in rows[1:]}
    assert all(parts[margin_col] == "2" for parts in by_n.values())
    assert by_n["6"][mass_a] == "7/256"


def test_cli_bad_schedule_is_usage_error(tmp_path, capsys):
    code = main(
        ["huygens", "--q", "2", "--steps", "4", "--schedule", "cubic", "--out", str(tmp_path)]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "'schedule'" in err


def _fails_closed(argv, field, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert f"'{field}'" in err and "Traceback" not in err


def test_cli_verify_rejects_q_below_two(capsys):
    _fails_closed(["verify", "--q", "1", "--size", "small"], "q", capsys)


def test_cli_transforms_rejects_q_below_two(tmp_path, capsys):
    _fails_closed(["transforms", "--q", "1", "--out", str(tmp_path)], "q", capsys)


def test_cli_verify_rejects_non_integer_q_list(capsys):
    _fails_closed(["verify", "--q", "2,x", "--size", "small"], "q", capsys)


def test_cli_missing_initial_file(tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    _fails_closed(
        ["propagate", "--initial", str(missing), "--out", str(tmp_path / "run")], "initial", capsys
    )


def _write_json(path, blob):
    path.write_text(json.dumps(blob), encoding="utf-8")
    return str(path)


def test_cli_transforms_initial_rejects_non_integer_radius_and_q(tmp_path, capsys):
    profile = {"q": 2, "entries": [{"n": 1.5, "value": "1"}]}
    initial = _write_json(tmp_path / "radius.json", profile)
    _fails_closed(["transforms", "--initial", initial, "--out", str(tmp_path / "a")], "n", capsys)
    assert not (tmp_path / "a").exists()
    profile = {"q": 2.9, "entries": [{"n": 1, "value": "1"}]}
    initial = _write_json(tmp_path / "q.json", profile)
    _fails_closed(["transforms", "--initial", initial, "--out", str(tmp_path / "b")], "q", capsys)


def test_cli_propagate_initial_rejects_non_integer_q(tmp_path, capsys):
    f = TreeFunction.delta(2, ScalarMode.EXACT).to_json()
    initial = _write_json(tmp_path / "f.json", {"f": {**f, "q": 2.5}})
    _fails_closed(["propagate", "--initial", initial, "--out", str(tmp_path / "run")], "q", capsys)


def test_cli_propagate_initial_rejects_non_finite_float64(tmp_path, capsys):
    f = TreeFunction.delta(2, ScalarMode.FLOAT64).to_json()
    f["entries"][0]["value"] = float("nan")
    initial = _write_json(tmp_path / "f.json", {"f": f})
    out = tmp_path / "run"
    _fails_closed(
        ["propagate", "--mode", "float", "--initial", initial, "--out", str(out)], "initial", capsys
    )
    assert not out.exists()


def test_cli_negative_schedule_fails_before_any_output(tmp_path, capsys):
    out = tmp_path / "run"
    _fails_closed(["propagate", "--schedule", "-1", "--out", str(out)], "schedule", capsys)
    assert not out.exists()


def test_verification_rejects_an_unknown_size():
    with pytest.raises(ParameterError, match="'size'"):
        run_verification(size="huge")


def test_cli_verify_passes_where_trailing_sphere_means_vanish(capsys):
    # seed 6 draws a height sequence whose sphere mean at radius 6 vanishes
    # while s(6) does not; the dual inversion must still round-trip
    assert main(["verify", "--q", "2,3", "--seed", "6", "--size", "small"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_transforms_initial_keeps_the_profile_mode(tmp_path, capsys):
    names = ("abel", "abel_inverse", "dual_abel", "dual_abel_inverse")
    exact = RadialProfile(3, ScalarMode.EXACT, [(0, QSurd(1, 0, 3)), (2, QSurd(Fraction(1, 2), 1, 3))])
    tables = {}
    for label, profile, mode in (
        ("float", exact.as_float64(), "exact"),  # --mode sets only the default delta
        ("exact", exact, "float"),
        ("exact-default", exact, "exact"),
    ):
        initial = _write_json(tmp_path / f"{label}.json", profile.to_json())
        out = tmp_path / label
        assert main(["transforms", "--initial", initial, "--mode", mode, "--out", str(out)]) == 0
        capsys.readouterr()
        tables[label] = {name: (out / f"{name}.csv").read_text() for name in names}
    assert tables["exact"] == tables["exact-default"]
    for name in names:
        rows = tables["float"][name].splitlines()[1:]
        assert rows and all(row.split(",")[1:3] == ["", ""] for row in rows)
