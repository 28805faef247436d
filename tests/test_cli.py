import csv
import io
import json
from collections import Counter
from fractions import Fraction

import pytest

import treewave.cli
import treewave.energy
import treewave.experiment
import treewave.transforms
import treewave.wave
from treewave import verify
from treewave.cli import main
from treewave.errors import ConfigError, DomainError, ModeError, ParameterError, TruncationError
from treewave.experiment import ExperimentConfig, resolve_initial_data, run_experiment
from treewave.functions import RadialProfile, TreeFunction
from treewave.levels import Levels
from treewave.scalars import QSurd, ScalarMode
from treewave.topology import MAX_VERTICES, Ball, VertexAddress, sphere
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


@pytest.mark.parametrize("field", ("steps", "radius", "schedule"))
@pytest.mark.parametrize("flag", (True, False))
def test_config_refuses_a_bool_for_an_integer_field(field, flag):
    # True == 1 and False == 0 as ints; a bool must not pass as either
    with pytest.raises(ConfigError, match=f"'{field}'"):
        ExperimentConfig(**{field: flag}).validated()


@pytest.mark.parametrize("seed", (True, "abc", 1.5, None))
def test_config_refuses_a_seed_that_is_not_an_integer(seed):
    # the seed draws the random initial data and is echoed in the manifest
    with pytest.raises(ConfigError, match="'seed'"):
        ExperimentConfig(seed=seed).validated()


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


ZERO_DENOMINATOR = {"a": "1/0", "b": "0"}


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"mode": "float"}, "'mode'"),  # the command line's alias of float64 is not a mode
        ({"initial": ["delta"]}, "'initial' must be an object"),
        ({"initial": {"f": "spike"}}, "'spike'"),
        ({"initial": {"f": TreeFunction.delta(2, ScalarMode.FLOAT64).to_json()}}, "float64 data"),
        ({"initial": {"g": {"q": 2, "entries": [{"value": "1"}]}}}, "not a serialized"),
        ({"initial": {"f": "random", "G": "delta"}}, "keys 'f' and 'g' only, got .*'G'"),
        (
            {"initial": {"f": {"q": 2, "entries": [{"vertex": "", "value": ZERO_DENOMINATOR}]}}},
            "not a serialized TreeFunction: ZeroDivisionError",
        ),
    ],
)
def test_config_and_initial_data_refusals_name_the_field(fields, named):
    with pytest.raises(ConfigError, match=named):
        resolve_initial_data(ExperimentConfig(**fields).validated())


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
    _fails_closed(["transforms", "--q", "1", "--out", str(tmp_path / "t")], "q", capsys)
    assert not (tmp_path / "t").exists()


def test_cli_verify_rejects_non_integer_q_list(capsys):
    _fails_closed(["verify", "--q", "2,x", "--size", "small"], "q", capsys)


def test_cli_verify_refuses_a_first_q_too_large_to_solve(capsys):
    # the checks walk Ball(q, 6), about 5.6e6 vertices at q=13; the refusal
    # comes before any check runs
    _fails_closed(["verify", "--q", "13", "--size", "small"], "q", capsys)
    assert main(["verify", "--q", "13,2", "--size", "small"]) == 2
    err = capsys.readouterr().err
    assert "5631277 vertices" in err and "use q <= 12" in err


def test_cli_verify_bounds_every_q_and_runs_q_six():
    # a later q is bounded too; q <= 12 fits, and the checks pass at q=6
    assert main(["verify", "--q", "2,13", "--size", "small"]) == 2
    report, passed = run_verification((6,), 0, "small")
    assert passed and report.endswith("result: all checks passed\n")


@pytest.mark.parametrize("size", ["small", "standard"])
@pytest.mark.parametrize("negative_control", [False, True])
def test_verify_fills_no_full_ball_beyond_the_bounded_radius(monkeypatch, size, negative_control):
    # every ball a check enumerates lies in Ball(q, _LARGEST_BALL), the ball
    # the guard bounds: the vertex rows of every vertex function (its depths
    # up to min(top, R) in the orbit layout of radius R), the negative
    # control's leapfrog included, every iterated Ball, and every sphere
    # (centre depth plus radius); check_metric's search reads the constant
    radii = []
    init, vertices = Levels.__init__, Ball.vertices

    def traced_init(self, q, mode, den, parts, lead=0, pairs=None):
        # after a leading parity run of ``lead`` depths, the rows start at depth lead
        radii.append(min(lead + len(parts[0]) - 1, self._orbit_radius))
        init(self, q, mode, den, parts, lead, pairs)

    def traced_vertices(self):
        radii.append(self.radius)
        return vertices(self)

    def traced_sphere(center, n, ball):
        radii.append(center.depth + n)
        return sphere(center, n, ball)

    monkeypatch.setattr(Levels, "__init__", traced_init)
    monkeypatch.setattr(Ball, "vertices", traced_vertices)
    for module in (verify, treewave.wave, treewave.transforms):
        monkeypatch.setattr(module, "sphere", traced_sphere)
    _, passed = run_verification((2,), 0, size, negative_control)
    assert passed is not negative_control
    assert max(radii) <= verify._LARGEST_BALL
    if size == "standard":
        assert max(radii) == verify._LARGEST_BALL


def test_verify_negative_control_at_q_six_stays_within_the_limit():
    assert Ball(6, verify._LARGEST_BALL).vertex_count() <= MAX_VERTICES
    report, passed = run_verification((6,), 0, "standard", negative_control=True)
    assert not passed and "FAIL energy conservation" in report


def test_cli_transforms_refuses_a_zero_denominator(tmp_path, capsys):
    profile = {"q": 2, "entries": [{"n": 0, "value": "1/0"}]}
    initial = _write_json(tmp_path / "profile.json", profile)
    argv = ["transforms", "--initial", initial, "--out", str(tmp_path / "t")]
    _fails_closed(argv, "initial", capsys)
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize(
    "command", ("propagate", "energy", "equipartition", "huygens", "transforms")
)
def test_cli_refuses_an_output_directory_that_is_a_file(tmp_path, capsys, monkeypatch, command):
    # --out naming a file, a path below a file, and TREEWAVE_OUT naming a file
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n", encoding="utf-8")
    steps = [] if command == "transforms" else ["--steps", "2"]
    for out in (blocker, blocker / "below"):
        _fails_closed([command, *steps, "--out", str(out)], "out", capsys)
    monkeypatch.setenv("TREEWAVE_OUT", str(blocker))
    _fails_closed([command, *steps], "out", capsys)
    assert blocker.read_text(encoding="utf-8") == "kept\n"


def test_cli_propagate_names_the_first_differing_vertex_by_its_label(
    tmp_path, capsys, monkeypatch
):
    # the first vertex in canonical order: depth first, so "2,1" before "0,1,1"
    solve = treewave.experiment.solve
    bumps = [
        TreeFunction.delta(2, ScalarMode.EXACT, VertexAddress(2, word))
        for word in ((0, 1, 1), (2, 1))
    ]

    def perturbed(f, g, n_range, solver, ball=None):
        trajectory = solve(f, g, n_range, solver=solver, ball=ball)
        if solver == "recurrence":
            trajectory.snapshots[2] = trajectory.snapshots[2] + bumps[0] + bumps[1]
        return trajectory

    monkeypatch.setattr(treewave.experiment, "solve", perturbed)
    assert main(["propagate", "--q", "2", "--steps", "3", "--out", str(tmp_path / "run")]) == 4
    assert capsys.readouterr().err == (
        "consistency error: closed and recurrence snapshots differ at n=2, "
        "first at vertex '2,1': closed 1/4, recurrence 5/4\n"
    )


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


def test_cli_transforms_refuses_a_q_or_mode_that_contradicts_the_profile(tmp_path, capsys):
    # --q and --mode given with --initial must match the profile; left out,
    # the profile's own q and mode apply
    entries = [{"n": 0, "value": "1"}, {"n": 2, "value": "-1/2"}]
    initial = _write_json(tmp_path / "profile.json", {"q": 3, "mode": "exact", "entries": entries})
    for flags in (["--q", "5"], ["--mode", "float64"], ["--q", "5", "--mode", "float64"]):
        out = tmp_path / "_".join(flags)
        argv = ["transforms", *flags, "--initial", initial, "--out", str(out)]
        _fails_closed(argv, "initial", capsys)
        assert not out.exists()
    for flags in ([], ["--q", "3", "--mode", "exact"]):
        out = tmp_path / f"agrees{len(flags)}"
        assert main(["transforms", *flags, "--initial", initial, "--out", str(out)]) == 0
        rows = list(csv.reader(io.StringIO((out / "abel.csv").read_text(encoding="utf-8"))))
        assert rows[1][1:3] != ["", ""]  # exact cells, from the profile's own mode
    assert (tmp_path / "agrees0" / "abel.csv").read_bytes() == (
        tmp_path / "agrees4" / "abel.csv"
    ).read_bytes()


def test_cli_propagate_refuses_snapshots_beyond_the_vertex_budget(tmp_path, capsys, monkeypatch):
    # q=2 to steps=40 would write about 2^41 snapshot rows; the run is
    # refused before it solves, naming the largest steps that fits (18 for
    # the delta, whose snapshots fill Ball(|n|))
    monkeypatch.setattr(treewave.experiment, "solve", None)  # never reached
    out = tmp_path / "run"
    _fails_closed(["propagate", "--q", "2", "--steps", "40", "--out", str(out)], "steps", capsys)
    assert not out.exists()
    with pytest.raises(ConfigError, match="the largest steps that fits is 18$"):
        run_experiment(ExperimentConfig(q=2, steps=19, out=str(out)))
    rows = [sum(Ball(2, abs(n)).vertex_count() for n in range(-s, s + 1)) for s in (18, 19)]
    assert rows[0] <= MAX_VERTICES < rows[1]


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
    for label, profile, flags in (
        ("float", exact.as_float64(), []),  # without --mode, the profile's mode
        ("exact", exact, ["--mode", "exact"]),
        ("exact-default", exact, []),
    ):
        initial = _write_json(tmp_path / f"{label}.json", profile.to_json())
        out = tmp_path / label
        assert main(["transforms", "--initial", initial, *flags, "--out", str(out)]) == 0
        capsys.readouterr()
        tables[label] = {name: (out / f"{name}.csv").read_text() for name in names}
    assert tables["exact"] == tables["exact-default"]
    # a --mode that contradicts the profile's is refused, not ignored
    argv = ["transforms", "--initial", initial, "--mode", "float", "--out", str(tmp_path / "x")]
    _fails_closed(argv, "initial", capsys)
    for name in names:
        rows = tables["float"][name].splitlines()[1:]
        assert rows and all(row.split(",")[1:3] == ["", ""] for row in rows)


def test_cli_equipartition_table_values(tmp_path, capsys):
    out = tmp_path / "gap"
    assert main(["equipartition", "--q", "2", "--steps", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    header, *rows = (out / "equipartition.csv").read_text().strip().splitlines()
    columns = header.split(",")
    cells = [dict(zip(columns, row.split(","))) for row in rows]
    assert [int(cell["n"]) for cell in cells] == list(range(-4, 5))
    for cell in cells:
        n = int(cell["n"])
        gap, operator_route, bound = (
            tuple(cell[f"{name}_{part}"] for part in ("a", "b", "float"))
            for name in ("gap", "gap_operator", "bound")
        )
        if abs(n) >= 2:
            expected = Fraction(-1, 2 ** (abs(n) + 5))
            assert gap == (str(expected), "0", repr(float(expected)))
        assert operator_route == (gap if abs(n) <= 3 else ("", "", ""))
        assert bound == ("11/32", "0", "0.34375")


def test_cli_equipartition_sums_each_energy_once(tmp_path, capsys, monkeypatch):
    # the operator column is compared with the gap of the energy reports the
    # table already holds, so each of the 9 rows sums K and P once
    calls = Counter()
    for name in ("kinetic_energy", "_potential_pair"):

        def counted(*args, original=getattr(treewave.energy, name), name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(treewave.energy, name, counted)
    out = tmp_path / "gap"
    assert main(["equipartition", "--q", "2", "--steps", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert calls == {"kinetic_energy": 9, "_potential_pair": 9}


def test_cli_propagate_exits_four_at_the_first_time_the_exact_routes_disagree(
    tmp_path, capsys, monkeypatch
):
    solve = treewave.experiment.solve

    def perturbed(f, g, n_range, solver, ball=None):
        trajectory = solve(f, g, n_range, solver=solver, ball=ball)
        if solver == "recurrence":
            for n in (3, -2):
                trajectory.snapshots[n] = trajectory.snapshots[n] + f
        return trajectory

    monkeypatch.setattr(treewave.experiment, "solve", perturbed)
    out = tmp_path / "run"
    assert main(["propagate", "--q", "2", "--steps", "3", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == (
        "consistency error: closed and recurrence snapshots differ at n=-2, "
        "first at vertex '': closed -1/4, recurrence 3/4\n"
    )
    assert not out.exists()
    # one route alone has nothing to disagree with
    assert main(["propagate", "--steps", "3", "--solver", "recurrence", "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()


def test_run_experiment_builds_each_depth_of_labels_once(tmp_path, monkeypatch):
    """One run builds the quoted label cells of each depth once: every
    snapshot gets the same holder, a depth's list once built is never
    replaced or changed, and the cells are those ``csv.writer`` writes for
    the label words; nothing is left at module level when the run
    returns."""
    experiment = treewave.experiment
    snapshot_rows, seen = experiment._snapshot_rows, []

    def recorded(state, labels):
        body = snapshot_rows(state, labels)
        seen.append((labels, list(labels), [list(depth) for depth in labels]))
        return body

    monkeypatch.setattr(experiment, "_snapshot_rows", recorded)
    namespace = dict(vars(experiment))
    initial = {"f": "random", "g": "random"}  # radius 1: snapshots reach depth 5
    run_experiment(ExperimentConfig(q=2, steps=4, initial=initial, out=str(tmp_path)))
    holder, built, cells = seen[-1]
    assert len(seen) == 9 and len(built) == 6
    for labels, depths, copies in seen:
        assert labels is holder
        assert all(a is b for a, b in zip(depths, built))
        assert copies == cells[: len(copies)]
    for d, depth in enumerate(cells):
        words = [",".join(map(str, x.labels)) for x in Ball(2, d) if x.depth == d]
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows([word, ""] for word in words)
        assert [f"{cell},\n" for cell in depth] == expected.getvalue().splitlines(keepends=True)
    assert vars(experiment).keys() == namespace.keys()
    assert all(vars(experiment)[name] is value for name, value in namespace.items())


@pytest.mark.parametrize("error", (ParameterError, DomainError, ModeError))
def test_cli_maps_input_errors_to_exit_two(tmp_path, capsys, monkeypatch, error):
    def refuse(*args):
        raise error("field 'initial' holds no even sequence")

    monkeypatch.setattr(treewave.cli, "write_transform_tables", refuse)
    assert main(["transforms", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "input error: field 'initial' holds no even sequence\n"

