"""Experiment driver: validated configuration, canonical CSV/JSON outputs.

An experiment solves one Cauchy problem and writes per-time snapshot CSVs,
an energy table, a shell-concentration table and a JSON manifest echoing the
configuration and recording solver agreement, wall time and file checksums.
Exact scalars are serialized as fraction strings so downstream tooling never
sees rounded conservation drift; all orderings are canonical, making outputs
byte-stable for a fixed configuration and seed (wall time lives only in the
manifest).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .energy import (
    _operator_gap,
    default_shell_margin,
    gap_bound_constant,
    huygens_report,
    total_energy,
)
from .errors import ConfigError
from .functions import TreeFunction
from .sampling import random_tree_function
from .scalars import QSurd, Scalar, ScalarMode, ratio_text, surd_to_float
from .topology import Ball
from .wave import WaveTrajectory, solve

_SOLVERS = ("closed", "recurrence", "both")
# the operator route applies M_2 to C_{2|n|} f, which fills the ball of
# radius 2|n| + 2 + (data radius): its cost grows like q^(2|n|), so it is
# emitted only for |n| <= _OPERATOR_LIMIT; the direct gap and the decay
# bound cover the whole range
_OPERATOR_LIMIT = 3


def _is_integer(value) -> bool:
    """An int that is not a bool (True would otherwise count as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    q: int = 2
    steps: int = 8
    mode: str = "exact"
    solver: str = "both"
    radius: int | None = None
    seed: int = 0
    initial: dict | None = None
    schedule: str | int = "sqrt"
    out: str | None = None

    def validated(self) -> "ExperimentConfig":
        if not _is_integer(self.q) or self.q < 2:
            raise ConfigError(f"field 'q' must be an integer >= 2, got {self.q!r}")
        if not _is_integer(self.steps) or self.steps < 1:
            raise ConfigError(f"field 'steps' must be an integer >= 1, got {self.steps!r}")
        if self.mode not in ("exact", "float64"):
            raise ConfigError(f"field 'mode' must be 'exact' or 'float64', got {self.mode!r}")
        if self.solver not in _SOLVERS:
            raise ConfigError(f"field 'solver' must be one of {_SOLVERS}, got {self.solver!r}")
        if self.radius is not None and (not _is_integer(self.radius) or self.radius < 0):
            raise ConfigError(f"field 'radius' must be an integer >= 0, got {self.radius!r}")
        if not _is_integer(self.seed):
            raise ConfigError(f"field 'seed' must be an integer, got {self.seed!r}")
        if self.initial is not None and not isinstance(self.initial, dict):
            raise ConfigError(
                f"field 'initial' must be an object with keys 'f' and 'g', got {self.initial!r}"
            )
        if self.schedule != "sqrt" and not (_is_integer(self.schedule) and self.schedule >= 0):
            raise ConfigError(
                f"field 'schedule' must be 'sqrt' or an integer margin >= 0, got {self.schedule!r}"
            )
        return self

    def scalar_mode(self) -> ScalarMode:
        return ScalarMode(self.mode)

    def to_json(self) -> dict:
        blob = asdict(self)
        return blob


def resolve_initial_data(config: ExperimentConfig) -> tuple[TreeFunction, TreeFunction]:
    """Initial (f, g) from the config: 'delta', 'zero', 'random' or inline
    serialized functions; defaults to (delta at the origin, zero)."""
    q, mode = config.q, config.scalar_mode()
    spec = config.initial or {}
    rng = random.Random(f"{config.seed}:initial")

    def build(entry, default):
        if entry is None:
            return default
        if entry == "delta":
            return TreeFunction.delta(q, mode)
        if entry == "zero":
            return TreeFunction.zero(q, mode)
        if entry == "random":
            return random_tree_function(q, 1, rng, mode=mode)
        if isinstance(entry, dict):
            try:
                parsed = TreeFunction.from_json(entry)
            except (KeyError, TypeError, ValueError) as error:
                raise ConfigError(
                    f"field 'initial' entry is not a serialized function: {error!r}"
                ) from None
            if parsed.q != q:
                raise ConfigError(
                    f"field 'initial' carries data for q={parsed.q}, config says q={q}"
                )
            if parsed.mode is not mode:
                raise ConfigError(
                    f"field 'initial' carries {parsed.mode.value} data, config says {config.mode}"
                )
            return parsed
        raise ConfigError(f"field 'initial' entry not understood: {entry!r}")

    f = build(spec.get("f"), TreeFunction.delta(q, mode))
    g = build(spec.get("g"), TreeFunction.zero(q, mode))
    return f, g


def _format_exact(value: Scalar) -> tuple[str, str]:
    if isinstance(value, QSurd):
        a, b, den = value.slots
        return ratio_text(a, den), ratio_text(b, den)
    return "", ""


def _scalar_columns(value: Scalar) -> list[str]:
    a, b = _format_exact(value)
    return [a, b, repr(float(value))]


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buffer.getvalue(), encoding="utf-8")


def _snapshot_rows(state: TreeFunction) -> list[list[str]]:
    """The rows of ``_scalar_columns`` per stored value in canonical order,
    formatted from the integers of the packed form; an exact (A, B) pair is
    formatted once, however many vertices hold it."""
    levels = state._as_levels()
    if levels.mode is not ScalarMode.EXACT:
        return [[label, "", "", repr(x)] for label, (x,) in levels.labelled()]
    q, den = levels.q, levels.den
    cells: dict[tuple[int, int], list[str]] = {}
    rows = []
    for label, pair in levels.labelled():
        text = cells.get(pair)
        if text is None:
            a, b = pair
            text = cells[pair] = [
                ratio_text(a, den), ratio_text(b, den), repr(surd_to_float(q, a, b, den))
            ]
        rows.append([label, *text])
    return rows


def _margin_for(config: ExperimentConfig, n: int) -> int:
    if config.schedule == "sqrt":
        return default_shell_margin(n)
    return int(config.schedule)


def write_energy_table(trajectory: WaveTrajectory, path: Path) -> None:
    _, reports = total_energy(trajectory)
    rows = []
    for report in reports:
        exact_cells, float_cells = [], []
        for value in (report.kinetic, report.potential, report.total, report.gap):
            a, b = _format_exact(value)
            exact_cells += [a, b]
            float_cells.append(repr(float(value)))
        rows.append([str(report.n)] + exact_cells + float_cells)
    header = ["n"]
    for name in ("K", "P", "E", "gap"):
        header += [f"{name}_a", f"{name}_b"]
    for name in ("K", "P", "E", "gap"):
        header.append(f"{name}_float")
    _write_csv(path, header, rows)


def write_huygens_table(trajectory: WaveTrajectory, config: ExperimentConfig, path: Path) -> None:
    rows = []
    for n in trajectory.interior_times():
        margin = _margin_for(config, n)
        report = huygens_report(trajectory, n, margin)
        rows.append(
            [str(n), str(margin)]
            + _scalar_columns(report.interior_mass)
            + _scalar_columns(report.interior_gradient)
            + _scalar_columns(report.interior_kinetic)
        )
    header = ["n", "margin"]
    for name in ("mass", "gradient", "kinetic"):
        header += [f"{name}_a", f"{name}_b", f"{name}_float"]
    _write_csv(path, header, rows)


def write_equipartition_table(trajectory: WaveTrajectory, path: Path) -> None:
    """The direct gap of each energy report, the operator route at
    |n| <= ``_OPERATOR_LIMIT`` and the decay bound constant."""
    bound = _scalar_columns(gap_bound_constant(trajectory.f, trajectory.g))
    _, reports = total_energy(trajectory)
    rows = []
    for report in reports:
        operator_columns = ["", "", ""]
        if abs(report.n) <= _OPERATOR_LIMIT:
            operator_columns = _scalar_columns(_operator_gap(trajectory, report.n))
        rows.append([str(report.n)] + _scalar_columns(report.gap) + operator_columns + bound)
    header = ["n"]
    for name in ("gap", "gap_operator", "bound"):
        header += [f"{name}_a", f"{name}_b", f"{name}_float"]
    _write_csv(path, header, rows)


def default_output_dir(explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get("TREEWAVE_OUT")
    if env:
        return Path(env)
    return Path("treewave-out")


def run_experiment(config: ExperimentConfig) -> Path:
    """Solve, compare solvers when asked, and write all artifacts.

    Returns the output directory.  Raises ConfigError for invalid fields and
    TruncationError (from the solver) when the declared radius cannot hold
    the requested trajectory.
    """
    config = config.validated()
    started = time.perf_counter()
    f, g = resolve_initial_data(config)
    ball = Ball(config.q, config.radius) if config.radius is not None else None

    solvers = ("closed", "recurrence") if config.solver == "both" else (config.solver,)
    trajectories = {name: solve(f, g, config.steps, solver=name, ball=ball) for name in solvers}
    primary = trajectories[solvers[0]]

    agreement = None
    if len(trajectories) == 2:
        closed, leapfrog = trajectories["closed"], trajectories["recurrence"]
        if config.scalar_mode() is ScalarMode.EXACT:
            same = all(
                closed.snapshot(n) == leapfrog.snapshot(n) for n in closed.n_values()
            )
            agreement = "exact" if same else "MISMATCH"
        else:
            worst = max(
                (closed.snapshot(n) - leapfrog.snapshot(n)).max_abs() for n in closed.n_values()
            )
            agreement = f"max abs deviation {worst:.3e}"

    out_dir = default_output_dir(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    files: dict[str, str] = {}

    def record(path: Path) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        files[path.name] = digest

    snapshot_names = []
    for n in primary.n_values():
        name = f"snapshot_{n:+03d}.csv"
        path = out_dir / name
        _write_csv(path, ["vertex", "value_a", "value_b", "float"], _snapshot_rows(primary.snapshot(n)))
        record(path)
        snapshot_names.append(name)

    energy_path = out_dir / "energy.csv"
    write_energy_table(primary, energy_path)
    record(energy_path)

    huygens_path = out_dir / "huygens.csv"
    write_huygens_table(primary, config, huygens_path)
    record(huygens_path)

    manifest = {
        "config": config.to_json(),
        "mode": config.mode,
        "solver": config.solver,
        "snapshot_count": len(snapshot_names),
        "snapshots": [int(n) for n in primary.n_values()],
        "closed_recurrence_agreement": agreement,
        "files": files,
        "wall_time_seconds": round(time.perf_counter() - started, 6),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out_dir
