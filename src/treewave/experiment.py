"""Experiment driver: every output file, from a validated configuration or
a radial profile (``treewave.cli`` parses arguments, reads the ``--initial``
file and maps errors to exit codes).

An experiment solves one Cauchy problem and writes per-time snapshot CSVs,
an energy table, a shell-concentration table and a JSON manifest echoing the
configuration and recording solver agreement, wall time and the SHA-256 of
the bytes written to each CSV; exact routes that disagree raise
``ConsistencyError`` before anything is written.  Exact scalars are
serialized as fraction strings so downstream tooling never sees rounded
conservation drift; all orderings are canonical, making outputs byte-stable
for a fixed configuration and seed (wall time lives only in the manifest).
A snapshot CSV is joined per orbit entry: the entry's cells are formatted
once and joined with the labels of its vertices, whose cells a run quotes
once per depth as ``csv.writer`` would; the other tables go through
``csv.writer``.
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

from .energy import _operator_gap, gap_bound_constant, huygens_report, total_energy
from .errors import ConfigError, ConsistencyError
from .functions import RadialProfile, TreeFunction
from .sampling import random_tree_function
from .scalars import QSurd, Scalar, ScalarMode, ratio_text
from .topology import MAX_VERTICES, Ball
from .transforms import abel, abel_inverse, dual_abel, dual_abel_inverse
from .wave import WaveTrajectory, solve

_SOLVERS = ("closed", "recurrence", "both")
# the operator route applies every operator to the data by its parity sums,
# in O(|n|) per time; it is emitted only for |n| <= _OPERATOR_LIMIT, which
# once bounded the q^(2|n|) cost of a float64 scatter and stays because the
# bytes of equipartition.csv are pinned; the direct gap and the decay bound
# cover the whole range
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
        initial = self.initial
        if initial is not None and (not isinstance(initial, dict) or set(initial) - {"f", "g"}):
            raise ConfigError(
                f"field 'initial' must be an object with keys 'f' and 'g' only, got {initial!r}"
            )
        if self.schedule != "sqrt" and not (_is_integer(self.schedule) and self.schedule >= 0):
            raise ConfigError(
                f"field 'schedule' must be 'sqrt' or an integer margin >= 0, got {self.schedule!r}"
            )
        return self

    def scalar_mode(self) -> ScalarMode:
        return ScalarMode(self.mode)

    def to_json(self) -> dict:
        return asdict(self)


def _parsed(kind, blob):
    """``kind.from_json(blob)`` for serialized ``--initial`` data, a blob it
    cannot read (a zero denominator too) a ConfigError naming the field."""
    try:
        return kind.from_json(blob)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as error:
        raise ConfigError(
            f"field 'initial' is not a serialized {kind.__name__}: {error!r}"
        ) from None


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
        if not isinstance(entry, dict):
            raise ConfigError(f"field 'initial' entry not understood: {entry!r}")
        parsed = _parsed(TreeFunction, entry)
        if parsed.q != q:
            raise ConfigError(f"field 'initial' carries data for q={parsed.q}, config says q={q}")
        if parsed.mode is not mode:
            raise ConfigError(
                f"field 'initial' carries {parsed.mode.value} data, config says {config.mode}"
            )
        return parsed

    f = build(spec.get("f"), TreeFunction.delta(q, mode))
    g = build(spec.get("g"), TreeFunction.zero(q, mode))
    return f, g


def _check_snapshot_budget(config: ExperimentConfig, f: TreeFunction, g: TreeFunction) -> None:
    """A ConfigError naming 'steps' and the largest steps that fits when the
    snapshots to |n| <= steps from data of radius R could hold more than
    ``MAX_VERTICES`` rows in all, the sum over n of |Ball(q, |n| + R)|."""
    q, radius = config.q, max(f.support_radius(), g.support_radius(), 0)
    rows, fits = Ball(q, radius).vertex_count(), 0
    while rows + 2 * Ball(q, radius + fits + 1).vertex_count() <= MAX_VERTICES:
        fits += 1
        rows += 2 * Ball(q, radius + fits).vertex_count()
    if config.steps > fits:
        raise ConfigError(
            f"field 'steps': snapshots to steps={config.steps} from data of radius {radius} "
            f"at q={q} could hold more than {MAX_VERTICES} vertex rows in all; "
            f"the largest steps that fits is {fits}"
        )


def _trajectories(config: ExperimentConfig, data, solvers) -> list[WaveTrajectory]:
    """The data (f, g) solved by each route named in ``solvers``."""
    f, g = data
    ball = Ball(config.q, config.radius) if config.radius is not None else None
    return [solve(f, g, config.steps, solver=name, ball=ball) for name in solvers]


def _scalar_columns(*values: Scalar) -> list[str]:
    """The cells A/D, B/D and the correctly rounded float of each value;
    A/D and B/D are empty for a float64 value."""
    cells = []
    for value in values:
        if isinstance(value, QSurd):
            a, b, den = value.slots
            cells += [ratio_text(a, den), ratio_text(b, den), repr(float(value))]
        else:
            cells += ["", "", repr(float(value))]
    return cells


def _scalar_header(*names: str) -> list[str]:
    """The header of ``_scalar_columns`` of one value per name."""
    return [f"{name}_{part}" for name in names for part in ("a", "b", "float")]


def _csv_text(rows) -> str:
    """The CSV text of rows of cells, as ``csv.writer`` quotes them."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _write_csv(path: Path, header: list[str], body: str) -> str:
    """Write one table, its header row and then the CSV text ``body``, and
    return the SHA-256 of the bytes written."""
    data = (_csv_text([header]) + body).encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _output_dir(explicit: str | None) -> Path:
    """--out, then TREEWAVE_OUT, then ./treewave-out; created if missing.  A
    file, or a path below one, is a ConfigError naming the field."""
    out_dir = Path(explicit or os.environ.get("TREEWAVE_OUT") or "treewave-out")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise ConfigError(f"field 'out': cannot create directory {out_dir}: {error}") from None
    return out_dir


def _snapshot_rows(state: TreeFunction, labels: list[list[str]]) -> str:
    """The CSV text of the rows of the nonzero vertex values in canonical
    order.  Each stored entry's cells are formatted once, as the tail
    ",a,b,float" and line end of its rows, and joined with the labels of its
    vertices (``Levels._listing``).  ``labels[d]`` lists the label cells of
    S(d), quoted as ``csv.writer`` quotes them: the origin's "" stays bare,
    and a word of two or more labels, joined by ",", goes in quotes.  One
    run shares them and builds each depth once, from the previous depth."""
    q, levels, text = state.q, state._as_levels(), []
    for d, js, slots in levels._listing():
        while len(labels) <= d:
            k = len(labels)
            branches = [str(label) for label in range(q + 1 if k == 1 else q)]
            if k > 1:
                words = [word.strip('"') for word in labels[-1]]
                labels.append([f'"{word},{label}"' for word in words for label in branches])
            else:
                labels.append(branches if k else [""])
        cells, width = labels[d], levels._weight(d)
        for j, entry in zip(js, slots):
            tail = ",{},{},{}\n".format(*_scalar_columns(levels._value(entry)))
            text += (tail.join(cells[j * width : (j + 1) * width]), tail)
    return "".join(text)


def _exact_first(cells: list[str]) -> list[str]:
    """Cells in (a, b, float) triples, reordered to every (a, b), then every float."""
    return [cell for i, cell in enumerate(cells) if i % 3 != 2] + cells[2::3]


def write_energy_table(trajectory: WaveTrajectory, path: Path) -> str:
    _, reports = total_energy(trajectory)
    rows = [
        [str(r.n), *_exact_first(_scalar_columns(r.kinetic, r.potential, r.total, r.gap))]
        for r in reports
    ]
    header = ["n", *_exact_first(_scalar_header("K", "P", "E", "gap"))]
    return _write_csv(path, header, _csv_text(rows))


def write_huygens_table(trajectory: WaveTrajectory, config: ExperimentConfig, path: Path) -> str:
    margin = None if config.schedule == "sqrt" else config.schedule  # None: floor(sqrt(|n|))
    rows = []
    for n in trajectory.interior_times():
        report = huygens_report(trajectory, n, margin)
        sums = (report.interior_mass, report.interior_gradient, report.interior_kinetic)
        rows.append([str(n), str(report.shell_margin), *_scalar_columns(*sums)])
    header = ["n", "margin", *_scalar_header("mass", "gradient", "kinetic")]
    return _write_csv(path, header, _csv_text(rows))


def write_equipartition_table(trajectory: WaveTrajectory, path: Path) -> str:
    """The direct gap of each energy report, the operator route at
    |n| <= ``_OPERATOR_LIMIT`` and the decay bound constant."""
    bound = _scalar_columns(gap_bound_constant(trajectory.f, trajectory.g))
    _, reports = total_energy(trajectory)
    rows = []
    for report in reports:
        operator_columns = ["", "", ""]
        if abs(report.n) <= _OPERATOR_LIMIT:
            operator_columns = _scalar_columns(_operator_gap(trajectory, report.n))
        rows.append([str(report.n), *_scalar_columns(report.gap), *operator_columns, *bound])
    header = ["n", *_scalar_header("gap", "gap_operator", "bound")]
    return _write_csv(path, header, _csv_text(rows))


def write_table(name: str, config: ExperimentConfig) -> Path:
    """Solve by one route (the recurrence for 'both') and write the table
    ``<name>.csv``, name 'energy', 'equipartition' or 'huygens'; returns
    its path."""
    config = config.validated()
    solver = "recurrence" if config.solver == "both" else config.solver
    (trajectory,) = _trajectories(config, resolve_initial_data(config), (solver,))
    path = _output_dir(config.out) / f"{name}.csv"
    if name == "huygens":
        write_huygens_table(trajectory, config, path)
    elif name == "energy":
        write_energy_table(trajectory, path)
    else:
        write_equipartition_table(trajectory, path)
    return path


def write_transform_tables(
    q: int | None, mode: str | None, initial: dict | None, out: str | None
) -> Path:
    """The Abel transform, the dual transform at radii 0..R+2 (R the
    support radius) and the inverse of each, of the serialized radial
    profile ``initial``, else of the delta at q in ``mode`` (2 and 'exact'
    when None); returns the output directory.  A q or mode given with
    ``initial`` that contradicts the profile's is a ConfigError naming
    'initial'."""
    if initial is None:
        profile = RadialProfile.delta(2 if q is None else q, ScalarMode(mode or "exact"))
    else:
        profile = _parsed(RadialProfile, initial)
        if q is not None and q != profile.q:
            raise ConfigError(f"field 'initial' carries a profile for q={profile.q}, not q={q}")
        if mode is not None and ScalarMode(mode) is not profile.mode:
            raise ConfigError(f"field 'initial' carries {profile.mode.value} data, not {mode}")
    forward = abel(profile)
    limit = max(profile.support_radius(), 0) + 2
    means = RadialProfile(
        profile.q, profile.mode, [(n, dual_abel(forward, n)) for n in range(limit + 1)]
    )
    tables = [
        ("abel", "h", forward.items()),
        ("abel_inverse", "n", abel_inverse(forward).items()),
        ("dual_abel", "n", [(n, means[n]) for n in range(limit + 1)]),
        ("dual_abel_inverse", "h", dual_abel_inverse(means).items()),
    ]
    out_dir = _output_dir(out)
    for name, index, entries in tables:
        header = [index, "exact_value_a", "exact_value_b", "float_value"]
        rows = [[str(key), *_scalar_columns(value)] for key, value in entries]
        _write_csv(out_dir / f"{name}.csv", header, _csv_text(rows))
    return out_dir


def _agreement(closed: WaveTrajectory, leapfrog: WaveTrajectory) -> str:
    """'exact' when the exact routes give equal snapshots (else a
    ConsistencyError naming the first time and vertex where they differ and
    both values), the largest float64 deviation otherwise."""
    times = closed.n_values()
    if closed.mode is not ScalarMode.EXACT:
        worst = max((closed.snapshot(n) - leapfrog.snapshot(n)).max_abs() for n in times)
        return f"max abs deviation {worst:.3e}"
    for n in times:
        u, v = closed.snapshot(n), leapfrog.snapshot(n)
        if u != v:
            x = next(iter((u - v).value_map()))  # in canonical order
            raise ConsistencyError(
                f"closed and recurrence snapshots differ at n={n}, first at vertex "
                f"'{x}': closed {u[x]}, recurrence {v[x]}"
            )
    return "exact"


def run_experiment(config: ExperimentConfig) -> Path:
    """Solve, compare solvers when asked, and write all artifacts.

    Returns the output directory.  Raises ConfigError for invalid fields
    and, before solving, for snapshots that could hold more than
    ``MAX_VERTICES`` rows in all, TruncationError (from the solver) when the
    declared radius cannot hold the requested trajectory, and
    ConsistencyError naming the first time at which the exact closed and
    recurrence snapshots differ; each before anything is written.
    """
    config = config.validated()
    started = time.perf_counter()
    solvers = ("closed", "recurrence") if config.solver == "both" else (config.solver,)
    data = resolve_initial_data(config)
    _check_snapshot_budget(config, *data)
    primary, *leapfrog = _trajectories(config, data, solvers)

    agreement = _agreement(primary, *leapfrog) if leapfrog else None

    out_dir = _output_dir(config.out)
    files = {}
    header = ["vertex", "value_a", "value_b", "float"]
    labels: list[list[str]] = []  # quoted label cells per depth, shared by this run
    for n in primary.n_values():
        name = f"snapshot_{n:+03d}.csv"
        body = _snapshot_rows(primary.snapshot(n), labels)
        files[name] = _write_csv(out_dir / name, header, body)
    files["energy.csv"] = write_energy_table(primary, out_dir / "energy.csv")
    files["huygens.csv"] = write_huygens_table(primary, config, out_dir / "huygens.csv")

    manifest = {
        "config": config.to_json(),
        "mode": config.mode,
        "solver": config.solver,
        "snapshot_count": len(primary.n_values()),
        "snapshots": primary.n_values(),
        "closed_recurrence_agreement": agreement,
        "files": files,
        "wall_time_seconds": round(time.perf_counter() - started, 6),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out_dir
