"""Command-line interface.

Subcommands: propagate | energy | equipartition | huygens | transforms |
verify.  The default output directory is taken from --out, then the
TREEWAVE_OUT environment variable, then ./treewave-out.

Exit codes: 0 success, 1 a verification check failed, 2 invalid input
(command line, configuration field, --initial file or its data), 3 the
truncation ball cannot hold the requested times, 4 two exact routes
disagreed.  Every error other than 1 is one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    ConfigError,
    ConsistencyError,
    DomainError,
    ModeError,
    ParameterError,
    TruncationError,
)
from .experiment import (
    ExperimentConfig,
    default_output_dir,
    resolve_initial_data,
    run_experiment,
    write_energy_table,
    write_equipartition_table,
    write_huygens_table,
    _scalar_columns,
    _write_csv,
)
from .functions import RadialProfile
from .scalars import ScalarMode
from .topology import Ball
from .transforms import abel, abel_inverse, dual_abel, dual_abel_inverse
from .verify import run_verification
from .wave import solve


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", type=int, default=2, help="branching parameter (>= 2)")
    parser.add_argument("--steps", type=int, default=8, help="solve for |n| <= steps")
    parser.add_argument("--mode", choices=["exact", "float", "float64"], default="exact")
    parser.add_argument(
        "--solver", choices=["closed", "recurrence", "both"], default="both"
    )
    parser.add_argument("--initial", type=Path, help="JSON file with initial data")
    parser.add_argument("--radius", type=int, help="truncation ball radius")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument(
        "--schedule",
        default="sqrt",
        help="shell margin: 'sqrt' or a fixed integer",
    )


def _read_initial(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ConfigError(f"field 'initial': cannot read JSON from {path}: {error}") from None


def _q_values(text: str) -> tuple[int, ...]:
    try:
        qs = tuple(int(part) for part in text.split(","))
    except ValueError:
        qs = ()
    if not qs or any(q < 2 for q in qs):
        raise ConfigError(
            f"field 'q' must be a comma-separated list of integers >= 2, got {text!r}"
        )
    return qs


def _config_from_args(args) -> ExperimentConfig:
    initial = None
    if args.initial is not None:
        initial = _read_initial(args.initial)
    schedule = args.schedule
    if isinstance(schedule, str) and schedule != "sqrt":
        try:
            schedule = int(schedule)
        except ValueError:
            raise ConfigError(
                f"field 'schedule' must be 'sqrt' or an integer, got {schedule!r}"
            ) from None
    return ExperimentConfig(
        q=args.q,
        steps=args.steps,
        mode="float64" if args.mode == "float" else args.mode,
        solver=args.solver,
        radius=args.radius,
        seed=args.seed,
        initial=initial,
        schedule=schedule,
        out=str(args.out) if args.out else None,
    )


def _solve_single(config: ExperimentConfig):
    config = config.validated()
    f, g = resolve_initial_data(config)
    ball = Ball(config.q, config.radius) if config.radius is not None else None
    solver = "recurrence" if config.solver == "both" else config.solver
    return solve(f, g, config.steps, solver=solver, ball=ball)


def _cmd_propagate(args) -> int:
    out_dir = run_experiment(_config_from_args(args))
    print(f"experiment written to {out_dir}")
    return 0


# subcommand -> (file name, what the table holds, writer(trajectory, config, path))
_TABLES = {
    "energy": ("energy.csv", "energy", lambda u, config, path: write_energy_table(u, path)),
    "equipartition": (
        "equipartition.csv",
        "equipartition",
        lambda u, config, path: write_equipartition_table(u, path),
    ),
    "huygens": ("huygens.csv", "shell concentration", write_huygens_table),
}


def _cmd_table(args) -> int:
    file_name, label, write = _TABLES[args.command]
    config = _config_from_args(args)
    trajectory = _solve_single(config)
    out_dir = default_output_dir(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / file_name
    write(trajectory, config, path)
    print(f"{label} table written to {path}")
    return 0


def _cmd_transforms(args) -> int:
    if args.initial is not None:
        blob = _read_initial(args.initial)
        try:
            profile = RadialProfile.from_json(blob)
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigError(
                f"field 'initial' is not a serialized radial profile: {error!r}"
            ) from None
    else:
        if args.q < 2:
            raise ConfigError(f"field 'q' must be an integer >= 2, got {args.q}")
        mode = ScalarMode("float64" if args.mode == "float" else args.mode)
        profile = RadialProfile.delta(args.q, mode)
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
    out_dir = default_output_dir(str(args.out) if args.out else None)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, index, entries in tables:
        rows = [[str(key)] + _scalar_columns(value) for key, value in entries]
        header = [index, "exact_value_a", "exact_value_b", "float_value"]
        _write_csv(out_dir / f"{name}.csv", header, rows)
    print(f"transform tables written to {out_dir}")
    return 0


def _cmd_verify(args) -> int:
    qs = _q_values(str(args.q))
    report, passed = run_verification(
        qs=qs, seed=args.seed, size=args.size, negative_control=args.negative_control
    )
    sys.stdout.write(report)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treewave",
        description="Exact shifted-wave-equation solver and verifier on homogeneous trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, blurb in [
        ("propagate", _cmd_propagate, "solve and write snapshots, energies, shells, manifest"),
        ("energy", _cmd_table, "solve and write the energy table"),
        ("equipartition", _cmd_table, "solve and write the gap table with its decay bound"),
        ("huygens", _cmd_table, "solve and write interior shell sums"),
    ]:
        p = sub.add_parser(name, help=blurb)
        _add_common(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("transforms", help="emit transform tables for a radial profile")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--mode", choices=["exact", "float", "float64"], default="exact")
    p.add_argument("--initial", type=Path, help="JSON file with a radial profile")
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=_cmd_transforms)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--q", default="2,3", help="comma-separated branching parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", choices=["small", "standard"], default="standard")
    p.add_argument(
        "--negative-control",
        action="store_true",
        help="corrupt the recurrence weight; conservation must then fail",
    )
    p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as error:
        print(f"configuration error: {error}", file=sys.stderr)
        return 2
    except TruncationError as error:
        print(f"truncation error: {error}", file=sys.stderr)
        return 3
    except (ParameterError, DomainError, ModeError) as error:
        print(f"input error: {error}", file=sys.stderr)
        return 2
    except ConsistencyError as error:
        print(f"consistency error: {error}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
