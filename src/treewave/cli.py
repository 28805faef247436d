"""Command-line interface: it parses arguments, reads the ``--initial``
file and maps errors to exit codes; ``treewave.experiment`` writes every
file.

Subcommands: propagate | energy | equipartition | huygens | transforms |
verify.  The default output directory is taken from --out, then the
TREEWAVE_OUT environment variable, then ./treewave-out.

Exit codes: 0 success, 1 a verification check failed, 2 invalid input
(command line, configuration field, --out path, --initial file or its data),
3 the truncation ball cannot hold the requested times, 4 two exact routes
disagreed (``propagate --solver both`` in exact mode, before any file is
written).  Every error other than 1 is one line on stderr.
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
from .experiment import ExperimentConfig, run_experiment, write_table, write_transform_tables
from .verify import run_verification


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


def _read_initial(path: Path | None):
    if path is None:
        return None
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
        mode=args.mode,
        solver=args.solver,
        radius=args.radius,
        seed=args.seed,
        initial=_read_initial(args.initial),
        schedule=schedule,
        out=str(args.out) if args.out else None,
    )


def _cmd_propagate(args) -> int:
    out_dir = run_experiment(_config_from_args(args))
    print(f"experiment written to {out_dir}")
    return 0


# subcommand -> what its table holds
_TABLES = {"energy": "energy", "equipartition": "equipartition", "huygens": "shell concentration"}


def _cmd_table(args) -> int:
    path = write_table(args.command, _config_from_args(args))
    print(f"{_TABLES[args.command]} table written to {path}")
    return 0


def _cmd_transforms(args) -> int:
    out = str(args.out) if args.out else None
    out_dir = write_transform_tables(args.q, args.mode, _read_initial(args.initial), out)
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
    p.add_argument("--q", type=int, help="branching parameter (default: the profile's, else 2)")
    p.add_argument(
        "--mode",
        choices=["exact", "float", "float64"],
        help="number type (default: the profile's, else exact)",
    )
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
    args = build_parser().parse_args(argv)
    if getattr(args, "mode", None) == "float":  # another name of float64
        args.mode = "float64"
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
