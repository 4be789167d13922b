"""Command line front end.

Subcommands ``axioms``, ``verify``, ``solve`` and ``circle`` run one
family of the experiment's checks; each check's family is set in the
check table, ``runner.CHECKS``.  ``run`` runs every check in declared
order.

When the file declares no check of the requested family, a sensible
default is synthesized where one exists (axioms and symmetry sweeps, the
contraction conditions, a fixed-point scan); the circle family has no
default because it needs a declared center.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 the
configuration was invalid or evaluation aborted.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .experiment import (
    CheckSpec,
    ConfigError,
    Declared,
    ExperimentSpec,
    build_check,
    load_experiment,
)
from .numeric import LiteralBoundError, read_number
from .runner import CHECK_FAMILIES, RunReport, render_text, run
from .space import SUBSAMPLE_NODES, subsample


def _tolerance_arg(text: str) -> Fraction:
    try:
        value = read_number(text)
        float(value)  # the report states the tolerance as a float
    except LiteralBoundError as e:
        raise argparse.ArgumentTypeError(f"tolerance {e}") from None
    except OverflowError:
        raise argparse.ArgumentTypeError("tolerance is too large for a float") from None
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError("tolerance must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smetriclab",
        description="Verification toolkit for fixed points on S-metric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (
        ("axioms", "check the distance structure"),
        ("verify", "check the contraction conditions"),
        ("solve", "iterate the map and scan for fixed points"),
        ("circle", "check fixed circles and discs"),
        ("run", "run every declared check"),
    ):
        p = sub.add_parser(command, help=text)
        p.add_argument("--input", required=True, type=Path,
                       help="experiment JSON file")
        p.add_argument("--output", type=Path, default=None,
                       help="write the report here instead of stdout")
        p.add_argument("--tolerance", type=_tolerance_arg, default=None,
                       help="override the experiment tolerance")
        p.add_argument("--format", choices=("json", "text"), default="json",
                       help="report format (default json)")
    return parser


def _synthesize(spec: ExperimentSpec, command: str) -> list[CheckSpec]:
    """Default checks of a family, read like declared check entries; a
    larger universe is swept on its subsample."""
    points, given = spec.space.points, {}
    if len(points) > SUBSAMPLE_NODES:
        given["sample"] = [points[i].label for i in subsample(len(points))]
    if command == "axioms":
        entries = [{"check": "axioms", **given}, {"check": "symmetry", **given}]
    elif command == "verify":
        if spec.mapping is None or spec.params is None:
            raise ConfigError(
                "checks", "verify needs a map and params in the experiment"
            )
        has_phi = spec.gauge is not None and spec.gauge.phi is not None
        entries = [
            {"check": "xi"},
            {"check": "condition_i", "mode": "full" if has_phi else "strict",
             **given},
        ]
        if spec.gauge is not None and spec.gauge.delta is not None:
            entries.append({"check": "condition_ii", **given})
    elif command == "solve":
        if spec.mapping is None:
            raise ConfigError("checks", "solve needs a map in the experiment")
        entries = [{"check": "fix_set"}]
    else:
        raise ConfigError(
            "checks",
            "no circle checks are declared; add a zamfirescu or fixed_circle "
            "check naming its center",
        )
    declared = Declared(spec.space, spec.mapping, spec.params, spec.gauge)
    return [build_check(entry, "checks", declared) for entry in entries]


def _execute(args: argparse.Namespace) -> RunReport:
    spec = load_experiment(args.input)
    if args.command == "run":
        return run(spec, tolerance=args.tolerance)
    family = CHECK_FAMILIES[args.command]
    if not any(c.name in family for c in spec.checks):
        spec.checks = _synthesize(spec, args.command)
    return run(spec, only=family, tolerance=args.tolerance)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        outcome = _execute(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.format == "json":
        text = json.dumps(outcome.report, indent=2) + "\n"
    else:
        text = render_text(outcome.report)
    if args.output is not None:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
