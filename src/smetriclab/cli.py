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
configuration was invalid, evaluation aborted, the run ran out of memory
or the report could not be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .experiment import (
    CheckSpec,
    ConfigError,
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


#: The parser, built on the first ``main`` call and reused by later ones.
_parser = functools.cache(build_parser)


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
    return [build_check(entry, "checks", spec) for entry in entries]


def _execute(args: argparse.Namespace) -> RunReport:
    spec = load_experiment(args.input)
    if args.command != "run":
        family = CHECK_FAMILIES[args.command]
        spec.checks = [c for c in spec.checks if c.name in family]
        if not spec.checks:
            spec.checks = _synthesize(spec, args.command)
    if args.tolerance is not None:
        spec.tolerance = args.tolerance
    return run(spec)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        outcome = _execute(args)
        if args.format == "json":
            text = json.dumps(outcome.report, indent=2) + "\n"
        else:
            text = render_text(outcome.report)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:  # a backstop: the loader's bounds should prevent it
        print("error: out of memory", file=sys.stderr)
        return 2
    if args.output is not None:
        try:
            args.output.write_text(text)
        except OSError as e:
            print(f"error: {args.output}: cannot write report: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
