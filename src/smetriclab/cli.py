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
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .evidence import Rows
from .experiment import (
    CheckSpec,
    ConfigError,
    ExperimentSpec,
    build_check,
    load_experiment,
    positive,
    read_literal,
)
from .runner import CHECK_FAMILIES, RunReport, render_text, run
from .space import SUBSAMPLE_NODES, subsample


def _tolerance_arg(text: str) -> Fraction:
    """``--tolerance``, read by the rules of the file's ``tolerance``."""
    try:
        return positive(read_literal(text), "tolerance", None)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    except ConfigError as e:
        raise argparse.ArgumentTypeError(f"{e.path} {e.reason}") from None


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


def _float(value: float) -> str:
    if value - value == 0:  # finite
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


#: The JSON text of a leaf, by its exact type, as ``json.dumps`` spells it.
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}

#: Records per batch of an evidence list, and the items of any other list
#: after which its pending pieces, once that many, are written out: what
#: the writer holds at once.
_BATCH = 4096


def _write_rows(rows: Rows, indent: str, pieces: list, write) -> None:
    """Write the records of ``rows`` at ``indent``, a batch and a column at
    a time.  Each distinct raw value of a column is turned once into a
    fragment, its key and its text, with the record's ``{`` on the first
    column's fragments and its ``}`` on the last's, so that a record is
    its fragments joined."""
    inner = indent + "  "
    heads = ["," + inner + encode_basestring_ascii(key) + ": "
             for key in rows.keys]
    heads[0] = indent + "{" + heads[0][1:]
    tails = [""] * len(heads)
    tails[-1] = indent + "}"
    fragments = [{} for _ in rows.columns]
    for start in range(0, len(rows), _BATCH):
        columns = []
        for column, known, head, tail in zip(rows.columns, fragments,
                                             heads, tails):
            values = column.values[start:start + _BATCH]
            for v in set(values).difference(known):
                leaf = column.leaf(v)  # a label or a float
                known[v] = head + _LEAVES[type(leaf)](leaf) + tail
            columns.append(map(known.__getitem__, values))
        text = ",".join(map("".join, zip(*columns)))
        pieces.append("," + text if start else text)
        write("".join(pieces))
        pieces.clear()


def _write_value(value, indent: str, pieces: list, write) -> None:
    """Append the JSON text of ``value`` at ``indent`` (a newline and the
    spaces of its depth) to ``pieces``, writing them out as they grow."""
    kind = type(value)
    leaf = _LEAVES.get(kind)
    if leaf is not None:
        pieces.append(leaf(value))
    elif kind is dict and all(type(key) is str for key in value):
        if not value:
            pieces.append("{}")
            return
        inner, opening = indent + "  ", "{"
        for key, item in value.items():
            pieces.append(opening + inner + encode_basestring_ascii(key) + ": ")
            _write_value(item, inner, pieces, write)
            opening = ","
        pieces.append(indent + "}")
    elif kind is list or kind is Rows:
        if not value:
            pieces.append("[]")
            return
        inner, last = indent + "  ", len(value)
        pieces.append("[")
        if kind is Rows:
            _write_rows(value, inner, pieces, write)
        else:
            for count, item in enumerate(value, 1):
                pieces.append(inner if count == 1 else "," + inner)
                _write_value(item, inner, pieces, write)
                if len(pieces) >= _BATCH and (count % _BATCH == 0
                                              or count == last):
                    write("".join(pieces))
                    pieces.clear()
        pieces.append(indent + "]")
    else:  # ASCII-escaped JSON holds no raw newline to re-indent wrongly
        pieces.append(json.dumps(value, indent=2).replace("\n", indent))


def write_json(value, write) -> None:
    """Send ``json.dumps(value, indent=2) + "\\n"`` to ``write`` in pieces.

    Leaves are spelled by their exact type as ``json`` spells them, and
    the records of a condition check's evidence (``evidence.Rows``) are
    joined from per-value fragments, a batch at a time, each distinct raw
    value of a column turned into text once, with its key; a ``Rows`` is
    written as the list of its records.
    Any other value goes through ``json.dumps`` itself, so the bytes match
    for every tree it accepts.
    """
    pieces = []
    _write_value(value, "\n", pieces, write)
    pieces.append("\n")
    write("".join(pieces))


def _silence_stdout() -> None:
    """Point the stdout descriptor at the null device for good, so that
    flushing at exit does not fail again on a closed pipe."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # e.g. a StringIO
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        outcome = _execute(args)
        try:
            # the file is opened only now, so an invalid config leaves none
            with (contextlib.nullcontext(sys.stdout) if args.output is None
                  else args.output.open("w")) as out:
                if args.format == "json":
                    write_json(outcome.report, out.write)
                else:
                    out.write(render_text(outcome.report))
                out.flush()
        except OSError as e:
            if args.output is None and isinstance(e, BrokenPipeError):
                _silence_stdout()
            target = "<stdout>" if args.output is None else args.output
            print(f"error: {target}: cannot write report: {e}", file=sys.stderr)
            return 2
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:  # a backstop: the loader's bounds should prevent it
        print("error: out of memory", file=sys.stderr)
        return 2
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
