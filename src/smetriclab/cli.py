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
from operator import itemgetter
from pathlib import Path

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

#: Records per batch of a record list, and the pending pieces past which
#: any other list is written out: what the writer holds at once.
_BATCH = 4096


def _encoder(values):
    """The leaf encoder of every one of ``values``, or None unless they
    all have one leaf type."""
    kinds = set(map(type, values))
    return _LEAVES.get(kinds.pop()) if len(kinds) == 1 else None


def _record_template(records: list, indent: str) -> str | None:
    """``%`` template of one of ``records`` at ``indent``, or None unless
    they are dicts with the same str keys in the same order and one leaf
    type per key."""
    if set(map(type, records)) != {dict}:
        return None
    keys = tuple(records[0])
    if (set(map(type, keys)) != {str}
            or not all(map(keys.__eq__, map(tuple, records)))
            or any(_encoder(map(itemgetter(key), records)) is None
                   for key in keys)):
        return None
    inner = indent + "  "
    fields = ",".join(
        inner + encode_basestring_ascii(key).replace("%", "%%") + ": %s"
        for key in keys
    )
    return indent + "{" + fields + indent + "}"


def _column(encode, values: list):
    """The JSON texts of ``values``, all of one leaf type, each distinct
    value encoded once: evidence columns repeat a few values.  A NaN,
    equal to nothing, is looked up as the same object."""
    texts = {value: encode(value) for value in set(values)}
    if 0.0 in texts:  # 0.0 == -0.0, so one text would stand for both
        return map(encode, values)
    return map(texts.__getitem__, values)


def _write_records(records: list, template: str, pieces: list, write) -> None:
    """Write the items of a record list, a batch and a column at a time."""
    getters = [itemgetter(key) for key in records[0]]
    encoders = [_LEAVES[type(value)] for value in records[0].values()]
    for start in range(0, len(records), _BATCH):
        batch = records[start:start + _BATCH]
        columns = [_column(encode, list(map(getter, batch)))
                   for encode, getter in zip(encoders, getters)]
        text = ",".join(map(template.__mod__, zip(*columns)))
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
    elif kind is list:
        if not value:
            pieces.append("[]")
            return
        inner = indent + "  "
        pieces.append("[")
        template = _record_template(value, inner)
        if template is not None:
            _write_records(value, template, pieces, write)
        else:
            opening = inner
            for item in value:
                pieces.append(opening)
                _write_value(item, inner, pieces, write)
                opening = "," + inner
                if len(pieces) >= _BATCH:
                    write("".join(pieces))
                    pieces.clear()
        pieces.append(indent + "]")
    else:  # ASCII-escaped JSON holds no raw newline to re-indent wrongly
        pieces.append(json.dumps(value, indent=2).replace("\n", indent))


def write_json(value, write) -> None:
    """Send ``json.dumps(value, indent=2) + "\\n"`` to ``write`` in pieces.

    Leaves are spelled by their exact type as ``json`` spells them, and a
    list of uniform records is filled from one template per list, a batch
    at a time.  Any other value goes through ``json.dumps`` itself, so the
    bytes match for every tree it accepts.
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
