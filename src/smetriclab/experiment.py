"""Experiment files: schema, validation, and loading.

An experiment is a JSON document declaring a space, an optional self-map,
optional contraction parameters and gauges, and an ordered list of named
checks.  Numbers are read as exact decimals (0.01 means 1/100), which is
what makes downstream verdicts and reports reproducible bit for bit.

Validation failures raise :class:`ConfigError` whose message starts with
the JSON path of the offending field, for example
``space.step: grid step must be positive``.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .contraction import ContractionParams, GaugeSpec
from .expr import ExprError, Formula
from .mapping import FormulaMapping, Mapping, TableMapping
from .numeric import DEFAULT_TOL, LiteralBoundError, format_decimal, read_number
from .space import (
    FormulaMetric,
    FormulaSMetric,
    GridBoundError,
    Metric,
    Point,
    SMetric,
    Space,
    SpaceError,
    TableMetric,
    TableSMetric,
    as_point,
    grid_steps,
    s_from_metric,
    subsample,
)

#: Caps checked as a document is read: grid nodes, the pairs or triples a
#: check entry sweeps when it lists no pairs (its sample's points, distinct
#: ones for the axiom family, or the universe's, to the power its table
#: entry gives), sequence terms (of one formula, and of all an entry's
#: sequences together), and map applications of a ``solve_power`` orbit (m
#: per step, for at most len(universe) + 1 steps before it cycles or converges).
MAX_GRID_NODES = 100_000
MAX_SWEEP = 100_000
#: Evidence records a condition check keeps; past them its report gives
#: the exact total instead.
MAX_EVIDENCE = MAX_SWEEP
MAX_SEQUENCE_TERMS = 100_000
MAX_POWER_APPLICATIONS = 1_000_000


class ConfigError(Exception):
    """Invalid experiment file; the message names the JSON path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


@dataclass
class SequenceSpec:
    """An approach sequence: explicit values or a formula in n."""

    values: list[Fraction] | None = None
    expr: Formula | None = None
    n_from: int = 1
    n_to: int = 1

    def expand(self) -> list[Fraction]:
        if self.values is not None:
            return list(self.values)
        assert self.expr is not None
        kernel = self.expr.exact  # one variable, n, fixed at load
        return [kernel(n) for n in range(self.n_from, self.n_to + 1)]


@dataclass
class CheckSpec:
    name: str
    label: str
    options: dict = field(default_factory=dict)


@dataclass
class Declared:
    """What an experiment declares besides its checks: the parts check
    entries are read and validated against."""

    space: Space
    mapping: Mapping | None
    params: ContractionParams | None
    gauge: GaugeSpec | None


@dataclass
class ExperimentSpec(Declared):
    name: str
    tolerance: Fraction
    checks: list[CheckSpec]
    echo: dict
    digest: str


def load_experiment(path: str | Path) -> ExperimentSpec:
    """Read and validate an experiment file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(str(path), f"cannot read file: {e}") from None
    try:
        doc = json.loads(
            text,
            parse_float=read_literal,
            parse_int=functools.partial(read_literal, kind=int),
            parse_constant=_reject_constant,
        )
    except (ValueError, RecursionError) as e:  # RecursionError: deep nesting
        raise ConfigError(str(path), f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "top level must be an object")
    return build_experiment(doc, default_name=path.stem)


def read_literal(text: str, kind: type = Fraction) -> object:
    """A number literal's exact value, read once as ``kind``, or, past
    the digit bound, the error its field's reader reports."""
    try:
        return read_number(text, kind)
    except LiteralBoundError as e:
        return e


def _unread(raw: object, path: str) -> None:
    """Report a literal the parser could not read, where a field reads it."""
    if isinstance(raw, ValueError):
        raise ConfigError(path, str(raw))


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite number {name!r} is not allowed")


def build_experiment(doc: dict, default_name: str = "experiment") -> ExperimentSpec:
    """Validate a parsed document and assemble the runnable spec."""
    _known_fields(
        doc, "", "name", "tolerance", "space", "map", "params", "gauge", "checks"
    )
    name = doc.get("name", default_name)
    _require(isinstance(name, str) and name, "name", "must be a nonempty string")

    tolerance = positive(doc.get("tolerance", DEFAULT_TOL), "tolerance", None)

    _require("space" in doc, "space", "is required")
    space = _build_space(doc["space"])

    mapping = None
    if "map" in doc:
        mapping = _build_mapping(doc["map"], space)

    params = None
    if "params" in doc:
        params = _build_params(doc["params"])

    gauge = None
    if "gauge" in doc:
        gauge = _build_gauge(doc["gauge"])

    raw_checks = doc.get("checks", [])
    _require(isinstance(raw_checks, list), "checks", "must be a list")
    declared = Declared(space, mapping, params, gauge)
    checks = [
        build_check(entry, f"checks[{i}]", declared)
        for i, entry in enumerate(raw_checks)
    ]
    _disambiguate_labels(checks)

    echo = _exact({"name": name, "tolerance": tolerance, **doc})
    digest = hashlib.sha256(
        json.dumps(echo, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return ExperimentSpec(
        space, mapping, params, gauge, name, tolerance, checks, echo, digest
    )


def number(value: object, path: str, declared: object = None) -> int | Fraction:
    """An exact JSON number, int or Fraction as read; a check-table reader too."""
    _unread(value, path)
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ConfigError(path, "must be a number")
    with _at(path, "is too large for a float"):
        float(value)  # evidence and the report's tolerance are floats
    return value


def _build_space(node: object) -> Space:
    kind = _kind(node, "space", _SPACES, "must be 'finite' or 'real_grid'")
    _require("smetric" in node, "space.smetric", "is required")

    if kind == "finite":
        pts = node.get("points")
        if not isinstance(pts, list) or not pts:
            raise ConfigError("space.points", "must be a nonempty list")
        points = [
            as_point(
                _point_literal(p, f"space.points[{i}]", "must be a number or string")
            )
            for i, p in enumerate(pts)
        ]
        smetric = _build_smetric(node["smetric"], points, kind)
        with _at("space.points"):
            space = Space.finite(points, smetric)
    else:
        for key in ("lo", "hi", "step"):
            _require(key in node, f"space.{key}", "is required for a grid")
        lo = number(node["lo"], "space.lo")
        hi = number(node["hi"], "space.hi")
        step = number(node["step"], "space.step")
        try:
            count = grid_steps(lo, hi, step)
        except GridBoundError as e:
            raise ConfigError(f"space.{e.bound}", e.reason) from None
        _require(
            count < MAX_GRID_NODES, "space.step",
            f"gives {count + 1} grid nodes, over the cap of {MAX_GRID_NODES}",
        )
        # validate a generated metric on the grid's subsample; the full
        # grid would make the triangle sweep cubic in 10^3+ points
        probe = [as_point(lo + i * step) for i in subsample(count + 1)]
        smetric = _build_smetric(node["smetric"], probe, kind)
        space = Space.real_grid(lo, hi, step, smetric)
    return space


def _build_smetric(node: object, points: list, kind: str) -> SMetric:
    path = "space.smetric"
    skind = _kind(node, path, _SMETRICS, "must be 'formula', 'table', or 'generated'")
    if skind == "formula":
        formula = _formula(node.get("expr"), ("x", "y", "z"), f"{path}.expr")
        _require(all(p.value is not None for p in points), "space.points",
                 "a formula S-metric needs numeric points")
        return FormulaSMetric(formula)
    if skind == "table":
        _require(kind == "finite", path, "a table S-metric needs a finite space")
        table = _table(node.get("entries"), path, 3, points)
        for triple in itertools.product([p.label for p in points], repeat=3):
            if triple not in table:
                raise ConfigError(
                    f"{path}.entries", f"missing entry for ({', '.join(triple)})"
                )
        return TableSMetric(table)
    metric = _build_metric(node.get("metric"), f"{path}.metric", points, kind)
    with _at(f"{path}.metric"):
        return s_from_metric(metric, points)


def _build_metric(
    node: object, path: str, points: list, kind: str
) -> Metric:
    mkind = _kind(node, path, _FORMULA_OR_TABLE, "must be 'formula' or 'table'")
    if mkind == "formula":
        formula = _formula(node.get("expr"), ("x", "y"), f"{path}.expr")
        _require(all(p.value is not None for p in points), "space.points",
                 "a formula metric needs numeric points")
        return FormulaMetric(formula)
    _require(kind == "finite", path, "a table metric needs a finite space")
    return TableMetric(_table(node.get("entries"), path, 2, points))


def _table(node: object, path: str, arity: int, points: list) -> dict:
    """The rows of ``node`` keyed by label tuples, every label one of
    ``points``; ``path`` names the table's metric.  A numeric reference
    names the point at its value, or else the label its decimal spells."""
    path = f"{path}.entries"
    _require(isinstance(node, list) and node, path, "must be a nonempty list")
    label = {p.value: p.label for p in points if p.value is not None}
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != arity + 1:
            raise ConfigError(
                f"{path}[{i}]", f"must be a list of {arity} points and a value"
            )
        refs = [_point_literal(r, f"{path}[{i}]") for r in row[:arity]]
        refs = tuple(
            r if isinstance(r, str) else label.get(r) or format_decimal(r) for r in refs
        )
        rows.append((refs, number(row[arity], f"{path}[{i}]")))
    labels = {p.label for p in points}
    for i, (refs, _) in enumerate(rows):
        for r in refs:
            if r not in labels:
                raise ConfigError(f"{path}[{i}]", f"unknown point label {r!r}")
    return dict(rows)


def _point_literal(
    ref: object, path: str, message: str = "point references must be numbers or strings"
) -> object:
    if isinstance(ref, str):
        return ref
    _unread(ref, path)
    if isinstance(ref, bool) or not isinstance(ref, (int, Fraction)):
        raise ConfigError(path, message)
    return ref


def _formula(text: object, variables: tuple[str, ...], path: str) -> Formula:
    _require(isinstance(text, str), path, "must be an expression string")
    with _at(path):
        return Formula.parse(text, variables)


def _build_mapping(node: object, space: Space) -> Mapping:
    kind = _kind(node, "map", _FORMULA_OR_TABLE, "must be 'formula' or 'table'")
    if kind == "formula":
        formula = _formula(node.get("expr"), ("x",), "map.expr")
        # every grid node has a coordinate
        if space.kind == "finite" and any(p.value is None for p in space.points):
            raise ConfigError("map.expr", "a formula map needs numeric points")
        return FormulaMapping(formula)
    entries = node.get("entries")
    if not isinstance(entries, dict) or not entries:
        raise ConfigError("map.entries", "must be a nonempty object")
    for src, dst in entries.items():
        if src not in space:
            raise ConfigError(
                "map.entries", f"unknown point label {src!r}"
            )
        if not isinstance(dst, str) or dst not in space:
            raise ConfigError(
                "map.entries", f"image of {src!r} is not a universe label"
            )
    missing = [p.label for p in space.points if p.label not in entries]
    if missing:
        raise ConfigError(
            "map.entries", f"no entry for point {missing[0]!r}"
        )
    return TableMapping(entries)


def _build_params(node: object) -> ContractionParams:
    _require(isinstance(node, dict), "params", "must be an object")
    _known_fields(node, "params", "a", "b", "c")
    with _at("params"):
        return ContractionParams(
            number(node.get("a", 0), "params.a"),
            number(node.get("b", 0), "params.b"),
            number(node.get("c", 0), "params.c"),
        )


def _build_gauge(node: object) -> GaugeSpec:
    _require(isinstance(node, dict), "gauge", "must be an object")
    _known_fields(node, "gauge", "phi", "delta")
    phi = delta = None
    if "phi" in node:
        phi = _formula(node["phi"], ("t",), "gauge.phi")
    if "delta" in node:
        delta = _formula(node["delta"], ("eps",), "gauge.delta")
    return GaugeSpec(phi, delta)


def _require(condition: object, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(path, message)


@contextmanager
def _at(path: str, message: str | None = None):
    """Report what the block rejects as a bad value at ``path``, in
    ``message`` or else in the words of the error."""
    try:
        yield
    except (ExprError, SpaceError, ValueError, OverflowError) as e:
        raise ConfigError(path, message or str(e)) from None


def _known_fields(node: dict, path: str, *known: str, noun: str = "field") -> None:
    """Reject the first key of the object at ``path`` not in ``known``."""
    for key in node:
        if key not in known:
            raise ConfigError(f"{path}.{key}" if path else key, f"unknown {noun}")


def _kind(node: object, path: str, fields: dict, message: str) -> str:
    """The ``kind`` of the object at ``path``, one of ``fields``, whose
    other keys must be among the fields that kind reads."""
    _require(isinstance(node, dict), path, "must be an object")
    kind = node.get("kind")
    _require(isinstance(kind, str) and kind in fields, f"{path}.kind", message)
    _known_fields(node, path, "kind", *fields[kind])
    return kind


#: The fields each kind of space, S-metric, metric or map reads.
_SPACES = {
    "finite": ("smetric", "points"),
    "real_grid": ("smetric", "lo", "hi", "step"),
}
_FORMULA_OR_TABLE = {"formula": ("expr",), "table": ("entries",)}
_SMETRICS = {**_FORMULA_OR_TABLE, "generated": ("metric",)}


def build_check(entry: object, path: str, declared: Declared) -> CheckSpec:
    """Validate one check entry against its row of the check table."""
    from .runner import CHECKS  # the table sits with the execute functions

    _require(isinstance(entry, dict), path, "must be an object")
    name = entry.get("check")
    _require(
        isinstance(name, str) and name in CHECKS, f"{path}.check",
        f"unknown check {name!r}",
    )
    check = CHECKS[name]
    _known_fields(entry, path, "check", *check.options, noun="option")
    for part in check.needs:
        _require(_NEEDS[part](declared), path, f"{name} needs {part}")
    options = {
        key: read(entry.get(key, MISSING), f"{path}.{key}", declared)
        for key, read in check.options.items()
    }
    for subject, part in check.option_needs(options):
        _require(_NEEDS[part](declared), path, f"{subject} needs {part}")
    _require(
        options.get("pairs") is None or options.get("sample") is None,
        path, "takes pairs or sample, not both",
    )
    if check.sweep and options.get("pairs") is None:
        points = options["sample"] or declared.space.points
        count = len(set(points) if check.family == "axioms" else points) ** check.sweep
        tuples = "pairs" if check.sweep == 2 else "triples"
        _require(
            count <= MAX_SWEEP, path,
            f"sweeps {count} {tuples}, over the cap of {MAX_SWEEP}",
        )
    label = name if check.label is None else check.label.format(**options)
    return CheckSpec(name, label, options)


#: What a check may need from the experiment, as its error message says it.
_NEEDS = {
    "a map": lambda declared: declared.mapping is not None,
    "params": lambda declared: declared.params is not None,
    "gauge.phi": lambda declared: (
        declared.gauge is not None and declared.gauge.phi is not None
    ),
    "gauge.delta": lambda declared: (
        declared.gauge is not None and declared.gauge.delta is not None
    ),
}

# Option readers for the check table.  Each takes the entry's value (or
# MISSING), the option's JSON path and the experiment's declarations.  A
# bare reader also sees MISSING and rejects it with its own message.

MISSING = object()


def optional(read):
    """The option may be left out, and then reads as None."""
    return lambda raw, path, declared: (
        None if raw is MISSING else read(raw, path, declared)
    )


def default(value, read):
    """A left-out option reads as ``value``."""
    return lambda raw, path, declared: read(
        value if raw is MISSING else raw, path, declared
    )


def list_of(read, may_be_empty=False):
    def reader(raw, path, declared):
        if may_be_empty:
            _require(isinstance(raw, list), path, "must be a list")
        else:
            _require(isinstance(raw, list) and raw, path, "must be a nonempty list")
        return [read(r, f"{path}[{i}]", declared) for i, r in enumerate(raw)]

    return reader


def point(raw: object, path: str, declared: Declared) -> Point:
    _require(raw is not MISSING, path, "is required")
    literal = _point_literal(raw, path)
    with _at(path):
        return declared.space.resolve(literal)


def pair(raw: object, path: str, declared: Declared) -> tuple[Point, Point]:
    _require(
        isinstance(raw, list) and len(raw) == 2, path, "must be a two-point pair"
    )
    return point(raw[0], path, declared), point(raw[1], path, declared)


def not_negative(raw: object, path: str, declared: Declared) -> Fraction:
    value = number(raw, path)
    _require(value >= 0, path, "must not be negative")
    return value


def positive(raw: object, path: str, declared: Declared) -> Fraction:
    value = number(raw, path)
    _require(value > 0, path, "must be positive")
    return value


def positive_int(raw: object, path: str, declared: Declared) -> int:
    _unread(raw, path)
    _require(
        isinstance(raw, int) and not isinstance(raw, bool) and raw >= 1,
        path, "must be a positive integer",
    )
    number(raw, path)  # held to float range like every other number
    return raw


def power(raw: object, path: str, declared: Declared) -> int:
    """The m of ``solve_power``, held to ``MAX_POWER_APPLICATIONS``."""
    m = positive_int(raw, path, declared)
    work = m * (len(declared.space) + 1)
    _require(
        work <= MAX_POWER_APPLICATIONS, path,
        f"gives up to {work} map applications, "
        f"over the cap of {MAX_POWER_APPLICATIONS}",
    )
    return m


def boolean(raw: object, path: str, declared: Declared) -> bool:
    _require(isinstance(raw, bool), path, "must be a boolean")
    return raw


def one_of(values: tuple[str, ...], message: str):
    def reader(raw, path, declared):
        _require(raw in values, path, message)
        return raw

    return reader


def coefficient(name: str):
    """Coefficient a or b of the circle checks, by default from params."""

    def reader(raw, path, declared):
        if raw is not MISSING:
            value = number(raw, path)
        elif declared.params is not None:
            value = getattr(declared.params, name)
        else:
            raise ConfigError(path, "is required when no params are declared")
        _require(0 <= value < 1, path, "must lie in [0, 1)")
        return value

    return reader


def sequence(node: object, path: str, declared: Declared) -> SequenceSpec:
    if isinstance(node, list):
        if not node:
            raise ConfigError(path, "must not be empty")
        return SequenceSpec(
            values=[number(v, f"{path}[{i}]") for i, v in enumerate(node)]
        )
    if isinstance(node, dict):
        _known_fields(node, path, "expr", "n_from", "n_to")
        formula = _formula(node.get("expr"), ("n",), f"{path}.expr")
        n_from = node.get("n_from", 1)
        n_to = node.get("n_to")
        for key, value in (("n_from", n_from), ("n_to", n_to)):
            _unread(value, f"{path}.{key}")
            _require(
                isinstance(value, int) and not isinstance(value, bool),
                f"{path}.{key}", "must be an integer",
            )
        _require(n_from <= n_to, f"{path}.n_to", "must be at least n_from")
        terms = n_to - n_from + 1
        _require(
            terms <= MAX_SEQUENCE_TERMS, f"{path}.n_to",
            f"gives {terms} terms, over the cap of {MAX_SEQUENCE_TERMS}",
        )
        return SequenceSpec(expr=formula, n_from=n_from, n_to=n_to)
    raise ConfigError(path, "must be a list of values or an object")


def sequences(raw: object, path: str, declared: Declared) -> list[SequenceSpec]:
    """The approach sequences of one entry, held together to
    ``MAX_SEQUENCE_TERMS`` terms, formula terms and values alike."""
    specs = list_of(sequence)(raw, path, declared)
    terms = sum(len(s.values or range(s.n_from, s.n_to + 1)) for s in specs)
    _require(
        terms <= MAX_SEQUENCE_TERMS, path,
        f"gives {terms} terms, over the cap of {MAX_SEQUENCE_TERMS}",
    )
    return specs


def _disambiguate_labels(checks: list[CheckSpec]) -> None:
    seen: dict[str, int] = {}
    for check in checks:
        count = seen.get(check.label, 0)
        seen[check.label] = count + 1
        if count:
            check.label = f"{check.label}#{count + 1}"


def _exact(node: object) -> object:
    """A validated document as given, each decimal written as {num, den}:
    no numeric field takes an object, so equal echoes mean equal documents."""
    if isinstance(node, Fraction):
        return {"num": node.numerator, "den": node.denominator}
    if isinstance(node, dict):
        return {key: _exact(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_exact(value) for value in node]
    return node
