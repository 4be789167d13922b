"""Verification toolkit for fixed points of contractive maps on S-metric spaces.

Everything computes over exact rationals; floats appear only in rendered
reports.  The public surface is re-exported here; the ``smetriclab``
console script and ``python -m smetriclab`` drive it from experiment
JSON files.
"""

from importlib import resources
from pathlib import Path

from .circles import (
    CircleReport,
    FixedVerdict,
    check_fixed_circle,
    verify_zamfirescu_x0,
)
from .contraction import (
    ContractionParams,
    GaugeDomainError,
    GaugeSpec,
    PairVerdict,
    condition_ii_probe,
    eps_grid,
    m_z_s,
    verify_condition_i,
    verify_phi_gauge,
    xi,
)
from .expr import (
    ExprError,
    ExprEvalError,
    ExprSyntaxError,
    Formula,
    evaluate,
    parse,
    pretty,
)
from .experiment import (
    CheckSpec,
    ConfigError,
    ExperimentSpec,
    SequenceSpec,
    build_experiment,
    load_experiment,
)
from .mapping import (
    FormulaMapping,
    Mapping,
    MappingRangeError,
    PowerMapping,
    TableMapping,
    is_fixed,
)
from .numeric import DEFAULT_TOL, format_decimal, to_fraction
from .runner import CHECK_FAMILIES, CHECK_NAMES, RunReport, render_text, run
from .solver import (
    DiscontinuityVerdict,
    IterationTrace,
    Outcome,
    PowerSolveResult,
    SequenceLimit,
    discontinuity_criterion,
    fix_set,
    picard,
    solve_power,
)
from .space import (
    AxiomReport,
    FormulaMetric,
    FormulaSMetric,
    GeneratedCheck,
    GeneratedSMetric,
    Metric,
    MetricAxiomError,
    Point,
    SMetric,
    Space,
    SpaceError,
    TableMetric,
    TableSMetric,
    TriangleReport,
    UnknownPointError,
    UnsupportedSpaceError,
    as_point,
    check_axioms,
    check_symmetry,
    check_triangle,
    generating_metric_check,
    s_converges,
    s_from_metric,
)
from .version import __version__


def fixture_path(name: str) -> Path:
    """Absolute path of a bundled example experiment file."""
    return Path(str(resources.files(__package__) / "fixtures" / name))


__all__ = [
    "AxiomReport",
    "CHECK_FAMILIES",
    "CHECK_NAMES",
    "CheckSpec",
    "CircleReport",
    "ConfigError",
    "ContractionParams",
    "DEFAULT_TOL",
    "DiscontinuityVerdict",
    "ExperimentSpec",
    "ExprError",
    "ExprEvalError",
    "ExprSyntaxError",
    "FixedVerdict",
    "Formula",
    "FormulaMapping",
    "FormulaMetric",
    "FormulaSMetric",
    "GaugeDomainError",
    "GaugeSpec",
    "GeneratedCheck",
    "GeneratedSMetric",
    "IterationTrace",
    "Mapping",
    "MappingRangeError",
    "Metric",
    "MetricAxiomError",
    "Outcome",
    "PairVerdict",
    "Point",
    "PowerMapping",
    "PowerSolveResult",
    "RunReport",
    "SMetric",
    "SequenceLimit",
    "SequenceSpec",
    "Space",
    "SpaceError",
    "TableMapping",
    "TableMetric",
    "TableSMetric",
    "TriangleReport",
    "UnknownPointError",
    "UnsupportedSpaceError",
    "__version__",
    "as_point",
    "build_experiment",
    "check_axioms",
    "check_fixed_circle",
    "check_symmetry",
    "check_triangle",
    "condition_ii_probe",
    "discontinuity_criterion",
    "eps_grid",
    "evaluate",
    "fix_set",
    "fixture_path",
    "format_decimal",
    "generating_metric_check",
    "is_fixed",
    "load_experiment",
    "m_z_s",
    "parse",
    "picard",
    "pretty",
    "render_text",
    "run",
    "s_converges",
    "s_from_metric",
    "solve_power",
    "to_fraction",
    "verify_condition_i",
    "verify_phi_gauge",
    "verify_zamfirescu_x0",
    "xi",
]
