"""Verification toolkit for fixed points of contractive maps on S-metric spaces.

Everything computes over exact rationals; floats appear only in rendered
reports.  The names the README's examples and the tests use are
re-exported here, with every exception class; result and spec types stay
in their modules.  The ``smetriclab`` console script and ``python -m
smetriclab`` drive the package from experiment JSON files.
"""

from importlib import resources
from pathlib import Path

from .circles import (
    check_fixed_circle,
    verify_zamfirescu_x0,
)
from .contraction import (
    ContractionParams,
    GaugeDomainError,
    GaugeSpec,
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
    parse,
    pretty,
)
from .experiment import (
    ConfigError,
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
)
from .numeric import DEFAULT_TOL, format_decimal, to_fraction
from .runner import CHECK_FAMILIES, render_text, run
from .solver import (
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
    MetricAxiomError,
    Point,
    SMetric,
    Space,
    SpaceError,
    TableMetric,
    TableSMetric,
    UnknownPointError,
    as_point,
    check_axioms,
    check_symmetry,
    check_triangle,
    generating_metric_check,
    s_from_metric,
)
from .version import __version__


def fixture_path(name: str) -> Path:
    """Absolute path of a bundled example experiment file."""
    return Path(str(resources.files(__package__) / "fixtures" / name))

