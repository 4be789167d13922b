"""Shared instance builders for the test suite.

Two instances recur everywhere: a four-point set whose map sends the low
band to 4 and the high point to 2, and a decimal grid on [-10, 10] whose
map shifts everything outside [-3, 3] by one.  Both use the
sum-of-absolute-differences S-metric.
"""

import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import settings

from smetriclab import (
    ContractionParams,
    Formula,
    FormulaMapping,
    FormulaSMetric,
    GaugeSpec,
    Mapping,
    SMetric,
    Space,
    TableMetric,
)

SUM_ABS = "abs(x - z) + abs(y - z)"

# ``pytest --hypothesis-profile oracle``: ten times the examples, no
# deadline; a test's own ``max_examples`` still wins (the distance-structure
# sweep oracles in test_space.py take the larger of 300 and the profile's).
# Not named ``ci``: Hypothesis loads a profile of that name by itself
# wherever the ``CI`` variable is set, so CI passes this one by name.
settings.register_profile("oracle", max_examples=1000, deadline=None)


def sum_abs_smetric():
    return FormulaSMetric(Formula.parse(SUM_ABS, ("x", "y", "z")))


def identity_mapping():
    return FormulaMapping(Formula.parse("x", ("x",)))


class CountingSMetric(SMetric):
    """An S-metric that counts its evaluations in ``calls``."""

    def __init__(self, base):
        self.base, self.calls = base, 0

    def triple(self, x, y, z):
        self.calls += 1
        return self.base.triple(x, y, z)


class CountingMapping(Mapping):
    """A map that counts its applications in ``calls``."""

    def __init__(self, base):
        self.base, self.calls = base, 0

    def apply(self, space, x):
        self.calls += 1
        return self.base.apply(space, x)


def closure_metric(rng, labels):
    """Random table metric: symmetric positive weights run through a
    shortest-path closure, which forces the triangle inequality."""
    n = len(labels)
    w = {(i, i): Fraction(0) for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            w[(i, j)] = w[(j, i)] = Fraction(
                rng.randint(1, 40), rng.choice((1, 2, 4, 5))
            )
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = w[(i, k)] + w[(k, j)]
                if via < w[(i, j)]:
                    w[(i, j)] = via
    return TableMetric(
        {(labels[i], labels[j]): v for (i, j), v in w.items() if i != j}
    )


def run_cli(*args, timeout=None):
    """Invoke the installed CLI in a subprocess and capture everything;
    past ``timeout`` seconds the call raises instead of hanging."""
    return subprocess.run(
        [sys.executable, "-m", "smetriclab", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture
def four_space():
    return Space.finite([0, 2, 4, 8], sum_abs_smetric())


@pytest.fixture
def four_map():
    return FormulaMapping(
        Formula.parse("piecewise(x <= 4 : 4, else : 2)", ("x",))
    )


@pytest.fixture
def four_params():
    return ContractionParams(Fraction(3, 4), 0, 0)


@pytest.fixture
def loose_gauge():
    """phi capped at 5 past t = 6; the delta window wrongly reaches M = 6
    for eps just above 3."""
    return GaugeSpec(
        phi=Formula.parse("piecewise(t >= 6 : 5, else : t / 2)", ("t",)),
        delta=Formula.parse(
            "piecewise(eps >= 3 : 6, else : 6 - eps)", ("eps",)
        ),
    )


@pytest.fixture
def tight_gauge():
    """Same phi; the delta window stops short of M = 6 below eps = 4."""
    return GaugeSpec(
        phi=Formula.parse("piecewise(t >= 6 : 5, else : t / 2)", ("t",)),
        delta=Formula.parse(
            "piecewise(eps < 4 : 6 - eps, else : 6)", ("eps",)
        ),
    )


@pytest.fixture
def line_space():
    return Space.real_grid(-10, 10, Fraction(1, 100), sum_abs_smetric())


@pytest.fixture
def tail_shift_map():
    """Identity on [-3, 3], shift by one outside it."""
    return FormulaMapping(
        Formula.parse(
            "piecewise(x < -3 : x + 1, x > 3 : x + 1, else : x)", ("x",)
        )
    )
