"""Contraction parameters, displacement maxima, and both check modes."""

import bisect
import itertools
import math
from fractions import Fraction

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CountingSMetric, identity_mapping, sum_abs_smetric

from smetriclab import (
    ContractionParams,
    Formula,
    FormulaMapping,
    FormulaSMetric,
    GaugeDomainError,
    GaugeSpec,
    PowerMapping,
    Space,
    condition_ii_probe,
    eps_grid,
    m_z_s,
    verify_condition_i,
    verify_phi_gauge,
    xi,
)
from smetriclab.contraction import (
    _column,
    _evidence,
    _folded,
    _m_folded,
    _pair_rows,
    _windows_total,
)
from smetriclab.evidence import Indexed
from smetriclab.expr import ExprError
from smetriclab.numeric import DEFAULT_TOL, to_fraction
from smetriclab.space import _cut

TOL = Fraction(1, 10**9)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"a": 1, "b": 0, "c": 0},
        {"a": -Fraction(1, 10), "b": 0, "c": 0},
        {"a": 0, "b": 1, "c": 0},
        {"a": 0, "b": 0, "c": Fraction(6, 10)},
    ],
)
def test_params_ranges_enforced(kwargs):
    with pytest.raises(ValueError, match="must lie in"):
        ContractionParams(**kwargs)


def test_params_accept_boundary_c():
    params = ContractionParams(0, 0, Fraction(1, 2))
    assert params.c == Fraction(1, 2)


@pytest.mark.parametrize(
    ("a", "b", "c", "expected"),
    [
        (Fraction(3, 4), 0, 0, Fraction(3, 4)),
        (0, Fraction(1, 2), 0, Fraction(1, 3)),
        (0, 0, Fraction(1, 2), Fraction(1, 2)),
        (Fraction(9, 10), Fraction(9, 10), Fraction(1, 2), Fraction(9, 10)),
    ],
)
def test_xi_values(a, b, c, expected):
    assert xi(ContractionParams(a, b, c)) == expected


def test_m_z_s_band_values(four_space, four_map, four_params):
    values = {
        (x, y): m_z_s(four_space, four_map, four_params, x, y)
        for x in (0, 2, 4, 8)
        for y in (0, 2, 4, 8)
        if x != y
    }
    assert values[(0, 2)] == 3
    assert values[(0, 4)] == 6
    assert values[(4, 8)] == 6
    assert values[(2, 8)] == 9
    assert values[(0, 8)] == 12
    assert all(values[(x, y)] == values[(y, x)] for (x, y) in values)


def test_m_z_s_displacement_terms(four_space, four_map):
    params = ContractionParams(0, Fraction(1, 2), Fraction(1, 2))
    assert m_z_s(four_space, four_map, params, 0, 8) == 5


_WEIGHTS = st.sampled_from([0, Fraction(1, 4), Fraction(3, 4)])
_COORDS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@given(_WEIGHTS, _WEIGHTS, st.sampled_from([0, Fraction(1, 2)]),
       st.lists(_COORDS, min_size=4, max_size=4),
       st.sampled_from(["abs(x - z) + abs(y - z)", "x - 2*y + z"]))
def test_m_value_skipping_zero_weights_equals_the_full_max(a, b, c, coords, s):
    # the second S may be negative: a negative a*S must still lose to 0
    # points off the one-point universe are coerced to free-standing points
    space = Space.finite([0], FormulaSMetric(Formula.parse(s, ("x", "y", "z"))))
    params = ContractionParams(a, b, c)
    px, py, tx, ty = (space.coerce(v) for v in coords)
    triple = space.smetric.triple
    full = max(
        params.a * triple(px, px, py),
        params.b / 2 * (triple(px, px, tx) + triple(py, py, ty)),
        params.c / 2 * (triple(px, px, ty) + triple(py, py, tx)),
    )
    weights = _folded(params)
    m = _m_folded(triple, weights, px, py, tx, ty)
    assert Fraction(m, weights[0]) == full


def test_condition_i_evaluates_s_twice_per_pair_without_b_and_c(
    four_map, four_params, loose_gauge
):
    counting = CountingSMetric(sum_abs_smetric())
    space = Space.finite([0, 2, 4, 8], counting)
    verify_condition_i(space, four_map, four_params, loose_gauge)
    assert counting.calls == 2 * 16  # a*S(x, x, y) and S(Tx, Tx, Ty)


def test_m_z_s_star_uses_the_power(four_space, four_map):
    params = ContractionParams(0, Fraction(1, 2), 0)
    square = PowerMapping(four_map, 2)
    assert m_z_s(four_space, square, params, 0, 8) == 4
    for x, y in ((0, 8), (2, 4), (8, 2)):
        assert m_z_s(
            four_space, PowerMapping(four_map, 1), params, x, y
        ) == m_z_s(four_space, four_map, params, x, y)


def test_phi_gauge_checks_positive_probes_only():
    gauge = GaugeSpec(phi=Formula.parse("t/2", ("t",)))
    assert verify_phi_gauge(gauge, [1, 2, -1, 0]) == []
    stalled = GaugeSpec(phi=Formula.parse("t", ("t",)))
    bad = verify_phi_gauge(stalled, [-1, 0, 3])
    assert bad == [(Fraction(3), Fraction(3))]
    with pytest.raises(ValueError, match="no phi"):
        verify_phi_gauge(GaugeSpec(), [1])


def test_condition_i_full_holds(four_space, four_map, four_params, loose_gauge):
    assert (
        verify_condition_i(
            four_space, four_map, four_params, loose_gauge, mode="full"
        )
        == []
    )


def test_condition_i_simple_and_strict_hold(
    four_space, four_map, four_params, loose_gauge
):
    for mode in ("simple", "strict"):
        gauge = loose_gauge if mode == "simple" else None
        assert (
            verify_condition_i(
                four_space, four_map, four_params, gauge, mode=mode
            )
            == []
        )


def test_strict_mode_matches_a_shaved_phi(four_space, four_map, four_params):
    assert (
        verify_condition_i(four_space, four_map, four_params, mode="strict")
        == []
    )
    shaved = GaugeSpec(phi=Formula.parse("t - 0.000000001", ("t",)))
    assert (
        verify_condition_i(
            four_space, four_map, four_params, shaved, mode="full"
        )
        == []
    )


def test_condition_i_reports_violations(four_space, four_map, four_params):
    weak = GaugeSpec(phi=Formula.parse("t/2", ("t",)))
    bad = verify_condition_i(
        four_space, four_map, four_params, weak, mode="full"
    )
    rows = {(x.label, y.label): (m, s_t) for x, y, m, s_t in bad}
    assert rows[("4", "8")] == (6, 4)


def test_condition_i_strict_fails_for_identity(four_space, four_params):
    bad = verify_condition_i(
        four_space, identity_mapping(), four_params, mode="strict"
    )
    assert len(bad) == 12  # every ordered pair of distinct points


def test_condition_i_rejects_bad_modes(four_space, four_map, four_params):
    with pytest.raises(ValueError, match="unknown mode"):
        verify_condition_i(
            four_space, four_map, four_params, mode="fancy"
        )
    with pytest.raises(ValueError, match="needs a phi gauge"):
        verify_condition_i(four_space, four_map, four_params, mode="full")


def test_eps_grid_contents():
    grid = eps_grid([3, 6, 9, 12, 6, 0, -1], user_eps=[5, 0], tol=TOL)
    expected = sorted(
        {
            Fraction(27, 10),
            Fraction(3) - TOL,
            Fraction(27, 5),
            Fraction(6) - TOL,
            Fraction(81, 10),
            Fraction(9) - TOL,
            Fraction(54, 5),
            Fraction(12) - TOL,
            Fraction(9, 2),
            Fraction(15, 2),
            Fraction(21, 2),
            Fraction(5),
        }
    )
    assert grid == expected
    # m's dens 3, 2 and 4, a user probe's 7 and tol's 3 share one probe
    # den; 1/3 - tol = 0 is dropped
    grid = eps_grid([Fraction(1, 3), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 4)],
                    user_eps=[Fraction(2, 7)], tol=Fraction(1, 3))
    assert grid == [Fraction(1, 6), Fraction(2, 7), Fraction(3, 10),
                    Fraction(5, 12), Fraction(9, 20)]


def test_condition_ii_flags_the_loose_window(
    four_space, four_map, four_params, loose_gauge
):
    user_eps = [Fraction(3), Fraction(7, 2), Fraction(39, 10)]
    _, bad = condition_ii_probe(
        four_space, four_map, four_params, loose_gauge, eps_values=user_eps
    )
    rows = [(x.label, y.label, eps) for x, y, eps, _, _ in bad]
    assert rows == [
        ("4", "8", Fraction(3)),
        ("8", "4", Fraction(3)),
        ("2", "8", Fraction(7, 2)),
        ("4", "8", Fraction(7, 2)),
        ("8", "2", Fraction(7, 2)),
        ("8", "4", Fraction(7, 2)),
        ("2", "8", Fraction(39, 10)),
        ("4", "8", Fraction(39, 10)),
        ("8", "2", Fraction(39, 10)),
        ("8", "4", Fraction(39, 10)),
    ]
    assert all(m in (6, 9) and s_t == 4 for _, _, _, m, s_t in bad)


def test_condition_ii_passes_the_tight_window(
    four_space, four_map, four_params, tight_gauge
):
    user_eps = [Fraction(3), Fraction(7, 2), Fraction(39, 10)]
    assert (
        condition_ii_probe(
            four_space, four_map, four_params, tight_gauge, eps_values=user_eps
        )[1]
        == []
    )


def test_condition_ii_requires_positive_delta(
    four_space, four_map, four_params
):
    gauge = GaugeSpec(delta=Formula.parse("eps - 10", ("eps",)))
    with pytest.raises(GaugeDomainError, match="not positive"):
        condition_ii_probe(four_space, four_map, four_params, gauge)
    with pytest.raises(ValueError, match="needs a delta"):
        condition_ii_probe(
            four_space, four_map, four_params, GaugeSpec()
        )


def test_both_conditions_on_the_81_node_grid():
    # S(x, y, z) = |x - z| + |y - z| and T x = x/2 + 1: S(x, x, y) = 2|x - y|
    # and S(Tx, Tx, Ty) = |x - y|, so with a = 3/4, M = 3/2 |x - y| and
    # phi(M) = 2M/3 = S(Tx, Tx, Ty) on every pair
    n, step = 81, Fraction(1, 4)
    space = Space.real_grid(-10, 10, step, sum_abs_smetric())
    mapping = FormulaMapping(Formula.parse("x/2 + 1", ("x",)))
    params = ContractionParams(Fraction(3, 4), 0, 0)
    gauge = GaugeSpec(
        Formula.parse("2*t/3", ("t",)), Formula.parse("eps", ("eps",))
    )
    assert verify_condition_i(space, mapping, params, gauge) == []

    # k steps apart: 2 (n - k) ordered pairs with M = 3/2 k step; with
    # delta = eps a pair violates at eps when eps < M < 2 eps and
    # 2M/3 > eps + tol
    m = [Fraction(3, 2) * k * step for k in range(n)]
    probes = set()
    for k in range(1, n):
        probes.update((m[k] * Fraction(9, 10), m[k] - TOL))
        if k + 1 < n:
            probes.add((m[k] + m[k + 1]) / 2)
    expected = sum(
        2 * (n - k)
        for eps in probes
        for k in range(1, n)
        if eps < m[k] < 2 * eps and m[k] * Fraction(2, 3) > eps + TOL
    )
    grid, violations = condition_ii_probe(space, mapping, params, gauge)
    assert (len(grid), len(violations)) == (len(probes), expected) == (231, 83_904)
    assert [eps for _, _, eps, _, _ in violations] == sorted(
        eps for _, _, eps, _, _ in violations
    )


# -- the integer probes and phi cuts against the Fraction loops -------------


def test_pair_rows_coerce_each_reference_once_and_index_each_point_once(
    monkeypatch,
):
    # "2", 2 and Fraction(2) name one point of the space, and 7 none
    space = Space.finite([0, 2, 4], sum_abs_smetric())
    coerced, coerce = [], Space.coerce
    monkeypatch.setattr(Space, "coerce", lambda self, ref: (
        coerced.append(ref) or coerce(self, ref)))
    pairs = [("2", 2), (Fraction(2), "0"), ("2", 7), (7, 2)]
    points, xs, ys, *_ = _pair_rows(space, identity_mapping(), pairs, None)
    assert coerced == ["2", 2, "0", 7]
    assert [p.label for p in points] == ["2", "0", "7"]
    assert (xs, ys) == ([0, 0, 0, 2], [0, 1, 2, 0])


def fraction_eps_grid(m_values, user_eps, tol):
    """``eps_grid`` over Fractions."""
    realized = sorted({m for m in m_values if m > 0})
    probes = set()
    for m in realized:
        probes.add(m * Fraction(9, 10))
        probes.add(m - tol)
    for lower, upper in itertools.pairwise(realized):
        probes.add((lower + upper) / 2)
    probes.update(map(to_fraction, user_eps or []))
    return sorted(p for p in probes if p > 0)


def fraction_condition_i(space, mapping, params, gauge, pairs, mode, tol,
                         max_evidence):
    """``verify_condition_i`` with each phi cut taken over Fractions."""
    points, xs, ys, refs, s_ts, den = _pair_rows(
        space, mapping, pairs, None if mode == "simple" else params
    )
    if mode == "strict":
        low, slack = _cut(tol, den), _cut(-tol, den)
        cut = {m: m + slack for m in refs if m > low}
    else:
        cut = {
            m: _cut(gauge.phi(Fraction(m, den)) + tol, den)
            for m in dict.fromkeys(refs)
        }
    failing = [
        k for k, (m, v) in enumerate(zip(refs, s_ts))
        if v > cut.get(m, math.inf)
    ]
    kept = failing[:max_evidence]
    violating = None if len(kept) == len(failing) else lambda: failing
    return _evidence(points, xs, ys, kept, [
        _column(refs, den, kept, violating),
        _column(s_ts, den, kept, violating),
    ], len(failing))


def fraction_condition_ii(space, mapping, params, gauge, pairs, eps_values,
                          tol, max_evidence):
    """``condition_ii_probe`` with its probes, delta and window bounds
    taken over Fractions."""
    points, xs, ys, ms, s_ts, den = _pair_rows(space, mapping, pairs, params)
    grid = fraction_eps_grid([Fraction(m, den) for m in set(ms)], eps_values, tol)
    order = sorted(range(len(ms)), key=ms.__getitem__)
    keys = [ms[i] for i in order]
    room = len(grid) * len(ms) if max_evidence is None else max_evidence
    windows, probes, kept = [], [], []
    for k, eps in enumerate(grid):
        width = gauge.delta(eps)
        if width <= 0:
            raise GaugeDomainError(f"delta({eps}) = {width} is not positive")
        start = bisect.bisect_right(keys, _cut(eps, den))
        end = bisect.bisect_left(keys, -_cut(-eps - width, den))
        cap = _cut(eps + tol, den)
        windows.append((start, end, cap))
        if len(kept) < room:
            inside = sorted(i for i in order[start:end] if s_ts[i] > cap)
            inside = inside[:room - len(kept)]
            kept += inside
            probes += [k] * len(inside)
    total, violating = len(kept), None
    if total == room:
        total = _windows_total(s_ts, order, windows)

        def violating():
            for start, end, cap in windows:
                yield from (i for i in order[start:end] if s_ts[i] > cap)

    return grid, _evidence(points, xs, ys, kept, [
        Indexed(probes, grid),
        _column(ms, den, kept, violating),
        _column(s_ts, den, kept, violating),
    ], total)


def _outcome(kernel, *args):
    """The kernel's result, its numbers' types and its total, or its
    error's type and text."""
    try:
        result = kernel(*args)
    except (ExprError, ValueError) as error:
        return type(error), str(error)
    rows = result[1] if isinstance(result, tuple) else result
    return result, repr(result), rows.total


_GRID_STEPS = [Fraction(1, 3), Fraction(1, 2), Fraction(1, 10), Fraction(1)]
_QUARTER = st.sampled_from([Fraction(k, 4) for k in range(4)])


@st.composite
def gauge_instances(draw):
    """A grid or a finite universe, S, a map, weights and pairs: None or
    pairs of the universe's points.  The map ``1/(x*x + 1)`` divides by
    x, so its rows are read over Fractions."""
    s = FormulaSMetric(Formula.parse(draw(st.sampled_from(
        ["abs(x - z) + abs(y - z)", "2*abs(x - z) + abs(y - z)/3"]
    )), ("x", "y", "z")))
    if draw(st.booleans()):
        step = draw(st.sampled_from(_GRID_STEPS))
        lo = Fraction(draw(st.integers(-4, 2)), 2)
        space = Space.real_grid(lo, lo + step * draw(st.integers(0, 7)), step, s)
    else:
        points = draw(st.lists(_COORDS, min_size=1, max_size=6, unique=True))
        space = Space.finite(points, s)
    mapping = FormulaMapping(Formula.parse(draw(st.sampled_from(
        ["x/2 + 1", "x/3 - 1/7", "piecewise(x <= 1 : 1, else : 0)", "1/(x*x + 1)"]
    )), ("x",)))
    params = ContractionParams(draw(_QUARTER), draw(_QUARTER),
                               draw(st.sampled_from([0, Fraction(1, 4), Fraction(1, 2)])))
    coordinate = st.sampled_from([p.value for p in space.points])
    pairs = draw(st.none() | st.lists(
        st.tuples(coordinate, coordinate), min_size=1, max_size=10
    ))
    return space, mapping, params, pairs


# phi and delta that compile at a scale (affine and piecewise), and that
# read through the exact kernel: a variable divisor, one that is 0 at 3,
# and a constant zero divisor in a branch not taken; some deltas go <= 0
PHIS = st.sampled_from([
    "2*t/3", "t/2 + 1/7", "piecewise(t <= 1 : t/2, else : t - 1/4)",
    "t/(t + 1)", "1/(t - 3)", "piecewise(t > 100 : t/0, else : t/3)",
])
DELTAS = st.sampled_from([
    "eps", "eps/2 + 1/3", "piecewise(eps < 1 : 1 - eps, else : eps/3)",
    "1/eps", "1/(eps - 3)", "piecewise(eps > 100 : eps/0, else : eps)",
    "eps - 1", "2 - eps",
])
USER_EPS = st.none() | st.lists(
    st.builds(Fraction, st.integers(-3, 30), st.sampled_from([1, 3, 7, 10])),
    min_size=1, max_size=4,
)
TOLERANCES = st.sampled_from(
    [Fraction(0), DEFAULT_TOL, Fraction(1, 7), Fraction(1, 3), Fraction(-1, 9)]
)


def _pair_line(points):
    """``points`` with S = |x - z| + |y - z|, map x/2 + 1 and a = 3/4, so
    M(x, y) = 3/2 |x - y|; pairs None."""
    space = Space.finite(points, sum_abs_smetric())
    mapping = FormulaMapping(Formula.parse("x/2 + 1", ("x",)))
    return space, mapping, ContractionParams(Fraction(3, 4), 0, 0), None


@settings(deadline=None)
@given(gauge_instances(), PHIS, DELTAS, USER_EPS, TOLERANCES,
       st.sampled_from(["full", "simple", "strict"]),
       st.none() | st.integers(0, 6))
# M = 3 divides phi by 0; the first probe, 27/10, gives delta < 0
@example(_pair_line([0, 2]), "1/(t - 3)", "1/(eps - 3)", None, DEFAULT_TOL,
         "full", None)
# the first probe, the user's 3, divides delta by 0
@example(_pair_line([0, 4]), "1/(t - 3)", "1/(eps - 3)", [Fraction(3)],
         DEFAULT_TOL, "full", None)
def test_integer_probes_and_phi_cuts_match_the_fraction_loops(
    instance, phi, delta, user_eps, tol, mode, max_evidence
):
    space, mapping, params, pairs = instance
    gauge = GaugeSpec(Formula.parse(phi, ("t",)), Formula.parse(delta, ("eps",)))
    assert _outcome(
        verify_condition_i, space, mapping, params, gauge, pairs, mode, tol,
        max_evidence,
    ) == _outcome(
        fraction_condition_i, space, mapping, params, gauge, pairs, mode, tol,
        max_evidence,
    )
    assert _outcome(
        condition_ii_probe, space, mapping, params, gauge, pairs, user_eps, tol,
        max_evidence,
    ) == _outcome(
        fraction_condition_ii, space, mapping, params, gauge, pairs, user_eps,
        tol, max_evidence,
    )
