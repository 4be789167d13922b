"""Contraction parameters, displacement maxima, and both check modes."""

from fractions import Fraction

import pytest

from hypothesis import given
from hypothesis import strategies as st

from conftest import CountingSMetric, identity_mapping, sum_abs_smetric

from smetriclab import (
    ContractionParams,
    Formula,
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
from smetriclab.contraction import _m_value

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
    assert _m_value(triple, params, px, py, tx, ty) == full


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
