"""Acceptance gate: ten criteria over the bundled instances.

Each test prints one [PASS]/[FAIL] line for its criterion; run pytest
with output capture off (configured in pyproject) to see them.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from smetriclab import (
    ContractionParams,
    Formula,
    FormulaSMetric,
    GeneratedSMetric,
    Space,
    check_axioms,
    check_fixed_circle,
    check_symmetry,
    condition_ii_probe,
    discontinuity_criterion,
    fix_set,
    fixture_path,
    generating_metric_check,
    load_experiment,
    m_z_s,
    picard,
    verify_condition_i,
    xi,
)

from conftest import closure_metric, identity_mapping, run_cli

TOL = Fraction(1, 10**9)
FIXTURES = (
    "example_2_2.json",
    "example_2_2_corrected.json",
    "example_3_3.json",
    "discontinuity_0_2.json",
)


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {text}")
        raise
    print(f"[PASS] criterion {number}: {text}")


def band_instance():
    spec = load_experiment(fixture_path("example_2_2.json"))
    return spec.space, spec.mapping, spec.params, spec.gauge


def test_criterion_1_exact_displacement_bands():
    with criterion(1, "band instance: exact M bands, images, condition (i)"):
        started = time.perf_counter()
        space, mapping, params, gauge = band_instance()
        low, high = [0, 2, 4], [8]

        same_side = {
            m_z_s(space, mapping, params, x, y)
            for x, y in itertools.combinations(low, 2)
        }
        assert same_side == {3, 6}
        cross = {
            m_z_s(space, mapping, params, x, y) for x in low for y in high
        }
        assert cross == {6, 9, 12}
        assert all(3 <= m <= 6 for m in same_side)
        assert all(6 <= m <= 12 for m in cross)

        s = space.smetric.triple
        for x, y in itertools.combinations(low, 2):
            px, py = space.resolve(x), space.resolve(y)
            tx, ty = mapping.apply(space, px), mapping.apply(space, py)
            assert s(tx, tx, ty) == 0
        for x in low:
            px, py = space.resolve(x), space.resolve(8)
            tx, ty = mapping.apply(space, px), mapping.apply(space, py)
            assert s(tx, tx, ty) == 4

        assert verify_condition_i(
            space, mapping, params, gauge, mode="full", tol=0
        ) == []
        assert time.perf_counter() - started < 1.0


def test_criterion_2_window_discrepancy_both_ways():
    with criterion(2, "printed window fails on every eps in [3,4); corrected passes"):
        space, mapping, params, printed = band_instance()
        probes = [Fraction(3), Fraction(7, 2), Fraction(39, 10)]
        grid, violations = condition_ii_probe(
            space, mapping, params, printed, eps_values=probes
        )
        in_band = [e for e in grid if 3 <= e < 4]
        assert in_band == probes
        windows = {(x.label, y.label, eps) for x, y, eps, _, _ in violations}
        for eps in in_band:
            assert ("4", "8", eps) in windows
        assert ("4", "8", Fraction(7, 2)) in windows

        corrected = load_experiment(
            fixture_path("example_2_2_corrected.json")
        ).gauge
        assert condition_ii_probe(
            space, mapping, params, corrected, eps_values=probes
        )[1] == []


def test_criterion_3_band_solves_quickly():
    with criterion(3, "Picard reaches 4 from 0, 2, 8 in at most 2 steps"):
        space, mapping, _, _ = band_instance()
        for x0 in (0, 2, 8):
            trace = picard(space, mapping, x0)
            assert trace.outcome.status == "converged"
            assert trace.outcome.u == space.resolve(4)
            assert trace.outcome.steps <= 2
        assert [p.label for p in fix_set(space, mapping)] == ["4"]


def test_criterion_4_line_instance_exact_rho():
    with criterion(4, "line instance: rho = 2 exactly, circle and disc fixed"):
        started = time.perf_counter()
        spec = load_experiment(fixture_path("example_3_3.json"))
        space, mapping = spec.space, spec.mapping
        report = check_fixed_circle(space, mapping, Fraction(1, 2), 0, 0)
        assert report.rho == Fraction(2)
        assert sorted(p.label for p in report.circle_points) == ["-1", "1"]
        assert len(report.disc_points) == 201
        s = space.smetric.triple
        for p in report.disc_points:
            assert -1 <= p.value <= 1
            image = mapping.apply(space, p)
            assert s(image, image, p) <= TOL
        assert report.zamfirescu_violations == []
        assert time.perf_counter() - started < 5.0


def test_criterion_5_axiom_and_generation_suite():
    with criterion(5, "axioms and symmetry over 100 random spaces; generation detected"):
        rng = random.Random(20260823)
        for _ in range(100):
            labels = [f"p{i}" for i in range(rng.randint(2, 8))]
            space = Space.finite(
                labels, GeneratedSMetric(closure_metric(rng, labels))
            )
            assert check_axioms(space).passed
            assert check_symmetry(space) == []
            assert generating_metric_check(space).generated is True

        band = load_experiment(fixture_path("example_2_2.json")).space
        assert check_axioms(band).passed
        assert check_symmetry(band) == []
        assert generating_metric_check(band).generated is True

        line = load_experiment(fixture_path("example_3_3.json")).space
        sample = [line.resolve(x) for x in (-10, -5, -1, 0, 1, 5, 10)]
        assert check_axioms(line, sample).passed
        assert check_symmetry(line, sample) == []
        assert generating_metric_check(line, sample).generated is True

        bent = Space.finite(
            [0, 1, 2],
            FormulaSMetric(
                Formula.parse("abs(x - z) + abs(x + z - 2*y)", ("x", "y", "z"))
            ),
        )
        verdict = generating_metric_check(bent)
        assert verdict.generated is False
        triple, actual, candidate = verdict.witness
        assert tuple(p.label for p in triple) == ("0", "1", "2")
        assert (actual, candidate) == (2, 3)


def test_criterion_6_xi_stays_below_one():
    with criterion(6, "xi < 1 across the 600-point parameter grid"):
        combos = 0
        for a10, b10, c10 in itertools.product(
            range(10), range(10), range(6)
        ):
            params = ContractionParams(
                Fraction(a10, 10), Fraction(b10, 10), Fraction(c10, 10)
            )
            assert xi(params) < 1
            combos += 1
        assert combos == 600


def test_criterion_7_orbit_descent_at_rate_xi():
    with criterion(7, "alphas descend at rate xi wherever condition (i) holds"):
        exercised = 0
        for name in FIXTURES:
            spec = load_experiment(fixture_path(name))
            if (
                spec.mapping is None
                or spec.params is None
                or spec.gauge is None
                or spec.gauge.phi is None
            ):
                continue
            holds = not verify_condition_i(
                spec.space, spec.mapping, spec.params, spec.gauge, mode="full"
            )
            if not holds:
                continue
            rate = xi(spec.params)
            for start in spec.space.points:
                trace = picard(spec.space, spec.mapping, start)
                assert trace.outcome.status == "converged"
                for prev, nxt in zip(trace.alphas, trace.alphas[1:]):
                    assert nxt <= rate * prev + Fraction(1, 10**9)
                positive = [a for a in trace.alphas if a > 0]
                assert all(p > q for p, q in zip(positive, positive[1:]))
                exercised += 1
        assert exercised >= 8  # both band fixtures, every start point


def test_criterion_8_discontinuity_verdicts():
    with criterion(8, "jump map discontinuous at 1; identity continuous"):
        spec = load_experiment(fixture_path("discontinuity_0_2.json"))
        space, mapping, params = spec.space, spec.mapping, spec.params
        up = [1 + Fraction(1, n) for n in range(1, 1001)]
        down = [1 - Fraction(1, n) for n in range(1, 1001)]
        kwargs = {
            "limit_tol": Fraction(1, 100),
            "conv_tol": Fraction(1, 50),
            "tail_start": 200,
        }
        verdict = discontinuity_criterion(
            space, mapping, params, 1, [up, down], **kwargs
        )
        assert verdict.classification == "discontinuous_at_u"
        above, below = verdict.per_sequence
        assert abs(above.estimate - Fraction(1, 2)) <= Fraction(1, 100)
        assert below.estimate <= Fraction(1, 100)

        still = discontinuity_criterion(
            space, identity_mapping(), params, 1, [up, down], **kwargs
        )
        assert still.classification == "continuous_at_u"


def test_criterion_9_formula_round_trips():
    with criterion(9, "recurring formulas round-trip and evaluate exactly"):
        cases = [
            (
                "abs(x - z) + abs(x + z - 2*y)",
                ("x", "y", "z"),
                [
                    ((0, 1, 2), 2),
                    ((0, 0, 2), 4),
                    ((2, 1, 0), 2),
                    ((1, 1, 1), 0),
                    ((5, 0, -5), 10),
                    ((Fraction(1, 2), Fraction(1, 4), 0), Fraction(1, 2)),
                ],
            ),
            (
                "piecewise(t >= 6 : 5, else : t / 2)",
                ("t",),
                [
                    ((6,), 5),
                    ((12,), 5),
                    ((Fraction(59, 10),), Fraction(59, 20)),
                    ((0,), 0),
                    ((3,), Fraction(3, 2)),
                ],
            ),
            (
                "piecewise(eps >= 3 : 6, else : 6 - eps)",
                ("eps",),
                [
                    ((3,), 6),
                    ((Fraction(5, 2),), Fraction(7, 2)),
                    ((Fraction(39, 10),), 6),
                    ((0,), 6),
                    ((10,), 6),
                ],
            ),
            (
                "piecewise(x < -3 : x + 1, x > 3 : x + 1, else : x)",
                ("x",),
                [
                    ((-10,), -9),
                    ((-3,), -3),
                    ((3,), 3),
                    ((Fraction(301, 100),), Fraction(401, 100)),
                    ((10,), 11),
                    ((0,), 0),
                ],
            ),
        ]
        points_checked = 0
        for text, variables, samples in cases:
            first = Formula.parse(text, variables)
            canonical = first.pretty()
            second = Formula.parse(canonical, variables)
            assert second.pretty() == canonical
            for args, expected in samples:
                assert first(*args) == expected
                assert second(*args) == expected
                points_checked += 1
        assert points_checked >= 20


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path):
    with criterion(10, "CLI reports byte-stable modulo timing; exit codes hold"):
        expected_exits = {
            "example_2_2.json": 1,
            "example_2_2_corrected.json": 0,
            "example_3_3.json": 0,
            "discontinuity_0_2.json": 0,
        }
        for name in FIXTURES:
            path = str(fixture_path(name))
            first = run_cli("run", "--input", path)
            second = run_cli("run", "--input", path)
            assert first.returncode == expected_exits[name]
            assert second.returncode == first.returncode
            a, b = json.loads(first.stdout), json.loads(second.stdout)
            assert "timing" in a and "timing" in b
            a.pop("timing")
            b.pop("timing")
            assert json.dumps(a, indent=2) == json.dumps(b, indent=2)

        mangled = tmp_path / "mangled.json"
        mangled.write_text("{")
        broken = run_cli("run", "--input", str(mangled))
        assert broken.returncode == 2
