"""The A/B runner's verdict on hand-made summary rows."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

LOWER = {"name": "op_p50_ms", "better": "lower", "bound": 0.15}
HIGHER = {"name": "ops_per_s", "better": "higher", "bound": 0.15}


def row(old, new, iqr, wins, pairs=10, all_better=False):
    return {"parent_median": old, "change_median": new, "parent_iqr": iqr,
            "wins": wins, "pairs": pairs, "all_better": all_better}


@pytest.mark.parametrize(
    ("metric", "summary", "want"),
    [
        # 9 of 10 pairs and a median gap past the parent's IQR
        (LOWER, row(50.0, 42.0, 1.0, 9), "gain"),
        (HIGHER, row(20.0, 24.0, 0.5, 10), "gain"),
        # 8 of 10 pairs is not enough, nor is a gap inside the IQR, nor
        # are fewer than ten pairs
        (LOWER, row(50.0, 42.0, 0.0, 1, pairs=1), "same"),
        (LOWER, row(50.0, 42.0, 1.0, 8), "same"),
        (LOWER, row(50.0, 49.5, 1.0, 10), "same"),
        # worse by more than the bound
        (LOWER, row(50.0, 58.0, 1.0, 0), "regression"),
        (HIGHER, row(20.0, 16.0, 0.5, 0), "regression"),
        # worse, but within the bound
        (LOWER, row(50.0, 57.0, 1.0, 0), "same"),
        # a spread wider than the bound leaves it open ...
        (LOWER, row(50.0, 51.0, 9.0, 3), "unresolved"),
        (LOWER, row(50.0, 45.0, 9.0, 9), "unresolved"),
        # ... unless every run of the change is better
        (LOWER, row(50.0, 45.0, 9.0, 10, all_better=True), "same"),
    ],
)
def test_the_verdict_of_a_summary_row(metric, summary, want):
    assert ab_bench.verdict(summary, metric) == want


def test_summarize_gives_each_metric_its_verdict():
    runs = {"fixtures": {
        "parent": [{"metrics": {"op_p50_ms": {"value": v}}, "failed": 0, "attempted": 30}
                   for v in (50, 51, 49, 50, 52, 50, 48, 51, 50, 49)],
        "change": [{"metrics": {"op_p50_ms": {"value": v}}, "failed": 0, "attempted": 35}
                   for v in (42, 43, 41, 42, 44, 42, 40, 43, 42, 41)],
    }}
    summary = ab_bench.summarize([LOWER], runs)["fixtures"]
    result = summary["metrics"]["op_p50_ms"]
    assert (result["wins"], result["all_better"], result["verdict"]) == (10, True, "gain")
    assert summary["attempted"] == {"parent": 300, "change": 350}
