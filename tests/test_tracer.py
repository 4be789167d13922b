"""The benchmark tracer against the program it patches.

``perfbench/tracer.py`` wraps the kernels that ``runner`` calls, the
S-metric and map classes, and ``cli``'s loader and runner.  Tracing must
leave every report as it is, and the bundled inputs must enter every
kernel span the tracer names, so a refactor that removes or renames one
of its patch points fails here rather than in a benchmark run.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

from smetriclab import cli, fixture_path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = [
    fixture_path(f"{name}.json")
    for name in (
        "discontinuity_0_2",
        "example_2_2",
        "example_2_2_corrected",
        "example_3_3",
    )
] + [ROOT / "tests" / "golden" / "inputs" / "evidence.json"]


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(path):
    """(exit code, report without timing) of ``run`` on one input."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", "--input", str(path)])
    report = json.loads(out.getvalue())
    del report["timing"]
    return code, report


def test_tracing_keeps_reports_and_enters_every_kernel():
    tracer = _load_tracer()
    plain = [_report(path) for path in INPUTS]
    traced = tracer.Tracer()
    with traced.installed():
        spanned = [_report(path) for path in INPUTS]
    assert spanned == plain
    missing = [
        name for name, _ in tracer.KERNELS.values() if not traced.calls[name]
    ]
    assert missing == []
