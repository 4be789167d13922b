"""The report writer: ``cli.write_json`` against ``json.dumps(indent=2)``,
and the CLI's exits when writing the report fails partway.

Run the property test under more examples with ``--hypothesis-profile
oracle``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from smetriclab import cli


class Text(str):
    pass


class Whole(int):
    pass


class Real(float):
    pass


_CHARACTERS = st.characters(exclude_categories=())  # lone surrogates too
_TEXT = st.text(_CHARACTERS, max_size=8) | st.sampled_from(
    ["", "%", "%s", "%%", '"', '"%d"', "\\", "\n\t\x00", "é", "\ud800"]
)
_FLOATS = st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
_INTS = st.integers() | st.integers(min_value=2**64, max_value=2**200).flatmap(
    lambda n: st.sampled_from([n, -n])
)
_LEAVES = (
    _TEXT | _INTS | _FLOATS | st.booleans() | st.none()
    | st.builds(Text, _TEXT) | st.builds(Whole, _INTS)
    | st.builds(Real, _FLOATS)
)
# the values of one column, row by row: of one leaf type, or mixing int,
# float and bool
_COLUMNS = [
    (leaf,) for leaf in (
        _TEXT, _INTS, _FLOATS, st.booleans(), st.none(), st.builds(Real, _FLOATS),
    )
] + [(st.integers(), _FLOATS, st.booleans())]


@st.composite
def _records(draw):
    """Two or more dicts with the same keys, each key's values drawn from
    one of ``_COLUMNS``; one record may list its keys in another order."""
    keys = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    rows = [[] for _ in range(draw(st.integers(2, 6)))]
    for key in keys:
        column = draw(st.sampled_from(_COLUMNS))
        for i, row in enumerate(rows):
            row.append((key, draw(column[i % len(column)])))
    if draw(st.booleans()):
        draw(st.sampled_from(rows)).reverse()
    return [dict(row) for row in rows]


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.dictionaries(_TEXT, children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        # keys json.dumps turns into strings
        | st.dictionaries(st.integers() | _FLOATS | st.booleans() | st.none(),
                          children, max_size=3)
    )


# ``one_of`` keeps the records one branch in two, where ``|`` would make
# them one of nine beside the leaves
_TREES = st.recursive(st.one_of(_records(), _LEAVES), _containers, max_leaves=20)


def _written(tree):
    pieces = []
    cli.write_json(tree, pieces.append)
    return "".join(pieces)


@pytest.mark.parametrize("batch", [1, 2, cli._BATCH])
@given(tree=_TREES)
# lists at the edges of the record template: no keys, keys json.dumps
# converts, an item that is no dict, other keys, a mixed column, both
# zeros, NaNs and infinities, and keys and values holding % and "
@example(tree=[{}, {}])
@example(tree=[{1: 2}, {1: 3}])
@example(tree=[{"a": 1}, "a"])
@example(tree=[{"a": 1}, {"a": 2, "b": 3}])
@example(tree=[{"a": 1}, {"a": 1.0}, {"a": True}])
@example(tree=[{"a": 0.0}, {"a": -0.0}])
@example(tree=[{"a": math.nan}, {"a": math.inf}, {"a": -math.inf}, {"a": math.nan}])
@example(tree=[{"%s": 1, '"%d"': "%"}, {"%s": 2, '"%d"': "%%"}])
def test_the_writer_writes_the_bytes_of_json_dumps(batch, tree):
    with mock.patch.object(cli, "_BATCH", batch):
        assert _written(tree) == json.dumps(tree, indent=2) + "\n"


def test_a_record_list_is_written_a_batch_at_a_time():
    records = [{"x": str(i), "m": i / 3, "ok": i % 2 == 0} for i in range(7)]
    writes = []
    with mock.patch.object(cli, "_BATCH", 2):
        cli.write_json({"violations": records}, writes.append)
    assert "".join(writes) == json.dumps({"violations": records}, indent=2) + "\n"
    assert len(writes) == 5  # four batches, then the close


def test_any_other_list_is_written_as_its_pieces_grow():
    items = [[i] if i % 2 else {"i": i} for i in range(7)]
    writes = []
    with mock.patch.object(cli, "_BATCH", 2):
        cli.write_json(items, writes.append)
    assert "".join(writes) == json.dumps(items, indent=2) + "\n"
    assert len(writes) > 3


def _grid_report_input(tmp_path):
    """Condition (ii) on a 21-node grid: a report of about 160 KB, more
    than a pipe holds."""
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({
        "space": {"kind": "real_grid", "lo": -10, "hi": 10, "step": 1,
                  "smetric": {"kind": "formula",
                              "expr": "abs(x - z) + abs(y - z)"}},
        "map": {"kind": "formula", "expr": "x / 2 - 3"},
        "params": {"a": 0.75, "b": 0, "c": 0},
        "gauge": {"phi": "2 * t / 3", "delta": "eps"},
        "checks": [{"check": "condition_ii"}],
    }))
    return path


class _FailingFile:
    """An open file whose writes raise ``error`` once ``limit``
    characters have been written."""

    def __init__(self, limit, error):
        self.limit, self.error, self.written = limit, error, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None

    def write(self, text):
        if self.written + len(text) > self.limit:
            raise self.error
        self.written += len(text)
        return len(text)


@pytest.mark.parametrize(("error", "message"), [
    (OSError(28, "No space left on device"),
     "error: {path}: cannot write report: [Errno 28] No space left on device\n"),
    (MemoryError(), "error: out of memory\n"),
])
def test_a_write_failing_partway_exits_2_without_a_traceback(
    tmp_path, monkeypatch, capsys, error, message
):
    target, files, path_open = tmp_path / "report.json", [], Path.open

    def open_failing(path, *args, **kwargs):
        if path != target:
            return path_open(path, *args, **kwargs)
        files.append(_FailingFile(50_000, error))
        return files[-1]

    monkeypatch.setattr(cli, "_BATCH", 100)  # a write per 100 records
    monkeypatch.setattr(Path, "open", open_failing)
    code = cli.main(["run", "--input", str(_grid_report_input(tmp_path)),
                     "--output", str(target)])
    assert (code, capsys.readouterr()) == (2, ("", message.format(path=target)))
    assert 0 < files[0].written <= 50_000  # it failed partway


def test_a_closed_stdout_exits_2_without_a_traceback(tmp_path):
    child = subprocess.Popen(
        [sys.executable, "-m", "smetriclab", "run", "--input",
         str(_grid_report_input(tmp_path))],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(child.stdout.read(100)) == 100
    child.stdout.close()
    stderr = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 2
    assert stderr.startswith("error: <stdout>: cannot write report: ")
    assert stderr.count("\n") == 1  # no traceback, no exit-time message


class _FailingStdout:
    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize(("error", "silenced"), [
    (BrokenPipeError(32, "Broken pipe"), True),
    (OSError(28, "No space left on device"), False),
])
def test_only_a_closed_pipe_sends_stdout_to_the_null_device(
    tmp_path, capsys, monkeypatch, error, silenced
):
    # capsys before monkeypatch: sys.stdout is restored before capture ends
    calls = []
    monkeypatch.setattr(cli, "_silence_stdout", lambda: calls.append(1))
    monkeypatch.setattr(sys, "stdout", _FailingStdout(error))
    code = cli.main(["run", "--input", str(_grid_report_input(tmp_path))])
    assert (code, capsys.readouterr().err) == (
        2, f"error: <stdout>: cannot write report: {error}\n"
    )
    assert calls == ([1] if silenced else [])
