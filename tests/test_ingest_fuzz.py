"""Fuzzing `ingest` with odd cells: a bad table ends as per-row rejects or as
one JSON error line with exit 1, never as a traceback, and the cases file
holds only standard JSON."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_path
from crashlens.cli import main

TABLES = ("crashes", "segments", "vehicles", "persons")
BUNDLED = {
    name: list(csv.reader(corpus_path(name).read_text(encoding="utf-8").splitlines()))
    for name in TABLES
}

ODD_CELLS = [
    "", " ", "nan", "NaN", "unknown", "N/A", "n/a", "inf", "-inf", "Infinity",
    "1e400", "-1", "0", "abc", "2022-13-45", "25:61", "C0001",
]
cells = st.sampled_from(ODD_CELLS) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
# (table, row, column, edit); row 0 is the header, and the indices wrap
edits = st.tuples(
    st.sampled_from(TABLES),
    st.integers(0, 200),
    st.integers(0, 20),
    cells.map(lambda v: ("set", v)) | st.just(("short", "")) | cells.map(lambda v: ("long", v)),
)


def _no_constant(name: str) -> None:
    raise ValueError(f"non-standard JSON constant {name}")


def _edited(changes: list) -> dict[str, list[list[str]]]:
    tables = {name: [list(row) for row in rows] for name, rows in BUNDLED.items()}
    for name, row_i, col_i, (kind, value) in changes:
        rows = tables[name]
        row = rows[row_i % len(rows)]
        if kind == "short":
            del row[col_i % max(len(row), 1):]
        elif kind == "long":
            row.append(value)
        elif row:
            row[col_i % len(row)] = value
    return tables


@settings(max_examples=50, deadline=None)
@given(st.lists(edits, min_size=1, max_size=8))
def test_ingest_of_odd_cells_is_rejects_or_one_json_error(changes):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["ingest"]
        for name, rows in _edited(changes).items():
            path = Path(tmp) / f"{name}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(rows)
            argv += [f"--{name}", str(path)]
        out = Path(tmp) / "cases.jsonl"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
        if code == 0:
            lines = out.read_text(encoding="utf-8").split("\n")[:-1]
            for line in lines:
                json.loads(line, parse_constant=_no_constant)
            assert json.loads(stdout.getvalue())["cases"] == len(lines)
        else:
            assert code == 1
            errors = stderr.getvalue().splitlines()
            assert len(errors) == 1, errors
            assert set(json.loads(errors[0])) == {"error", "detail"}
            assert not out.exists()
