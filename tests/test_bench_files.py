"""Every committed benchmark record, BENCH_<n>.json at the repository root.

A performance change commits perfbench's results before and after it in
such a file; the record is only worth keeping if it says which change it
belongs to, what it ran, against which parent, and on which Python and
numpy.
"""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_names_its_change_run_and_environment(path):
    name = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    assert name, path.name
    record = json.loads(path.read_text())
    assert record["pr"] == int(name.group(1))
    for key in ("python", "numpy", "command", "parent_commit"):
        assert isinstance(record.get(key), str) and record[key].strip(), key
