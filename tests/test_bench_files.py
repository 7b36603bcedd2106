"""Every committed benchmark record, BENCH_<n>.json at the repository root.

A performance change commits perfbench's results before and after it in
such a file; the record is only worth keeping if it says which change it
belongs to, what it ran, against which parent, and on which Python and
numpy.  It must have run perfbench, and a claim that a metric improves
must name a workload and an end-to-end metric that BENCHMARK.json declares.
"""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_there_are_bench_files():
    assert BENCH_FILES


#: a claim that one metric of one workload gets better
CLAIM = re.compile(r"(\S+) (\S+) improves\b")


def problems(record: dict) -> list[str]:
    """What a record's command and claim get wrong: a command that does not
    run perfbench, or a claim that names no declared workload or end-to-end
    metric."""
    out = []
    if "perfbench/run.py" not in record["command"].split():
        out.append(f"command does not run perfbench/run.py: {record['command']!r}")
    claim = CLAIM.match(record.get("claim") or "")
    if claim:
        workload, metric = claim.groups()
        if workload not in {w["name"] for w in BENCHMARK["workloads"]}:
            out.append(f"claim names no workload of BENCHMARK.json: {workload!r}")
        if metric not in {m["name"] for m in BENCHMARK["end_to_end"]}:
            out.append(f"claim names no end-to-end metric of BENCHMARK.json: {metric!r}")
    return out


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_names_its_change_run_and_environment(path):
    name = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    assert name, path.name
    record = json.loads(path.read_text())
    assert record["pr"] == int(name.group(1))
    for key in ("python", "numpy", "command", "parent_commit"):
        assert isinstance(record.get(key), str) and record[key].strip(), key
    assert problems(record) == []


def test_the_check_rejects_a_wrong_command_or_claim():
    good = {"command": "python3 perfbench/run.py --workload grid-suite --seed 41",
            "claim": "grid-suite ops_per_s improves (10 alternating pairs)"}
    assert problems(good) == []
    assert problems({**good, "claim": "none: a simplification"}) == []
    assert len(problems({**good, "command": "python3 bench.py"})) == 1
    assert len(problems({**good, "claim": "grid ops_per_s improves"})) == 1
    assert len(problems({**good, "claim": "grid-suite jet.mul.calls improves"})) == 1
