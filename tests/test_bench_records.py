"""
Every committed ``BENCH_*.json`` is a benchmark record that a reader can check
against ``BENCHMARK.json``: it names its parent commit, its method, machine
and seeds, was run for the benchmark's run length, and claims a gain on a
workload and an end-to-end metric that the benchmark defines.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_matches_the_benchmark(path):
    record = json.loads(path.read_text())
    for key in ("title", "change", "machine", "method", "seeds"):
        assert record.get(key), f"{path.name} has no {key}"
    assert isinstance(record["parent"]["commit"], str) and record["parent"]["commit"]
    assert all(isinstance(seed, int) for seed in record["seeds"])
    assert record["run_seconds"] == BENCHMARK["run_seconds"]
    claim = record["claim"]
    assert claim["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    assert claim["metric"] in {m["name"] for m in BENCHMARK["end_to_end"]}
