"""Every committed benchmark record is complete enough to back a claim.

A ``BENCH_<n>.json`` at the repository root holds alternating pairs of
``perfbench/run.py --out`` figures for the parent commit and the change,
taken on one machine.  A speed claim without the figures, or without the
core count they were taken on, is not a claim the record supports; nor is
a pair on a workload the benchmark does not declare, or a side whose run
failed an operation.
"""

import json
import numbers
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
FIGURES = ("wall_s", "setup_s", "peak_rss_mb", "failed")
WORKLOADS = {workload["name"] for workload in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]}


def test_records_are_committed():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_is_complete(path):
    record = json.loads(path.read_text())
    nproc = record["machine"]["nproc"]
    assert isinstance(nproc, int) and nproc >= 1
    assert record["pairs"], "a record without pairs"
    for index, pair in enumerate(record["pairs"]):
        assert pair.get("workload") in WORKLOADS, (
            f"pair {index}: workload {pair.get('workload')!r} is not in "
            f"BENCHMARK.json")
        for side in ("parent", "change"):
            figures = pair[side]
            for name in FIGURES:
                value = figures.get(name)
                assert (isinstance(value, numbers.Real)
                        and not isinstance(value, bool)), (
                    f"pair {index}: {side} lacks a number for {name!r}")
            assert figures["failed"] == 0, (
                f"pair {index}: {side} failed {figures['failed']} "
                f"operation(s)")
