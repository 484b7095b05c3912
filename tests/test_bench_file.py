"""BENCH_solve.json at the repo root: one record per A/B run of the benchmark.

A record compares two revisions of the tree on perfbench/run.py's workloads
in alternating pairs of untraced runs. These tests read the file only; they
run no benchmark.
"""

import json
import math
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "BENCH_solve.json"
HOST = {"python", "numpy", "blas", "nproc", "machine", "pinned_cpu"}
SIDES = ("parent", "change")


def test_bench_file_parses_and_holds_records():
    assert json.loads(BENCH.read_text())["records"]


def test_every_bench_record_has_its_fields():
    for rec in json.loads(BENCH.read_text())["records"]:
        check_record(rec)


def check_record(rec):
    assert set(rec["revisions"]) == set(SIDES)
    assert all("commit" in rec["revisions"][s] for s in SIDES)
    assert rec["revisions"]["parent"]["commit"]
    assert isinstance(rec["date"], str) and rec["date"]
    assert HOST <= rec["host"].keys()
    assert rec["seconds"] > 0
    assert rec["workloads"]
    for workload in rec["workloads"].values():
        pairs = workload["pairs"]
        assert pairs >= 1 and len(workload["seeds"]) == pairs
        assert workload["metrics"]
        for m in workload["metrics"].values():
            assert m["better"] in ("lower", "higher")
            for side in SIDES:
                runs = m["runs"][side]
                assert len(runs) == pairs and all(math.isfinite(v) for v in runs)
                q1, median, q3 = m["quartiles"][side]
                assert min(runs) <= q1 <= median <= q3 <= max(runs)
                assert m["median"][side] == median
            assert 0 <= m["wins"] <= pairs
