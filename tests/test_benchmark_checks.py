"""The benchmark's own answer checks (``perfbench/workloads.py``) on a few
seeded requests of each workload, so that an answer the benchmark would
count as wrong fails the test suite first."""

import sys
from pathlib import Path

import pytest

import satcycles
import satcycles.cli  # the workloads call sc.cli.main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("name", ["cycles_mixed", "melnikov_diagram", "fold_scan"])
def test_four_seeded_requests_pass_the_benchmark_check(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name]
    for i in range(4):
        request = workload.request(1, i)
        out = workload.run(satcycles, request, tmp_path)
        assert workload.check(satcycles, request, out) == [], request
