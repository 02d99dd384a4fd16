"""The benchmark's own answer checks (``perfbench/workloads.py``) on the
first four requests of each workload at seed 1, and of ``cycles_mixed`` at
seeds 1-8, so that an answer the benchmark would count as wrong fails the
test suite first."""

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


def _check_first_four(workloads, tmp_path, name, seed):
    workload = workloads.WORKLOADS[name]
    for i in range(4):
        request = workload.request(seed, i)
        out = workload.run(satcycles, request, tmp_path)
        assert workload.check(satcycles, request, out) == [], request


@pytest.mark.parametrize("name", ["cycles_mixed", "melnikov_diagram", "fold_scan"])
def test_four_seeded_requests_pass_the_benchmark_check(workloads, tmp_path, name):
    _check_first_four(workloads, tmp_path, name, 1)


@pytest.mark.parametrize("seed", range(2, 9))
def test_cycles_mixed_passes_the_benchmark_check_at_more_seeds(workloads, tmp_path, seed):
    _check_first_four(workloads, tmp_path, "cycles_mixed", seed)
