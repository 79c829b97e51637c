"""The benchmark's warm-up requests, served through the library this test
run has imported: a parameter that ``perfbench/workloads.py`` still passes
cannot be removed from the library without failing here."""

import sys
import types
from pathlib import Path

import pytest

import dtlstar.cli  # noqa: F401  (loads every module the CLI dispatches to)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

LIB = types.SimpleNamespace(**{
    name.split(".", 1)[1]: module for name, module in sys.modules.items()
    if name.startswith("dtlstar.")
})


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files in the benchmark
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))
    return workloads


@pytest.mark.parametrize("name", ["satisfy", "explore"])
@pytest.mark.parametrize("seed", [0, 1])
def test_warmup_requests_pass_their_checks(workloads, name, seed):
    workload = workloads.WORKLOADS[name]
    for req in workloads.warmup_requests(workload, seed):
        answer, raw = workload.handle(LIB, req.payload)
        assert workload.check(LIB, req, answer, raw).problems == []
