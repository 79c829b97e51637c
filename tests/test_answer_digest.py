"""Golden digests of the benchmark's first request block per workload.

Answers are digested as ``perfbench/run.py`` digests them: the sha256 of the
newline-joined sha256 of each ``json.dumps(answer, sort_keys=True)``.  A
change that alters answers on purpose updates the pin and says why.
"""

import hashlib
import itertools
import json
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

# (workload, seed, requests): one block of each workload's timed stream
PINS = {
    ("satisfy", 611, 37): "228beaebb5f4a274692c4d6e2cc00517fe4a91d4741ce0cc632dfa377df161d3",
    ("explore", 711, 21): "2de1183a01f98eeee61de561a1bc5d031758cee435940e48e9473b4633d1a891",
}


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


@pytest.mark.parametrize("key", sorted(PINS))
def test_first_block_digest(workloads, key):
    name, seed, count = key
    workload = workloads.WORKLOADS[name]
    digests = []
    for req in itertools.islice(workloads.request_stream(workload, seed), count):
        answer, _ = workload.handle(LIB, req.payload)
        digests.append(hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest())
    assert hashlib.sha256("\n".join(digests).encode()).hexdigest() == PINS[key]
