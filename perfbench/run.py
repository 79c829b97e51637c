"""Benchmark for the dtlstar workbench.

    python3 perfbench/run.py --workload modelcheck|satisfy|explore \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ``src/`` next
to this directory, never from an installed copy, and the run fails without
printing a result when that source is missing.

Each run is one process serving one workload as a closed loop with a single
client: the next request is sent when the previous answer is back.  Requests
are JSON-able payloads generated from ``--seed`` (see ``workloads.py``);
handlers call the library in process through the functions the CLI
dispatches to.  Each answer is checked right after it is timed, against a
known answer, the benchmark's own reference evaluator, or a re-check of the
witnesses it returns; a request that raised or failed a check counts as
failed.

Set-up (a fresh import of the library plus a few warm-up requests drawn
from their own seed-derived stream) is repeated ``SETUP_REPEATS`` times;
``setup_s`` is the median.  The timed loop then serves whole blocks of
requests (see ``workloads.py``) until their summed latency reaches
``--seconds``, so every class keeps its exact share of the requests timed;
``throughput_rps`` is the number of requests served over their summed
latency.  A mean over the whole run follows the speed of a shared machine
in proportion to the time it spends fast or slow, where a median over
blocks jumps between the two.

``BENCHMARK.json`` lists ``satisfy`` and ``explore``.  ``modelcheck`` runs
with the same command, but the time allowed for all runs of the benchmark
does not leave room for a third workload at a run length that is steady on
a shared machine.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` imports the
library twice, installs the layer wrappers of ``layertrace.py`` on the first
copy and serves each request to both copies in turn, for half the time on
the traced copy; it prints the per-layer metrics and
``trace.overhead_share``, the throughput lost to tracing.  Serving the two
copies request by request keeps a drift in the speed of the machine out of
that share.  Spans go to ``perfbench/out/<workload>.spans``.

The last line of standard output is the result object; the line before it,
also written to ``perfbench/out/``, is the run record: the measured share of
each request class, a digest of the first ``DIGEST_PREFIX`` answers, and the
machine and code the run measured.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from layertrace import Tracer, layer_metrics
from workloads import WORKLOADS, request_stream, warmup_requests

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MODULES = ("syntax", "preorder", "semantics", "states", "simulation", "simformula",
           "quasimodel", "statespace", "proofkit", "cli")
SETUP_REPEATS = 9
DIGEST_PREFIX = 100
MAX_PROBLEMS_SHOWN = 5


class Library:
    """One fresh import of every module the CLI loads."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m == "dtlstar" or m.startswith("dtlstar.")]:
            del sys.modules[name]
        package = importlib.import_module("dtlstar")
        if Path(package.__file__).resolve().parent != SRC / "dtlstar":
            raise ImportError(f"dtlstar imported from {package.__file__}, not from {SRC}")
        self.modules = {m: importlib.import_module(f"dtlstar.{m}") for m in MODULES}
        self.modules["dtlstar"] = package
        for name, module in self.modules.items():
            setattr(self, name, module)


def machine_probe() -> float:
    """Seconds for a fixed piece of pure-Python work.

    Timed once per block outside the timed region and kept in the run
    record, so that a slow run can be told apart from a slow machine."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


def setup(workload, seed: int, repeats: int):
    """Import the library and serve the warm-up stream, ``repeats`` times."""
    warm = warmup_requests(workload, seed)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        lib = Library()
        for req in warm:
            workload.handle(lib, req.payload)
        times.append(time.perf_counter() - t0)
    return lib, statistics.median(times)


class Served:
    """What the timed loop keeps: latencies, classes, failures and digests."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.classes: list[str] = []
        self.digests: list[str] = []
        self.failed = 0
        self.certified = 0
        self.certifiable = 0
        self.problems: list[str] = []
        self.counts: dict[str, int] = {}
        self.probes: list[float] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS_SHOWN:
            self.problems.append(message)


class Lane:
    """One copy of the library the timed stream is served to, and what it
    served."""

    def __init__(self, lib, tracer: Tracer | None = None, check: bool = True) -> None:
        self.lib = lib
        self.tracer = tracer
        self.check = check
        self.served = Served()


def serve(workload, seed: int, seconds: float, lanes: list[Lane]) -> None:
    """Closed loop: serve each request of the timed stream to every lane in
    turn, checking the answers, until the first lane's summed latency
    reaches ``seconds`` at the end of a block."""
    busy = 0.0
    block = len(workload.BLOCK)
    for index, req in enumerate(request_stream(workload, seed)):
        if index % block == 0:
            if busy >= seconds:
                break
            lanes[0].served.probes.append(machine_probe())
        for lane in lanes:
            serve_one(workload, lane, index, req)
        busy += lanes[0].served.latencies[-1]


def serve_one(workload, lane: Lane, index: int, req) -> None:
    out, tracer = lane.served, lane.tracer
    if tracer is not None:
        tracer.install()
        span = tracer.begin_request(index)
    t0 = time.perf_counter()
    try:
        answer, raw = workload.handle(lane.lib, req.payload)
        error = None
    except Exception:  # a failed request is counted, and the loop goes on
        answer = raw = None
        error = traceback.format_exc()
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_request(span)
        tracer.uninstall()
    out.latencies.append(latency)
    out.classes.append(req.cls)
    where = f"request {index} ({req.cls})"
    if error is not None:
        out.fail(f"{where}: {error.strip().splitlines()[-1]}")
        out.digests.append("error")
        return
    out.digests.append(hashlib.sha256(
        json.dumps(answer, sort_keys=True).encode()).hexdigest())
    if tracer is not None:
        for key, value in workload.counts(raw).items():
            out.counts[key] = out.counts.get(key, 0) + value
    if not lane.check:
        return
    try:
        outcome = workload.check(lane.lib, req, answer, raw)
    except Exception:
        out.fail(f"{where}: check raised {traceback.format_exc().strip().splitlines()[-1]}")
        return
    if outcome.problems:
        out.fail(f"{where}: {'; '.join(outcome.problems[:3])}")
    elif outcome.certified is not None:
        out.certifiable += 1
        out.certified += outcome.certified


def digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests[:DIGEST_PREFIX]).encode()).hexdigest()


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dtlstar").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seed: int, seconds: float) -> tuple[Served, dict]:
    lib, setup_s = setup(workload, seed, SETUP_REPEATS)
    lane = Lane(lib)
    serve(workload, seed, seconds, [lane])
    served = lane.served
    lat = served.latencies
    cuts = statistics.quantiles(lat, n=100, method="inclusive")
    return served, {
        "throughput_rps": metric(len(lat) / sum(lat), "req/s"),
        "latency_p50_ms": metric(cuts[49] * 1e3, "ms"),
        "latency_p90_ms": metric(cuts[89] * 1e3, "ms"),
        "certified_share": metric(served.certified / max(1, served.certifiable), "share"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(workload, seed: int, seconds: float) -> tuple[Served, dict]:
    lib, _ = setup(workload, seed, 1)
    traced_lane = Lane(lib, Tracer(lib.modules))
    lib, _ = setup(workload, seed, 1)
    bare_lane = Lane(lib, check=False)
    serve(workload, seed, seconds / 2, [traced_lane, bare_lane])
    served, bare = traced_lane.served, bare_lane.served
    traced_lane.tracer.dump(OUT / f"{workload.name}.spans")
    metrics = layer_metrics(traced_lane.tracer.aggregate(), served.counts, len(served.latencies))
    if bare.digests != served.digests:
        served.fail("the untraced copy gave different answers")
    metrics["trace.overhead_share"] = metric(
        1 - sum(bare.latencies) / sum(served.latencies), "share")
    return served, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dtlstar" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    served, metrics = run(workload, args.seed, args.seconds)

    n = len(served.latencies)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "requests": n,
        "class_share": {c: served.classes.count(c) / n for c in sorted(set(served.classes))},
        "failed_share": served.failed / n,
        "answers_digest": digest(served.digests),
        "machine_probe_ms": statistics.median(served.probes) * 1e3,
        "digest_prefix": min(n, DIGEST_PREFIX),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit(),
        "source_digest": source_digest(),
    }
    for problem in served.problems:
        print("FAILED", problem, file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": served.failed == 0, "attempted": n,
                      "failed": served.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
