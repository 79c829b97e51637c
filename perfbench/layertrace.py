"""Per-layer tracing from outside the library.

``Tracer.install`` replaces the layer functions named in ``SPANS`` by timing
wrappers at every module binding (``statespace`` imports ``enumerate_models``
and ``simulated_points_mask`` by name, ``cli`` imports ``parse``, and so on)
and ``uninstall`` puts the originals back.  Each call is a span (name,
start, end, parent, request) kept in flat arrays in memory and written out
by ``dump``.  Recursive functions (``DynModel.eval_mask``,
``raw_sim_formula``) record only their outermost call.  The functions in
``COUNTED`` run thousands of times per request for microseconds each, so
they are only counted (``enumerate_models`` counts the models it yields):
a span each would cost more than their work, and their time stays with the
span that called them.

A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from pathlib import Path

# (module, attribute, span name)
SPANS = (
    ("syntax", "parse", "syntax.parse"),
    ("preorder", "Preorder.__init__", "preorder.build"),
    ("preorder", "is_continuous_map", "preorder.continuity"),
    ("preorder", "is_continuous_relation", "preorder.continuity"),
    ("preorder", "enumerate_preorders", "preorder.enumerate"),
    ("preorder", "monotone_maps", "preorder.enumerate"),
    ("semantics", "DynModel.__init__", "semantics.model_build"),
    ("semantics", "DynModel.eval_mask", "semantics.eval"),
    ("semantics", "tangled_gfp_mask", "semantics.tangle"),
    ("semantics", "enumerate_models", "semantics.enumerate_models"),
    ("states", "phi_types", "states.phi_types"),
    ("states", "state_of_model_point", "states.point_state"),
    ("states", "_canonical_state_key", "states.canonical_key"),
    ("states", "validate_typing", "states.validate_typing"),
    ("simulation", "simulates", "simulation.simulates"),
    ("simulation", "simulated_points_mask", "simulation.embed"),
    ("simulation", "simulates_in_model", "simulation.embed"),
    ("simformula", "sim_formula", "simformula.sim_formula"),
    ("simformula", "raw_sim_formula", "simformula.raw_sim_formula"),
    ("quasimodel", "validate_quasimodel", "quasimodel.validate"),
    ("quasimodel", "realizing_lasso", "quasimodel.lasso"),
    ("statespace", "enumerate_states", "statespace.enumerate_states"),
    ("statespace", "temporal_successor", "statespace.temporal_successor"),
    ("statespace", "efficient_paths", "statespace.efficient_paths"),
    ("statespace", "reachable", "statespace.reachable"),
    ("statespace", "ModelSearchOracle.judge", "statespace.oracle"),
    ("statespace", "satisfy", "statespace.satisfy"),
)
OUTERMOST = {"DynModel.eval_mask", "raw_sim_formula"}
COUNTED = {"semantics.enumerate_models", "statespace.temporal_successor"}
REQUEST = "bench.request"

# (metric, unit, kind, argument).  Kinds: "self" = self time of the
# spans of a name (or of a tuple of names) per request; "calls" = spans or counted calls of a name per
# request; "count" = a count per request from the workloads' public outputs
# or from the tracer; "ratio" = numerator / denominator, each a count name or
# "calls:" and a span name.
METRICS = (
    ("syntax.parse_s", "s/req", "self", "syntax.parse"),
    ("preorder.build_calls", "count/req", "calls", "preorder.build"),
    ("preorder.build_s", "s/req", "self", "preorder.build"),
    ("preorder.continuity_s", "s/req", "self", "preorder.continuity"),
    ("preorder.enumerate_s", "s/req", "self", "preorder.enumerate"),
    ("semantics.models_built", "count/req", "calls", "semantics.model_build"),
    ("semantics.model_build_s", "s/req", "self", "semantics.model_build"),
    ("semantics.models_examined", "count/req", "calls", "semantics.enumerate_models"),
    ("semantics.search_hit_ratio", "ratio", "ratio",
     ("search_hits", "calls:semantics.enumerate_models")),
    ("semantics.eval_calls", "count/req", "calls", "semantics.eval"),
    ("semantics.eval_s", "s/req", "self", "semantics.eval"),
    ("semantics.tangle_s", "s/req", "self", "semantics.tangle"),
    ("states.phi_types_s", "s/req", "self", "states.phi_types"),
    ("states.point_state_s", "s/req", "self", "states.point_state"),
    ("states.canonical_key_calls", "count/req", "calls", "states.canonical_key"),
    ("states.canonical_key_s", "s/req", "self", "states.canonical_key"),
    ("states.validate_typing_s", "s/req", "self", "states.validate_typing"),
    ("simulation.simulates_calls", "count/req", "calls", "simulation.simulates"),
    ("simulation.simulates_s", "s/req", "self", "simulation.simulates"),
    ("simulation.embed_s", "s/req", "self", "simulation.embed"),
    ("simformula.sim_formula_calls", "count/req", "calls", "simformula.sim_formula"),
    ("simformula.sim_formula_s", "s/req", "self",
     ("simformula.sim_formula", "simformula.raw_sim_formula")),
    ("quasimodel.validate_s", "s/req", "self", "quasimodel.validate"),
    ("quasimodel.lasso_s", "s/req", "self", "quasimodel.lasso"),
    ("statespace.enumerate_states_s", "s/req", "self", "statespace.enumerate_states"),
    ("statespace.successor_checks", "count/req", "calls",
     "statespace.temporal_successor"),
    ("statespace.successor_hit_ratio", "ratio", "ratio",
     ("step_pairs", "calls:statespace.temporal_successor")),
    ("statespace.efficient_paths_s", "s/req", "self", "statespace.efficient_paths"),
    ("statespace.paths", "count/req", "count", "paths"),
    ("statespace.prunes", "count/req", "count", "prunes"),
    ("statespace.truncated_walks", "count/req", "count", "truncated_walks"),
    ("statespace.reachable_calls", "count/req", "calls", "statespace.reachable"),
    ("statespace.reachable_s", "s/req", "self", "statespace.reachable"),
    ("statespace.oracle_judge_calls", "count/req", "calls", "statespace.oracle"),
    ("statespace.oracle_cache_hit_ratio", "ratio", "ratio",
     ("oracle_cache_hits", "calls:statespace.oracle")),
    ("statespace.oracle_unknown_share", "ratio", "ratio", ("unknown", "judged")),
    ("statespace.oracle_s", "s/req", "self", "statespace.oracle"),
    ("statespace.satisfy_s", "s/req", "self", "statespace.satisfy"),
)


class Tracer:
    """Spans of the layer functions of one imported copy of the library.

    ``modules`` maps module names (``"syntax"``, ...) to the imported
    modules, plus any other module whose bindings must be patched too.
    """

    def __init__(self, modules: dict[str, object]) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counted: dict[str, int] = {}
        self.truncated_reach = 0
        self._stack = [-1]
        self._current = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        for mod_name, attr, span in SPANS:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapped = self._wrap(original, span, attr in OUTERMOST)
                self._patches.append((cls, meth, original, wrapped))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, span, attr in OUTERMOST)
            for mod in modules.values():
                for name, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, name, original, wrapped))

    def install(self) -> None:
        for owner, name, _original, wrapped in self._patches:
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original, _wrapped in reversed(self._patches):
            setattr(owner, name, original)

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self._current[0])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _exit(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def begin_request(self, index: int) -> int:
        self._current[0] = index
        return self._enter(self._id(REQUEST))

    def end_request(self, sid: int) -> None:
        self._exit(sid)

    def _wrap(self, fn, span: str, outermost: bool):
        if span in COUNTED:
            return self._counter(fn, span)
        nid = self._id(span)
        enter, leave = self._enter, self._exit

        if outermost:
            active = [False]

            def outer_wrapper(*args, **kwargs):
                if active[0]:
                    return fn(*args, **kwargs)
                active[0] = True
                sid = enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(sid)
                    active[0] = False

            return outer_wrapper

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(sid)
                    yield item

            return gen_wrapper

        reach = self._id("statespace.reachable")

        def wrapper(*args, **kwargs):
            sid = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(sid)
            if nid == reach:
                self.truncated_reach += bool(result.truncated)
            return result

        return wrapper

    def _counter(self, fn, span: str):
        counted = self.counted
        counted[span] = 0

        if inspect.isgeneratorfunction(fn):
            def gen_counter(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counted[span] += 1
                    yield item

            return gen_counter

        def counter(*args, **kwargs):
            counted[span] += 1
            return fn(*args, **kwargs)

        return counter

    # -- analysis -----------------------------------------------------------

    def aggregate(self) -> dict:
        """Self time and calls per name, oracle cache hits, truncated walks."""
        n = len(self.start)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        child = [0.0] * n
        has_child = bytearray(n)
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
                has_child[p] = 1
        self_time = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        judge = self._ids.get("statespace.oracle", -1)
        cache_hits = 0
        for sid in range(n):
            nid = name[sid]
            self_time[nid] += end[sid] - start[sid] - child[sid]
            calls[nid] += 1
            if nid == judge and not has_child[sid]:
                cache_hits += 1
        return {
            "self": dict(zip(self.names, self_time)),
            "calls": {**dict(zip(self.names, calls)), **self.counted},
            "counts": {"oracle_cache_hits": cache_hits, "truncated_reach": self.truncated_reach},
        }

    def dump(self, path: Path) -> None:
        """Write the spans as a JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "fields": [["name", "i"], ["parent", "i"], ["request", "i"],
                       ["start", "d"], ["end", "d"]],
            "byteorder": "native",
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.request, self.start, self.end):
                arr.tofile(fh)


def layer_metrics(agg: dict, counts: dict[str, int], n_requests: int) -> dict[str, dict]:
    """Per-layer metrics from a tracer aggregate plus output-derived counts."""
    counts = {**counts, **agg["counts"]}
    counts["truncated_walks"] = counts.get("truncated_paths", 0) + counts["truncated_reach"]

    def value(ref: str) -> float:
        if ref.startswith("calls:"):
            return agg["calls"].get(ref[6:], 0)
        return counts.get(ref, 0)

    out = {}
    per = max(1, n_requests)
    for metric, unit, kind, arg in METRICS:
        if kind == "self":
            names = arg if isinstance(arg, tuple) else (arg,)
            v = sum(agg["self"].get(nm, 0.0) for nm in names) / per
        elif kind == "calls":
            v = agg["calls"].get(arg, 0) / per
        elif kind == "count":
            v = counts.get(arg, 0) / per
        else:
            num, den = value(arg[0]), value(arg[1])
            v = num / den if den else 0.0
        out[metric] = {"value": v, "unit": unit}
    return out
