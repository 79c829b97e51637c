"""Batch command-line front end.

Every command writes one JSON document to stdout and diagnostics to stderr.
Exit status: 0 on success, 1 when a check answers false (invalid model,
rejected proof, no witness found), 2 on usage or input errors.  Output is
byte-identical across runs for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from . import __version__
from .preorder import PreorderError
from .proofkit import ProofError, check_proof, proof_from_json, soundness_harness
from .quasimodel import QuasimodelError, quasimodel_from_json, validate_quasimodel
from .semantics import (
    ModelError,
    enumerate_models,
    model_from_json,
    model_to_json,
)
from .simformula import sim_formula
from .simulation import simulates, simulates_in_model
from .statespace import Caps, SpaceError, satisfy
from .states import StateError, state_from_json
from .syntax import ParseError, parse, to_text


def _emit(data: Any, pretty: bool) -> None:
    if pretty:
        json.dump(data, sys.stdout, indent=2, sort_keys=True)
    else:
        json.dump(data, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


class InputError(ValueError):
    """An input file that cannot be read as JSON."""


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None
    except OSError as e:
        raise InputError(f"{path}: {e.strerror}") from None


def _verdict_json(v) -> dict:
    return {"ok": bool(v), "reason": v.reason, "witness": _plain(v.witness)}


def _plain(obj: Any) -> Any:
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_plain(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    return str(obj)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dtlstar",
        description="workbench for dynamic topological logic with the tangle modality",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")

    p = sub.add_parser("parse", help="parse a formula and print its canonical text")
    p.add_argument("formula")
    common(p)

    p = sub.add_parser("eval", help="evaluate a formula on a model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--formula", required=True)
    common(p)

    p = sub.add_parser("check-model", help="validate a model file")
    p.add_argument("model")
    common(p)

    p = sub.add_parser("sim", help="greatest simulation verdicts")
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--target-state", help="second state JSON file")
    p.add_argument("--model", help="model JSON file")
    p.add_argument("--point", help="model world (with --model)")
    common(p)

    p = sub.add_parser("simformula", help="print the simulation formula of a state")
    p.add_argument("state")
    common(p)

    p = sub.add_parser("quasimodel-check", help="validate a quasimodel file")
    p.add_argument("quasimodel")
    common(p)

    p = sub.add_parser("enumerate", help="enumerate models up to isomorphism")
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--vars", default="", help="comma-separated variable names")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--limit", type=int, default=100, help="cap on emitted models")
    common(p)

    p = sub.add_parser("satisfy", help="bounded witness-producing satisfiability")
    p.add_argument("formula")
    p.add_argument("--cap-worlds", type=int, default=3, help="oracle model size cap")
    p.add_argument("--budget", type=int, default=50_000, help="oracle model budget")
    p.add_argument("--oracle", choices=("model-search", "trusting"), default="model-search")
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("check-proof", help="check a proof object file")
    p.add_argument("proof")
    common(p)

    p = sub.add_parser("soundness-test", help="randomized axiom soundness harness")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-worlds", type=int, default=6)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers; the report is jobs-independent")
    common(p)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, ModelError, PreorderError, StateError, QuasimodelError, ProofError,
            SpaceError, InputError, json.JSONDecodeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "parse":
        f = parse(args.formula)
        _emit({"ok": True, "formula": to_text(f)}, args.pretty)
        return 0

    if args.command == "eval":
        model = model_from_json(_load_json(args.model))
        f = parse(args.formula)
        _emit({"formula": to_text(f), "worlds": sorted(model.eval(f))}, args.pretty)
        return 0

    if args.command == "check-model":
        try:
            model = model_from_json(_load_json(args.model))
        except ModelError as e:
            _emit({"ok": False, "reason": str(e)}, args.pretty)
            return 1
        _emit({"ok": True, "worlds": len(model.space.worlds)}, args.pretty)
        return 0

    if args.command == "sim":
        st = state_from_json(_load_json(args.state))
        if args.target_state:
            v = simulates(st, state_from_json(_load_json(args.target_state)))
        elif args.model and args.point:
            v = simulates_in_model(st, model_from_json(_load_json(args.model)), args.point)
        else:
            print("error: need --target-state or --model with --point", file=sys.stderr)
            return 2
        out = {"ok": bool(v), "reason": v.reason}
        if v.witness is not None:
            out["pairs"] = sorted(map(list, v.witness.pairs))
        _emit(out, args.pretty)
        return 0 if v else 1

    if args.command == "simformula":
        st = state_from_json(_load_json(args.state))
        _emit({"formula": to_text(sim_formula(st))}, args.pretty)
        return 0

    if args.command == "quasimodel-check":
        q = quasimodel_from_json(_load_json(args.quasimodel))
        v = validate_quasimodel(q)
        _emit(_verdict_json(v), args.pretty)
        return 0 if v else 1

    if args.command == "enumerate":
        for flag, value in (("--max-worlds", args.max_worlds), ("--limit", args.limit)):
            if value < 1:
                print(f"error: {flag} must be at least 1 (got {value})", file=sys.stderr)
                return 2
        vars_ = [s for s in args.vars.split(",") if s]
        stream = enumerate_models(args.max_worlds, vars_)
        if args.count_only:
            _emit({"count": sum(1 for _ in stream)}, args.pretty)
            return 0
        out = []
        for model in stream:
            out.append(model_to_json(model))
            if len(out) >= args.limit:
                break
        _emit({"models": out, "limit": args.limit}, args.pretty)
        return 0

    if args.command == "satisfy":
        caps = Caps(oracle_worlds=args.cap_worlds, oracle_budget=args.budget)
        report = satisfy(parse(args.formula), caps, args.oracle, args.seed)
        _emit(report.to_json(), args.pretty)
        return 0 if report.verdict == "satisfiable" else 1

    if args.command == "check-proof":
        proof = proof_from_json(_load_json(args.proof))
        v = check_proof(proof)
        _emit(_verdict_json(v), args.pretty)
        return 0 if v else 1

    if args.command == "soundness-test":
        report = soundness_harness(args.trials, args.seed, args.max_worlds,
                                   jobs=args.jobs)
        _emit(report, args.pretty)
        return 0 if report["ok"] else 1

    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
