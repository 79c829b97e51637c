"""Hilbert-style proof objects: axiom schemata, a step checker, and a
randomized soundness harness.

Schemata (ASCII names used in proof JSON), with the instantiation keys
each takes (G stands for the formulas under the key Gamma):

    Taut      any propositional tautology over its modal-atom skeleton
    K         [](p -> q) -> ([]p -> []q)                      p, q
    T         /\\ G -> <>G                                     Gamma
    4         <><>G -> <>G                                    Gamma
    FixDia    <>G -> /\\_{g in G} <>(g & <>G)                  Gamma
    IndDia    [](p -> /\\_{g in G} <>(p & g)) -> (p -> <>G)    p, Gamma
    NegNext   ~X p <-> X ~p                                   p
    AndNext   X(p & q) <-> (X p & X q)                        p, q
    FixHence  G p -> p & X G p                                p
    IndHence  G(p -> X p) -> (p -> G p)                       p
    TCont     <>{X g : g in G} -> X <>G                       Gamma

Each schema is defined once, in ``_SCHEMATA`` (its keys and its builder),
and each necessitation rule once, in ``_NECESSITATION``; the checker, the
random instances, the schema sweep and the soundness harness all read them.

Rules: modus ponens (refs = [implication step, premise step]), substitution
into any earlier step, and necessitation for box, next, and henceforth.
Tautology steps are decided by a truth table over the step's maximal
non-Boolean subterms treated as atoms; a Taut step takes no instantiation.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .semantics import model_to_json, random_model
from .syntax import (
    And,
    Formula,
    Hence,
    Neg,
    Next,
    Tangle,
    Var,
    box,
    conj,
    diamond,
    iff,
    implies,
    parse,
    substitute,
    to_text,
)
from .util import Verdict, OK, fail


class ProofError(ValueError):
    pass


def _need(inst: Mapping, key: str, kind: str) -> object:
    if key not in inst:
        raise ProofError(f"instantiation missing {key!r} ({kind})")
    return inst[key]


def _need_formula(inst: Mapping, key: str) -> Formula:
    v = _need(inst, key, "formula")
    if not isinstance(v, Formula):
        raise ProofError(f"instantiation entry {key!r} is not a formula")
    return v


def _need_gamma(inst: Mapping) -> tuple[Formula, ...]:
    v = _need(inst, "Gamma", "formula set")
    members = tuple(v)
    if not members:
        raise ProofError("empty Gamma: the conjunction over it has no formula form")
    if not all(isinstance(m, Formula) for m in members):
        raise ProofError("Gamma entries must be formulas")
    return members


def _taut(f: Formula) -> Formula:
    if not is_tautology(f):
        raise ProofError(f"not a propositional tautology: {to_text(f)}")
    return f


# schema name -> (instantiation keys in the order they are checked, builder
# taking their values in that order); the name order is AXIOM_NAMES
_SCHEMATA: dict[str, tuple[tuple[str, ...], Callable[..., Formula]]] = {
    "Taut": (("formula",), _taut),
    "K": (("p", "q"), lambda p, q: implies(box(implies(p, q)), implies(box(p), box(q)))),
    "T": (("Gamma",), lambda g: implies(conj(g), Tangle(g))),
    "4": (("Gamma",), lambda g: implies(diamond(Tangle(g)), Tangle(g))),
    "FixDia": (("Gamma",),
               lambda g: implies(Tangle(g), conj(diamond(And(m, Tangle(g))) for m in g))),
    "IndDia": (("p", "Gamma"), lambda p, g: implies(
        box(implies(p, conj(diamond(And(p, m)) for m in g))), implies(p, Tangle(g)))),
    "NegNext": (("p",), lambda p: iff(Neg(Next(p)), Next(Neg(p)))),
    "AndNext": (("p", "q"), lambda p, q: iff(Next(And(p, q)), And(Next(p), Next(q)))),
    "FixHence": (("p",), lambda p: implies(Hence(p), And(p, Next(Hence(p))))),
    "IndHence": (("p",), lambda p: implies(Hence(implies(p, Next(p))), implies(p, Hence(p)))),
    "TCont": (("Gamma",), lambda g: implies(Tangle(Next(m) for m in g), Next(Tangle(g)))),
}
AXIOM_NAMES = tuple(_SCHEMATA)

# necessitation rule -> the operator it puts in front of the referenced step
_NECESSITATION = {"NecBox": box, "NecNext": Next, "NecHence": Hence}
RULE_NAMES = ("Axiom", "MP", "Subs", *_NECESSITATION)


def axiom_instance(name: str, inst: Mapping) -> Formula:
    """Build the named schema instance; rejects malformed instantiations."""
    if name not in _SCHEMATA:
        raise ProofError(f"unknown axiom schema {name!r}")
    keys, build = _SCHEMATA[name]
    return build(*[_need_gamma(inst) if k == "Gamma" else _need_formula(inst, k) for k in keys])


def _boolean_atoms(f: Formula, atoms: list[Formula]) -> None:
    if isinstance(f, Neg):
        _boolean_atoms(f.sub, atoms)
    elif isinstance(f, And):
        _boolean_atoms(f.left, atoms)
        _boolean_atoms(f.right, atoms)
    else:
        if f not in atoms:
            atoms.append(f)


ATOM_CAP = 20


def is_tautology(f: Formula) -> bool:
    """Truth-table over maximal non-Boolean subterms treated as atoms."""
    atoms: list[Formula] = []
    _boolean_atoms(f, atoms)
    if len(atoms) > ATOM_CAP:
        raise ProofError(f"too many atoms for a truth table ({len(atoms)})")
    index = {a: i for i, a in enumerate(atoms)}

    def value(g: Formula, row: int) -> bool:
        if isinstance(g, Neg):
            return not value(g.sub, row)
        if isinstance(g, And):
            return value(g.left, row) and value(g.right, row)
        return bool(row >> index[g] & 1)

    return all(value(f, row) for row in range(1 << len(atoms)))


# ---------------------------------------------------------------------------
# Proof objects.

@dataclass
class ProofStep:
    formula: Formula
    rule: str
    name: str | None = None                 # axiom schema for rule == "Axiom"
    inst: dict = field(default_factory=dict)
    refs: tuple[int, ...] = ()              # 1-based earlier step indices
    subst: dict[str, Formula] = field(default_factory=dict)


@dataclass
class ProofObject:
    steps: list[ProofStep]


def check_proof(proof: ProofObject) -> Verdict:
    """Verify every step; the witness of a failure is the 1-based step index."""
    for k, step in enumerate(proof.steps, start=1):
        v = _check_step(proof, k, step)
        if not v:
            return Verdict(False, f"step {k}: {v.reason}", k)
    if not proof.steps:
        return fail("empty proof", 0)
    return OK


def _check_step(proof: ProofObject, k: int, step: ProofStep) -> Verdict:
    if step.rule not in RULE_NAMES:
        return fail(f"unknown rule {step.rule!r}")
    for r in step.refs:
        if not 1 <= r < k:
            return fail(f"reference {r} does not precede the step")
    try:
        if step.rule == "Axiom":
            if step.name is None:
                return fail("axiom step without a schema name")
            if step.name == "Taut":
                expected = axiom_instance("Taut", {"formula": step.formula})
            else:
                expected = axiom_instance(step.name, step.inst)
            if expected != step.formula:
                return fail(
                    f"schema {step.name} instance mismatch: expected {to_text(expected)}"
                )
            return OK
        if step.rule == "MP":
            if len(step.refs) != 2:
                return fail("modus ponens needs [implication, premise] references")
            imp = proof.steps[step.refs[0] - 1].formula
            prem = proof.steps[step.refs[1] - 1].formula
            # an implication a -> b is the primitive ~(a & ~b)
            if not (isinstance(imp, Neg) and isinstance(imp.sub, And)
                    and isinstance(imp.sub.right, Neg)):
                return fail("first reference is not an implication")
            if imp.sub.left != prem:
                return fail("premise does not match the implication antecedent")
            if imp.sub.right.sub != step.formula:
                return fail("conclusion does not match the implication consequent")
            return OK
        if step.rule == "Subs":
            if len(step.refs) != 1:
                return fail("substitution needs one reference")
            base = proof.steps[step.refs[0] - 1].formula
            if substitute(base, step.subst) != step.formula:
                return fail("formula is not the stated substitution instance")
            return OK
        if step.rule in _NECESSITATION:
            if len(step.refs) != 1:
                return fail("necessitation needs one reference")
            base = proof.steps[step.refs[0] - 1].formula
            expected = _NECESSITATION[step.rule](base)
            if expected != step.formula:
                return fail(f"formula is not {step.rule} of the referenced step")
            return OK
    except ProofError as e:
        return fail(str(e))
    return fail("unhandled rule")  # pragma: no cover


# ---------------------------------------------------------------------------
# Proof JSON.

# (key, type, what the type is called, required) for each key of a proof step
_STEP_SHAPE = (("formula", str, "a string", True), ("rule", str, "a string", True),
               ("name", str, "a string", False), ("inst", Mapping, "a map", False),
               ("subst", Mapping, "a map", False), ("refs", list, "a list", False))


def _check_proof_shape(data: object) -> None:
    """Raise ProofError naming the first key of a proof document whose value
    is missing or has the wrong shape."""
    if not isinstance(data, Mapping):
        raise ProofError(f"proof JSON must be an object, not {type(data).__name__}")
    if "steps" not in data:
        raise ProofError("proof JSON missing key 'steps'")
    steps = data["steps"]
    if not isinstance(steps, list) or not all(isinstance(raw, Mapping) for raw in steps):
        raise ProofError("proof JSON 'steps' must be a list of objects")
    for k, raw in enumerate(steps, start=1):
        for key, kind, called, required in _STEP_SHAPE:
            if key not in raw:
                if required:
                    raise ProofError(f"proof step {k} missing key {key!r}")
            elif not isinstance(raw[key], kind):
                raise ProofError(f"proof step {k}: {key!r} must be {called}")
        inst = raw.get("inst", {})
        gamma = inst.get("Gamma", [])
        texts = [v for key, v in inst.items() if key != "Gamma"]
        texts += list(raw.get("subst", {}).values())
        if not isinstance(gamma, list) or not all(isinstance(t, str) for t in texts + gamma):
            raise ProofError(f"proof step {k}: 'inst' and 'subst' must map to formula texts"
                             " ('Gamma' to a list of them)")
        if not all(isinstance(r, int) and not isinstance(r, bool) for r in raw.get("refs", [])):
            raise ProofError(f"proof step {k}: 'refs' must list step numbers")


def proof_from_json(data: Mapping) -> ProofObject:
    _check_proof_shape(data)
    steps = []
    for raw in data["steps"]:
        inst = {}
        for key, v in raw.get("inst", {}).items():
            if key == "Gamma":
                inst[key] = tuple(parse(s) for s in v)
            else:
                inst[key] = parse(v)
        steps.append(ProofStep(
            formula=parse(raw["formula"]),
            rule=raw["rule"],
            name=raw.get("name"),
            inst=inst,
            refs=tuple(raw.get("refs", ())),
            subst={k: parse(v) for k, v in raw.get("subst", {}).items()},
        ))
    return ProofObject(steps)


def proof_to_json(proof: ProofObject) -> dict:
    out = []
    for step in proof.steps:
        raw: dict = {"formula": to_text(step.formula), "rule": step.rule}
        if step.name:
            raw["name"] = step.name
        if step.inst:
            raw["inst"] = {
                k: [to_text(m) for m in v] if k == "Gamma" else to_text(v)
                for k, v in step.inst.items()
            }
        if step.refs:
            raw["refs"] = list(step.refs)
        if step.subst:
            raw["subst"] = {k: to_text(v) for k, v in step.subst.items()}
        out.append(raw)
    return {"steps": out}


# ---------------------------------------------------------------------------
# Soundness harness.

_TAUT_TEMPLATES = (
    "p -> p",
    "p -> (q -> p)",
    "(p -> q) -> ((q -> r) -> (p -> r))",
    "p & q -> p",
    "p | ~p",
    "~(p & ~p)",
)


def random_formula(rng: random.Random, vars: Sequence[str], depth: int) -> Formula:
    if depth <= 0 or rng.random() < 0.25:
        return Var(rng.choice(list(vars)))
    kind = rng.randrange(6)
    if kind == 0:
        return Neg(random_formula(rng, vars, depth - 1))
    if kind == 1:
        return And(random_formula(rng, vars, depth - 1), random_formula(rng, vars, depth - 1))
    if kind == 2:
        return Next(random_formula(rng, vars, depth - 1))
    if kind == 3:
        return Hence(random_formula(rng, vars, depth - 1))
    if kind == 4:
        return Tangle(
            random_formula(rng, vars, depth - 1)
            for _ in range(rng.randint(1, 3))
        )
    return Neg(Hence(Neg(random_formula(rng, vars, depth - 1))))


def random_axiom_instance(
    rng: random.Random, depth: int = 4, gamma_max: int = 3,
) -> tuple[str, Formula]:
    """A random schema with its instance over the variables p, q, r: formulas
    for "p" and "q" when the schema takes "p", and a Gamma when it takes one."""
    name = rng.choice(AXIOM_NAMES)
    vars = ("p", "q", "r")
    if name == "Taut":
        template = parse(rng.choice(_TAUT_TEMPLATES))
        sigma = {v: random_formula(rng, vars, depth - 2) for v in vars}
        return name, axiom_instance("Taut", {"formula": substitute(template, sigma)})
    keys = _SCHEMATA[name][0]
    inst: dict = {}
    if "p" in keys:
        inst["p"] = random_formula(rng, vars, depth - 1)
        inst["q"] = random_formula(rng, vars, depth - 1)
    if "Gamma" in keys:
        inst["Gamma"] = tuple(
            random_formula(rng, vars, depth - 1)
            for _ in range(rng.randint(1, gamma_max))
        )
    return name, axiom_instance(name, inst)


def _harness_trial(seed: int, trial: int, max_worlds: int) -> dict | None:
    trial_rng = random.Random((seed, trial).__hash__())
    model = random_model(trial_rng, max_worlds, ("p", "q", "r"))
    name, instance = random_axiom_instance(trial_rng)
    if not model.is_valid(instance):
        return {
            "trial": trial, "kind": "axiom", "schema": name,
            "formula": to_text(instance), "model": model_to_json(model),
        }
    # rule-level check: necessitation preserves per-model validity
    for rule, wrap in _NECESSITATION.items():
        wrapped = wrap(instance)
        if not model.is_valid(wrapped):
            return {
                "trial": trial, "kind": "rule", "rule": rule,
                "formula": to_text(wrapped), "model": model_to_json(model),
            }
    return None


def _harness_chunk(args: tuple) -> list[dict]:
    seed, lo, hi, max_worlds = args
    out = []
    for trial in range(lo, hi):
        v = _harness_trial(seed, trial, max_worlds)
        if v is not None:
            out.append(v)
    return out


def soundness_harness(
    trials: int,
    seed: int = 0,
    max_worlds: int = 6,
    jobs: int = 1,
) -> dict:
    """Random axiom instances and rule applications over random models.

    Every instance must be valid on every sampled model, and necessitation
    of a formula valid on a model must stay valid on that model.  Violations
    ship the countermodel; a clean report is the expected outcome.  Trials
    derive their randomness from (seed, trial index), so the report does not
    depend on ``jobs``, which is capped at the CPU count.  ``trials``,
    ``max_worlds`` and ``jobs`` must be at least 1.
    """
    for name, value in (("trials", trials), ("max_worlds", max_worlds), ("jobs", jobs)):
        if value < 1:
            raise ProofError(f"{name} must be at least 1 (got {value})")
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1 and trials > 1:
        from concurrent.futures import ProcessPoolExecutor

        step = -(-trials // workers)
        chunks = [(seed, lo, min(lo + step, trials), max_worlds)
                  for lo in range(0, trials, step)]
        # a fork pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            violations = [v for found in pool.map(_harness_chunk, chunks) for v in found]
    else:
        violations = _harness_chunk((seed, 0, trials, max_worlds))
    violations.sort(key=lambda v: v["trial"])
    return {
        "trials": trials,
        "seed": seed,
        "checked": trials,
        "violations": violations,
        "ok": not violations,
    }


def schema_sweep_instances() -> list[tuple[str, Formula]]:
    """Every schema instantiated over the variables p, q: the keys "p" and
    "q" range over p and q, "Gamma" over the nonempty subsets of {p, q}, and
    Taut's formula over the tautology templates with r read as q."""
    p, q = Var("p"), Var("q")
    values = {"formula": [parse(t.replace("r", "q")) for t in _TAUT_TEMPLATES],
              "p": (p, q), "q": (p, q), "Gamma": ((p,), (q,), (p, q))}
    return [(name, axiom_instance(name, dict(zip(keys, combo))))
            for name, (keys, _) in _SCHEMATA.items()
            for combo in itertools.product(*(values[k] for k in keys))]
