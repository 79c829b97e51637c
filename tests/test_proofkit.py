import concurrent.futures
import copy
import hashlib
import json
import os
import pathlib
import random
import re

import pytest

from dtlstar.proofkit import (
    AXIOM_NAMES,
    ProofError,
    ProofObject,
    ProofStep,
    axiom_instance,
    check_proof,
    is_tautology,
    proof_from_json,
    proof_to_json,
    random_axiom_instance,
    schema_sweep_instances,
    soundness_harness,
)
from dtlstar.semantics import enumerate_models, random_model
from dtlstar.syntax import And, Neg, Var, box, parse, substitute, to_text

DATA = pathlib.Path(__file__).parent / "data" / "proofs"

p, q = Var("p"), Var("q")


def load_corpus():
    out = {}
    for path in sorted(DATA.glob("*.json")):
        with open(path) as fh:
            out[path.stem] = proof_from_json(json.load(fh))
    return out


class TestAxiomInstances:
    def test_t_on_a_pair(self):
        f = axiom_instance("T", {"Gamma": (p, q)})
        assert f == parse("(p & q) -> <>{p, q}")

    def test_4_monadic(self):
        f = axiom_instance("4", {"Gamma": (p,)})
        assert f == parse("<><>p -> <>p")

    def test_tcont_pushes_next_inside(self):
        f = axiom_instance("TCont", {"Gamma": (p, q)})
        assert f == parse("<>{X p, X q} -> X <>{p, q}")

    def test_fix_hence(self):
        assert axiom_instance("FixHence", {"p": p}) == parse("G p -> p & X G p")

    def test_empty_gamma_rejected(self):
        with pytest.raises(ProofError):
            axiom_instance("T", {"Gamma": ()})

    def test_missing_entry_rejected(self):
        with pytest.raises(ProofError):
            axiom_instance("K", {"p": p})

    @pytest.mark.parametrize("name, inst, message", [
        ("K", {"p": p}, "instantiation missing 'q' (formula)"),
        ("IndDia", {"Gamma": (p,)}, "instantiation missing 'p' (formula)"),
        ("IndDia", {"p": p}, "instantiation missing 'Gamma' (formula set)"),
        ("Taut", {"p": p}, "instantiation missing 'formula' (formula)"),
        ("NegNext", {"p": "p"}, "instantiation entry 'p' is not a formula"),
        ("TCont", {"Gamma": ("p",)}, "Gamma entries must be formulas"),
    ], ids=["K-q", "IndDia-p-first", "IndDia-Gamma", "Taut", "NegNext-text", "TCont-text"])
    def test_instantiation_messages(self, name, inst, message):
        # keys are checked in the order the schema lists them
        with pytest.raises(ProofError, match=f"^{re.escape(message)}$"):
            axiom_instance(name, inst)

    def test_unknown_schema_rejected(self):
        with pytest.raises(ProofError):
            axiom_instance("T5", {"Gamma": (p,)})

    def test_taut_verified_by_truth_table(self):
        assert axiom_instance("Taut", {"formula": parse("p | ~p")}) == parse("p | ~p")
        with pytest.raises(ProofError):
            axiom_instance("Taut", {"formula": p})

    def test_taut_treats_modal_subterms_as_atoms(self):
        assert is_tautology(parse("G p -> G p"))
        assert not is_tautology(parse("G p -> p"))


class TestCheckProof:
    def test_single_tautology(self):
        assert check_proof(ProofObject([ProofStep(parse("p -> p"), "Axiom", "Taut")]))

    def test_bad_mp_premise(self):
        t_inst = axiom_instance("T", {"Gamma": (p,)})
        proof = ProofObject([
            ProofStep(t_inst, "Axiom", "T", {"Gamma": (p,)}),
            ProofStep(p, "MP", refs=(1, 1)),
        ])
        v = check_proof(proof)
        assert not v and v.witness == 2

    def test_three_step_subs(self):
        proof = ProofObject([
            ProofStep(parse("p -> p"), "Axiom", "Taut"),
            ProofStep(parse("<>p -> <>p"), "Subs", refs=(1,),
                      subst={"p": parse("<>p")}),
        ])
        assert check_proof(proof)

    def test_forward_reference_rejected(self):
        proof = ProofObject([
            ProofStep(parse("p -> p"), "Subs", refs=(1,), subst={}),
        ])
        assert not check_proof(proof)

    def test_empty_proof_rejected(self):
        assert not check_proof(ProofObject([]))


class TestCorpus:
    def test_all_bundled_proofs_accepted(self):
        corpus = load_corpus()
        assert len(corpus) == 20
        for name, proof in corpus.items():
            assert check_proof(proof), name

    def test_corpus_covers_every_schema_and_rule(self):
        corpus = load_corpus()
        schemas, rules = set(), set()
        for proof in corpus.values():
            for step in proof.steps:
                rules.add(step.rule)
                if step.name:
                    schemas.add(step.name)
        assert schemas == set(AXIOM_NAMES)
        assert rules == {"Axiom", "MP", "Subs", "NecBox", "NecNext", "NecHence"}

    def test_json_round_trip(self):
        for name, proof in load_corpus().items():
            again = proof_from_json(proof_to_json(proof))
            assert check_proof(again), name


def mutate(proof: ProofObject, kind: int, step_index: int) -> ProofObject:
    """A single-step corruption that is invalid by construction.

    Negating a step's formula breaks every justification kind: axiom
    re-derivation compares exactly, a tautology's negation is falsifiable,
    and rule conclusions are forced by their references.  Reference
    corruptions point at the step itself, which never precedes it.
    """
    bad = ProofObject([copy.copy(s) for s in proof.steps])
    step = bad.steps[step_index]
    if kind == 0 or not step.refs:
        step.formula = Neg(step.formula)
    else:
        step.refs = tuple(step_index + 1 for _ in step.refs)
    return bad


class TestMutations:
    def test_two_hundred_single_step_mutations_rejected(self):
        corpus = load_corpus()
        rng = random.Random(2024)
        count = 0
        while count < 200:
            for name, proof in sorted(corpus.items()):
                if count >= 200:
                    break
                step_index = rng.randrange(len(proof.steps))
                bad = mutate(proof, rng.randrange(2), step_index)
                assert not check_proof(bad), (name, step_index)
                count += 1
        assert count == 200


class TestSoundness:
    def test_small_run_clean(self):
        report = soundness_harness(300, seed=11)
        assert report["ok"] and report["violations"] == []

    def test_reproducible(self):
        a = soundness_harness(50, seed=3)
        b = soundness_harness(50, seed=3)
        assert a == b

    def test_jobs_do_not_change_the_report(self):
        a = soundness_harness(40, seed=9, jobs=1)
        b = soundness_harness(40, seed=9, jobs=3)
        assert a == b

    def test_workers_capped_at_the_cpu_count(self, monkeypatch):
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        report = soundness_harness(40, seed=9, jobs=10_000)
        assert all(n <= (os.cpu_count() or 1) for n in asked)
        assert report == soundness_harness(40, seed=9, jobs=1)

    def test_random_instances_pinned(self):
        # (name, text) of the first 500 draws for seeds 0-4, as drawn before
        # the schemata were collected into one table
        digest = hashlib.sha256()
        for seed in range(5):
            rng = random.Random(seed)
            for _ in range(500):
                name, f = random_axiom_instance(rng)
                digest.update(f"{name}\t{to_text(f)}\n".encode())
        assert digest.hexdigest() == (
            "5238b7d22b81e4d5c9b38b11c251b3e5185937fdebc3ca9c688fea276941abbd")

    def test_random_instances_well_formed(self):
        rng = random.Random(5)
        for _ in range(200):
            name, f = random_axiom_instance(rng)
            assert name in AXIOM_NAMES
            assert parse(to_text(f)) == f

    def test_schema_sweep_covers_all_names(self):
        names = {name for name, _ in schema_sweep_instances()}
        assert names == set(AXIOM_NAMES)

    def test_schema_sweep_keeps_the_hand_written_instances(self):
        # the sweep as it was listed by hand, schema by schema
        gammas = [(p,), (q,), (p, q)]
        listed = [("Taut", {"formula": parse(t)}) for t in (
            "p -> p", "p -> (q -> p)", "(p -> q) -> ((q -> q) -> (p -> q))",
            "p & q -> p", "p | ~p", "~(p & ~p)")]
        for a, b in ((p, q), (q, p)):
            listed += [("K", {"p": a, "q": b}), ("NegNext", {"p": a}),
                       ("AndNext", {"p": a, "q": b}), ("FixHence", {"p": a}),
                       ("IndHence", {"p": a})]
        for g in gammas:
            listed += [(name, {"Gamma": g}) for name in ("T", "4", "FixDia", "TCont")]
            listed += [("IndDia", {"p": a, "Gamma": g}) for a in (p, q)]
        swept = set(schema_sweep_instances())
        assert {(name, axiom_instance(name, inst)) for name, inst in listed} <= swept

    def test_necessitation_preserves_per_model_validity(self):
        rng = random.Random(17)
        from dtlstar.syntax import Hence, Next

        for _ in range(50):
            m = random_model(rng, 4, ["p", "q"])
            _, f = random_axiom_instance(rng, depth=3)
            assert m.is_valid(f)
            for wrap in (box, Next, Hence):
                assert m.is_valid(wrap(f))

    def test_fuzzed_valid_proofs_accepted(self):
        rng = random.Random(23)
        for _ in range(40):
            steps = []
            name, f = random_axiom_instance(rng, depth=3, gamma_max=2)
            if name == "Taut":
                steps.append(ProofStep(f, "Axiom", "Taut"))
            else:
                # rebuild the instantiation the way the generator did is not
                # possible here, so use a tautology seed instead
                steps.append(ProofStep(parse("p -> p"), "Axiom", "Taut"))
            for _ in range(rng.randint(1, 4)):
                choice = rng.randrange(4)
                base_i = rng.randint(1, len(steps))
                base = steps[base_i - 1].formula
                if choice == 0:
                    steps.append(ProofStep(box(base), "NecBox", refs=(base_i,)))
                elif choice == 1:
                    from dtlstar.syntax import Next as N

                    steps.append(ProofStep(N(base), "NecNext", refs=(base_i,)))
                elif choice == 2:
                    from dtlstar.syntax import Hence as H

                    steps.append(ProofStep(H(base), "NecHence", refs=(base_i,)))
                else:
                    sigma = {"p": parse("q & q"), "q": parse("~p")}
                    steps.append(ProofStep(substitute(base, sigma), "Subs",
                                           refs=(base_i,), subst=sigma))
            assert check_proof(ProofObject(steps))
