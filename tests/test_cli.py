import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import dtlstar
from dtlstar.cli import main
from dtlstar.syntax import MAX_HEIGHT, MAX_NESTING, MAX_SIZE


@pytest.fixture
def chain_model_file(tmp_path):
    data = {
        "worlds": ["a", "b"],
        "order": [["b", "a"]],
        "f": {"a": "a", "b": "b"},
        "val": {"p": ["b"]},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def state_file(tmp_path):
    data = {
        "worlds": ["a", "b"],
        "order": [["b", "a"]],
        "root": "a",
        "types": {"a": ["p"], "b": ["~p"]},
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommands:
    def test_parse(self, capsys):
        code, out, _ = run(capsys, "parse", "p -> q")
        assert code == 0
        assert json.loads(out) == {"ok": True, "formula": "~(p & ~q)"}

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run(capsys, "parse", "p & & q")
        assert code == 2 and "error" in err

    def test_eval(self, capsys, chain_model_file):
        code, out, _ = run(capsys, "eval", "--model", chain_model_file,
                           "--formula", "<>p")
        assert code == 0
        assert json.loads(out)["worlds"] == ["a", "b"]

    def test_check_model_ok(self, capsys, chain_model_file):
        code, out, _ = run(capsys, "check-model", chain_model_file)
        assert code == 0 and json.loads(out)["ok"]

    def test_check_model_invalid_exit_1(self, capsys, tmp_path):
        bad = {"worlds": ["a", "b"], "order": [["b", "a"]],
               "f": {"a": "b", "b": "a"}, "val": {}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "check-model", str(path))
        assert code == 1 and not json.loads(out)["ok"]

    def test_sim_state_into_model(self, capsys, state_file, chain_model_file):
        code, out, _ = run(capsys, "sim", "--state", state_file,
                           "--model", chain_model_file, "--point", "a")
        assert code == 1  # root type has p but the point satisfies ~p

    def test_simformula(self, capsys, state_file):
        code, out, _ = run(capsys, "simformula", state_file)
        assert code == 0
        text = json.loads(out)["formula"]
        from dtlstar.syntax import parse

        parse(text)

    def test_quasimodel_check(self, capsys, tmp_path):
        data = {
            "worlds": ["a"],
            "order": [],
            "types": {"a": ["p"]},
            "step": [["a", "a"]],
        }
        path = tmp_path / "qm.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "quasimodel-check", str(path))
        assert code == 0 and json.loads(out)["ok"]

    @pytest.mark.parametrize("data, witness", [
        ({"worlds": ["a"], "order": [], "types": {"a": ["<>p", "<>q", "~p", "~q"]},
          "step": [["a", "a"]]}, ["a", "<>p"]),
        ({"worlds": ["a", "b"], "order": [], "types": {"a": ["X p", "X q"], "b": ["~p", "~q"]},
          "step": [["a", "b"], ["b", "b"]]}, ["a", "b", "X p"]),
    ], ids=["typing", "step-pair"])
    def test_quasimodel_check_witness_ignores_hash_seed(self, tmp_path, data, witness):
        # the failing members sit in one frozenset; the least in sort order is reported
        path = tmp_path / "qm.json"
        path.write_text(json.dumps(data))
        src = str(pathlib.Path(dtlstar.__file__).resolve().parents[1])
        outs = set()
        for seed in range(6):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, "-m", "dtlstar.cli", "quasimodel-check",
                                   str(path)], env=env, capture_output=True, text=True)
            assert proc.returncode == 1 and proc.stderr == ""
            outs.add(proc.stdout)
        assert len(outs) == 1
        assert json.loads(outs.pop())["witness"] == witness

    def test_simformula_same_type_chain(self, tmp_path):
        # twelve worlds typed {p} in a chain: refinement of the colours splits
        # them, so the canonical key of each state tries one arrangement, not 11!
        worlds = [f"w{i}" for i in range(12)]
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"worlds": worlds, "root": "w11",
                                    "order": [[a, b] for a, b in zip(worlds, worlds[1:])],
                                    "types": {w: ["p"] for w in worlds}}))
        src = str(pathlib.Path(dtlstar.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "dtlstar.cli", "simformula", str(path)],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["formula"]

    def test_simformula_same_type_leaves(self, tmp_path):
        # a root over twelve leaves, all typed {p}: the leaves are twins, so
        # the canonical key places them in one order, not 12!
        worlds = ["root"] + [f"l{i}" for i in range(12)]
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"worlds": worlds, "root": "root",
                                    "order": [[w, "root"] for w in worlds[1:]],
                                    "types": {w: ["p"] for w in worlds}}))
        src = str(pathlib.Path(dtlstar.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "dtlstar.cli", "simformula", str(path)],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["formula"]

    def test_enumerate_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-worlds", "1",
                           "--vars", "p", "--count-only")
        assert code == 0 and json.loads(out)["count"] == 2

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_enumerate_refuses_limit_below_one(self, capsys, limit):
        code, out, err = run(capsys, "enumerate", "--max-worlds", "1",
                             "--vars", "p", "--limit", limit)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("max_worlds", ["0", "-2"])
    def test_enumerate_refuses_max_worlds_below_one(self, capsys, max_worlds):
        code, out, err = run(capsys, "enumerate", "--max-worlds", max_worlds,
                             "--vars", "p", "--count-only")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--max-worlds must be at least 1" in err

    def test_satisfy_roundtrip(self, capsys):
        code, out, _ = run(capsys, "satisfy", "F p & ~p")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "satisfiable"
        assert report["witness_model"] is not None

    def test_satisfy_no_witness_exit_1(self, capsys):
        code, out, _ = run(capsys, "satisfy", "p & ~p")
        assert code == 1
        assert json.loads(out)["verdict"] == "no-witness-found"

    @pytest.mark.parametrize("cap", [["--budget", "-5"], ["--budget", "0"],
                                     ["--cap-worlds", "0"]],
                             ids=["budget-5", "budget0", "cap-worlds0"])
    def test_satisfy_refuses_invalid_caps(self, capsys, cap):
        code, out, err = run(capsys, "satisfy", "p & ~q", *cap)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_check_proof(self, capsys):
        corpus = sorted((pathlib.Path(__file__).parent / "data" / "proofs").glob("*.json"))
        code, out, _ = run(capsys, "check-proof", str(corpus[0]))
        assert code == 0 and json.loads(out)["ok"]

    def test_soundness_test(self, capsys):
        code, out, _ = run(capsys, "soundness-test", "--trials", "50", "--seed", "1")
        assert code == 0
        report = json.loads(out)
        assert report["ok"] and report["trials"] == 50

    @pytest.mark.parametrize("argv", [
        ["--trials", "3", "--max-worlds", "0"],
        ["--trials", "-3"],
        ["--trials", "0"],
        ["--trials", "3", "--jobs", "0"],
    ], ids=["max-worlds0", "trials-3", "trials0", "jobs0"])
    def test_soundness_test_refuses_values_below_one(self, capsys, argv):
        code, out, err = run(capsys, "soundness-test", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "must be at least 1" in err and "Traceback" not in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "satisfy", "F p & ~p", "--seed", "5")
        _, out2, _ = run(capsys, "satisfy", "F p & ~p", "--seed", "5")
        assert out1 == out2

    @pytest.mark.parametrize("command, data, message", [
        ("quasimodel-check", {"worlds": ["a"], "types": {"a": ["p"]}, "step": [["a", "b"]]},
         "unknown world in step pair ('a', 'b')"),
        ("check-model", {"worlds": 5, "f": {}}, "'worlds' must be a list of strings"),
        ("check-model", [1, 2], "model JSON must be an object"),
        ("sim", [1, 2], "state JSON must be an object"),
        ("sim", {"worlds": ["a"], "types": {"a": ["p"]}}, "state JSON missing key 'root'"),
        ("check-proof", [1, 2], "proof JSON must be an object"),
        ("check-proof", {"steps": 5}, "proof JSON 'steps' must be a list of objects"),
        ("check-proof", {"steps": [{"rule": "Axiom", "name": "T"}]},
         "proof step 1 missing key 'formula'"),
    ], ids=["qm-unknown-step-world", "model-worlds-int", "model-array", "state-array",
            "state-no-root", "proof-array", "proof-steps-int", "proof-step-no-formula"])
    def test_malformed_input_exit_2(self, capsys, tmp_path, state_file, command, data, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        argv = ["sim", "--state", str(path), "--target-state", state_file] \
            if command == "sim" else [command, str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("formula", ["~" * 5000 + "p", "(" * 900 + "p" + ")" * 900],
                             ids=["neg5000", "paren900"])
    def test_parse_refuses_deep_nesting(self, capsys, formula):
        code, out, err = run(capsys, "parse", formula)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"nested deeper than {MAX_NESTING} levels" in err

    @pytest.mark.parametrize("shape", [
        lambda n: "~" * n + "p",
        lambda n: "F " * n + "p",
        lambda n: "[]" * n + "p",
        lambda n: "<>{p, " * n + "p" + "}" * n,
        lambda n: "(" * n + "p" + ")" * n,
        lambda n: "p -> " * n + "p",
    ], ids=["neg", "eventually", "box", "tangle", "paren", "implies"])
    def test_formula_at_the_nesting_limit(self, capsys, chain_model_file, shape):
        code, out, _ = run(capsys, "parse", shape(MAX_NESTING))
        assert code == 0
        printed = json.loads(out)["formula"]
        code, out, _ = run(capsys, "eval", "--model", chain_model_file,
                           "--formula", shape(MAX_NESTING))
        assert code == 0 and json.loads(out)["formula"] == printed
        code, out, err = run(capsys, "parse", shape(MAX_NESTING + 1))
        assert code == 2 and out == "" and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["parse", "eval", "satisfy"])
    @pytest.mark.parametrize("formula", [
        " | ".join(["p"] * 300),
        " & ".join(["p"] * 1000),
        " & ".join(f"p{i}" for i in range(1000)),
    ], ids=["or300", "and1000", "vars1000"])
    def test_long_chains_refused(self, capsys, chain_model_file, command, formula):
        argv = {"parse": ["parse", formula], "satisfy": ["satisfy", formula],
                "eval": ["eval", "--model", chain_model_file, "--formula", formula]}[command]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"taller than {MAX_HEIGHT} levels" in err

    @pytest.mark.parametrize("shape", [
        lambda h: "p & " * h + "p",
        lambda h: "~" * (h % 3) + "(" + " | ".join(["p"] * (h // 3 + 1)) + ")",
    ], ids=["and", "or"])
    def test_formula_at_the_height_limit(self, capsys, chain_model_file, shape):
        code, out, _ = run(capsys, "parse", shape(MAX_HEIGHT))
        assert code == 0
        printed = json.loads(out)["formula"]
        code, out, _ = run(capsys, "eval", "--model", chain_model_file,
                           "--formula", shape(MAX_HEIGHT))
        assert code == 0 and json.loads(out)["formula"] == printed
        code, out, err = run(capsys, "parse", shape(MAX_HEIGHT + 1))
        assert code == 2 and out == "" and err.count("\n") == 1
        assert f"taller than {MAX_HEIGHT} levels" in err

    @pytest.mark.parametrize("command", ["parse", "satisfy"])
    def test_iff_chain_refused_before_it_is_built(self, capsys, command):
        # each operand of a "<->" chain doubles the tree; 30 would be 5e9 nodes
        t0 = time.perf_counter()
        code, out, err = run(capsys, command, " <-> ".join(["p"] * 30))
        assert time.perf_counter() - t0 < 1
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"larger than {MAX_SIZE} nodes" in err

    def test_iff_chain_within_the_size_limit(self, capsys):
        code, out, _ = run(capsys, "parse", " <-> ".join(["p"] * 10))
        assert code == 0 and len(out) == 10_759
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "14b0ef8b9d90e0a016f5bbd5723af33dba652712b9acb641f03744f2fca6303e"

    @pytest.mark.parametrize("n", [24, 200])
    def test_satisfy_many_variables(self, capsys, n):
        # 2^n valuations per skeleton; the search reads only the budget's worth
        code, out, err = run(capsys, "satisfy", " & ".join(f"p{i}" for i in range(n)))
        assert code == 1 and err == ""
        assert json.loads(out)["verdict"] == "no-witness-found"

    def test_satisfy_balanced_conjunction(self, capsys):
        # 1,024 atoms, eleven levels: the type search backtracks over every atom
        def balanced(lo, hi):
            if hi - lo == 1:
                return f"p{lo}"
            mid = (lo + hi) // 2
            return f"({balanced(lo, mid)} & {balanced(mid, hi)})"

        code, out, err = run(capsys, "satisfy", balanced(0, 1024))
        assert code == 1 and err == ""
        assert json.loads(out)["verdict"] == "no-witness-found"

    def test_check_model_missing_key_exit_1(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"f": {}}))
        code, out, _ = run(capsys, "check-model", str(path))
        assert code == 1
        assert json.loads(out) == {"ok": False, "reason": "model JSON missing key 'worlds'"}

    @pytest.mark.parametrize("command", ["check-model", "eval", "check-proof"])
    @pytest.mark.parametrize("kind, message", [
        ("directory", "Is a directory"),
        ("not-utf8", "not UTF-8 text"),
        ("deep", "JSON nested too deeply"),
    ], ids=["directory", "not-utf8", "deep"])
    def test_unreadable_input_exit_2(self, capsys, tmp_path, command, kind, message):
        path = tmp_path / "input.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b'\xff\xfe{"worlds": []}')
        else:
            path.write_text("[" * 100_000 + "]" * 100_000)
        argv = ["eval", "--model", str(path), "--formula", "p"] if command == "eval" \
            else [command, str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err and "Traceback" not in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--model", "/nonexistent.json",
                           "--formula", "p")
        assert code == 2 and "error" in err
