import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from salogic import example_model_path
from salogic.cli import main
from salogic.syntax import print_formula

from fuzz import random_formula

SEC33 = str(example_model_path("sec33"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- eval -------------------------------------------------------------------


def test_eval_true(capsys):
    code, out, _ = run(capsys, "eval", SEC33, "<beta> p", "--world", "w1", "--index", "beta")
    assert code == 0
    assert out.splitlines()[0] == "true"


def test_eval_false(capsys):
    code, out, _ = run(capsys, "eval", SEC33, "[gamma] p", "--world", "w2", "--index", "gamma")
    assert code == 1
    assert out.splitlines()[0] == "false"


def test_eval_trace(capsys):
    code, out, _ = run(
        capsys, "eval", SEC33, "<beta> p", "--world", "w1", "--index", "beta", "--trace"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "true"
    assert "w1 [beta] <beta> p = true" in lines[1]
    assert any("w0 [beta] p = true" in line for line in lines[2:])


def test_eval_trace_line_cap_is_an_input_error(tmp_path, capsys):
    # <a>^8 p on 6 complete worlds renders to 2,015,539 lines.
    worlds = [f"w{i}" for i in range(6)]
    model = tmp_path / "complete.salm"
    model.write_text(
        "indices: a\nworlds: " + " ".join(worlds) + "\n"
        "rel a: " + " ".join(f"{u}->{v}" for u in worlds for v in worlds) + "\n"
        "val p:\n",
        encoding="utf-8",
    )
    argv = ["eval", str(model), "<a>" * 8 + "p", "--world", "w0", "--index", "a"]
    code, out, err = run(capsys, *argv, "--trace")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (1, "false\n")


def test_eval_unknown_world_is_an_input_error(capsys):
    code, _, err = run(capsys, "eval", SEC33, "p", "--world", "w9", "--index", "beta")
    assert code == 2
    assert "error:" in err


def test_eval_missing_file(capsys):
    code, _, err = run(capsys, "eval", "/nonexistent.salm", "p", "--world", "w0", "--index", "a")
    assert code == 2
    assert "error:" in err


# --- check-model ------------------------------------------------------------


def test_check_model_none_passes(capsys):
    code, out, _ = run(capsys, "check-model", SEC33, "--coherence", "none")
    assert code == 0
    assert out.strip() == "ok"


def test_check_model_shrink_strict_fails_with_witnesses(capsys):
    code, out, _ = run(capsys, "check-model", SEC33, "--coherence", "shrink", "--strict")
    assert code == 1
    lines = out.splitlines()
    assert "coherence alpha<=beta w1->w0" in lines
    assert len([l for l in lines if l.startswith("coherence")]) == 6


def test_check_model_permissive_reports_but_passes(capsys):
    code, out, _ = run(capsys, "check-model", SEC33, "--coherence", "grow")
    assert code == 0
    assert len(out.splitlines()) == 4


def test_check_model_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.salm"
    bad.write_text("indices a\n", encoding="utf-8")
    code, _, err = run(capsys, "check-model", str(bad))
    assert code == 2
    assert "error:" in err


# --- valid / sat ------------------------------------------------------------


def test_valid_tautology(capsys):
    code, out, _ = run(capsys, "valid", "p | ~p", "--max-worlds", "2")
    assert code == 0
    assert out.startswith("valid up to")


def test_valid_countermodel_round_trips(tmp_path, capsys):
    poset = tmp_path / "chain.poset"
    poset.write_text("indices: a b\norder: a<=b\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "valid", "<a>p -> <b>p", "--max-worlds", "2", "--poset", str(poset)
    )
    assert code == 1
    header = out.splitlines()[0]
    assert header.startswith("# counterexample at world ")
    world = header.split()[4]
    index = header.split()[6]
    saved = tmp_path / "countermodel.salm"
    saved.write_text(out, encoding="utf-8")  # the whole output is a model file
    code, out2, _ = run(
        capsys, "eval", str(saved), "<a>p -> <b>p", "--world", world, "--index", index
    )
    assert code == 1
    assert out2.splitlines()[0] == "false"


def test_sat_witness_and_unsat(capsys):
    code, out, _ = run(capsys, "sat", "<a>p", "--max-worlds", "2", "--max-indices", "1")
    assert code == 0
    assert out.splitlines()[0].startswith("# satisfiable at world ")
    code, out, _ = run(capsys, "sat", "p & ~p", "--max-worlds", "2")
    assert code == 1
    assert out.startswith("unsatisfiable up to")


def test_valid_rejects_bad_bounds(capsys):
    code, _, err = run(capsys, "valid", "p", "--max-worlds", "0")
    assert code == 2


def test_an_unknown_coherence_mode_lists_the_modes(capsys):
    # argparse rejects the value itself and names every mode, in the
    # words --help shows, not the converter's name.
    for command in (["valid", "p"], ["sat", "p"], ["axioms"], ["check-model", SEC33]):
        code, out, err = run(capsys, *command, "--coherence", "bogus")
        assert (code, out) == (2, "")
        line = err.splitlines()[-1]
        assert "argument --coherence: invalid choice: 'bogus'" in line
        assert all(mode in line for mode in ("shrink", "grow", "none"))
        assert "_coherence" not in err


def test_valid_bounds_ceiling_is_an_input_error(capsys):
    code, _, err = run(capsys, "valid", "p", "--max-worlds", "8")
    assert code == 2
    assert "exceeds the ceiling" in err


def test_valid_ceiling_is_checked_before_building_every_block(capsys):
    for worlds in ("90", "100000"):
        code, out, err = run(capsys, "valid", "p", "--max-worlds", worlds)
        assert code == 2
        assert out == ""
        assert "exceeds the ceiling" in err and len(err) < 120


def test_axioms_with_user_poset(tmp_path, capsys):
    poset = tmp_path / "levels.poset"
    poset.write_text("indices: lo hi\norder: lo<=hi\n", encoding="utf-8")
    code, out, _ = run(capsys, "axioms", "--max-worlds", "2", "--poset", str(poset))
    assert code == 0
    assert any(l.startswith("A2") and "lo<=hi" in l and "VALID" in l for l in out.splitlines())


def test_valid_with_custom_poset_names(tmp_path, capsys):
    poset = tmp_path / "levels.poset"
    poset.write_text("indices: lo hi\norder: lo<=hi\nstable: lo\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "valid", "[lo]p -> [hi]p", "--max-worlds", "2", "--poset", str(poset)
    )
    assert code == 0 and out.startswith("valid up to")
    code, out, _ = run(
        capsys, "valid", "<lo>p -> <hi>p", "--max-worlds", "2", "--poset", str(poset)
    )
    assert code == 1 and "# counterexample" in out


def test_valid_and_sat_report_the_poset_size(tmp_path, capsys):
    poset = tmp_path / "chain3.poset"
    poset.write_text("indices: a b c\norder: a<=b b<=c\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "valid", "[a]p -> [c]p", "--max-worlds", "2", "--poset", str(poset)
    )
    assert (code, out) == (0, "valid up to 2 world(s), 3 index/indices\n")
    code, out, _ = run(
        capsys, "sat", "p & ~p", "--max-worlds", "2", "--poset", str(poset)
    )
    assert (code, out) == (1, "unsatisfiable up to 2 world(s), 3 index/indices\n")


def test_valid_worker_flag_gives_identical_output(capsys):
    # --workers is accepted for compatibility and does not change the scan,
    # so each search command prints the same bytes for every count.
    queries = [
        (1, "valid", "<a>p -> <b>p"),
        (0, "sat", "p & <a>p & [b]~p"),
        (0, "axioms"),
    ]
    for code_wanted, *command in queries:
        outputs = set()
        for workers in ("1", "4"):
            code, out, err = run(capsys, *command, "--max-worlds", "2", "--workers", workers)
            assert (code, err) == (code_wanted, "")
            outputs.add(out)
        assert len(outputs) == 1, command


# --- prove ------------------------------------------------------------------


def test_prove_accepts_stable_necessitation(tmp_path, capsys):
    script = tmp_path / "proof.sal"
    script.write_text(
        "indices: a\nstable: a\n1. p -> p ; A1\n2. [a](p -> p) ; NEC a 1\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "prove", str(script))
    assert code == 0
    assert out.splitlines() == ["line 1: accepted", "line 2: accepted", "proof ok"]


def test_prove_rejects_non_stable_necessitation(tmp_path, capsys):
    script = tmp_path / "proof.sal"
    script.write_text("1. p -> p ; A1\n2. [a](p -> p) ; NEC a 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "prove", str(script))
    assert code == 1
    assert "rejected (non-stable-necessitation)" in out
    code, out, _ = run(capsys, "prove", str(script), "--no-nec-stable-only")
    assert code == 0


def test_prove_malformed_justification(tmp_path, capsys):
    script = tmp_path / "proof.sal"
    script.write_text("1. p -> p ; WAT\n", encoding="utf-8")
    code, _, err = run(capsys, "prove", str(script))
    assert code == 2


def test_prove_non_decimal_citation_is_an_input_error(tmp_path, capsys):
    script = tmp_path / "proof.sal"
    for citation in ("MP ² 1", "NEC a ¹"):
        script.write_text(f"1. p -> p ; A1\n2. [a](p -> p) ; {citation}\n", encoding="utf-8")
        code, out, err = run(capsys, "prove", str(script))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_prove_a1_row_ceiling_is_an_input_error(tmp_path, capsys):
    script = tmp_path / "proof.sal"
    atoms = " & ".join(f"x{i}" for i in range(25))
    script.write_text(f"1. {atoms} -> x0 ; A1\n", encoding="utf-8")
    code, out, err = run(capsys, "prove", str(script))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _sal(*argv):
    """Run `python -m salogic` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "salogic", *argv], capture_output=True, text=True, env=env
    )


def test_prove_wide_chains_without_a_traceback(tmp_path):
    # `&` and `|` chains of 3000 operands build trees 3000 levels deep.
    script = tmp_path / "wide.sal"
    script.write_text("1. " + " | ".join(["~p"] + ["p"] * 2999) + " ; A1\n", encoding="utf-8")
    result = _sal("prove", str(script))
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines() == ["line 1: accepted", "proof ok"]
    script.write_text(
        "indices: a\n1. " + " & ".join(["[a]p"] * 3000) + " ; A1\n", encoding="utf-8"
    )
    result = _sal("prove", str(script))
    assert (result.returncode, result.stderr) == (1, "")
    assert result.stdout.splitlines() == [
        "line 1: rejected (not-a-tautology)",
        "proof rejected",
    ]


# Runs each command given as argv lists in one interpreter and prints its
# exit status and stderr.
_ERRORS_PROBE = """
import contextlib, io, json, sys
from salogic.cli import main
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    print(int(code), err.getvalue(), end="")
"""


def test_offender_errors_do_not_depend_on_the_hash_seed(tmp_path):
    files = {
        "rel.salm": "indices: a\nworlds: w0\nrel a: w0->x1 w0->y2 w0->z3\n",
        "val.salm": "indices: a\nworlds: w0\nval p: q1 q2 q3\n",
        "cycle.sal": "indices: b c_1 a\norder: b<=c_1 c_1<=a a<=b\n1. p -> p ; A1\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    commands = [
        ["check-model", str(tmp_path / "rel.salm")],
        ["check-model", str(tmp_path / "val.salm")],
        ["prove", str(tmp_path / "cycle.sal")],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = set()
    for seed in range(6):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)}
        result = subprocess.run(
            [sys.executable, "-c", _ERRORS_PROBE, json.dumps(commands)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout)
    assert outputs == {
        "2 error: relation for 'a' mentions undeclared world 'x1'\n"
        "2 error: valuation of 'p' mentions undeclared world 'q1'\n"
        "2 error: 'b' and 'c_1' are ordered in both directions\n"
    }


def test_prove_profile_switch(tmp_path, capsys):
    script = tmp_path / "proof.sal"
    script.write_text(
        "indices: a b\norder: a<=b\n1. <b>p -> <a>p ; DDOWN\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, "prove", str(script))
    assert code == 0
    code, out, _ = run(capsys, "prove", str(script), "--profile", "section3")
    assert code == 1
    assert "illegal-tag-for-profile" in out


# --- axioms -----------------------------------------------------------------


def test_axioms_table_default_shrink(capsys):
    code, out, _ = run(capsys, "axioms", "--max-worlds", "2")
    assert code == 0
    lines = out.splitlines()
    a2 = [l for l in lines if l.startswith("A2") and "a<=b" in l]
    a4 = [l for l in lines if l.startswith("A4") and "a<=b" in l]
    ddown = [l for l in lines if l.startswith("DDOWN") and "a<=b" in l]
    assert a2 and all("VALID" in l for l in a2)
    assert ddown and all("VALID" in l for l in ddown)
    assert a4 and all("COUNTERMODEL" in l for l in a4)


def test_axioms_table_none_mode(capsys):
    code, out, _ = run(capsys, "axioms", "--max-worlds", "2", "--coherence", "none")
    assert code == 0
    for schema in ("A2", "A4", "DDOWN"):
        rows = [
            l for l in out.splitlines() if l.startswith(schema) and "a<=b" in l
        ]
        assert rows and all("COUNTERMODEL" in l for l in rows)


@pytest.mark.parametrize("profile, other", [("section2", "A4"), ("section3", "DDOWN")])
def test_axioms_one_profile_drops_the_other_profiles_rows(capsys, profile, other):
    code, both, _ = run(capsys, "axioms", "--max-worlds", "2", "--profile", "both")
    assert code == 0
    code, out, _ = run(capsys, "axioms", "--max-worlds", "2", "--profile", profile)
    assert code == 0
    kept = [line for line in both.splitlines() if line.split()[0] != other]
    assert len(kept) < len(both.splitlines())
    assert out.splitlines() == kept


def test_axioms_single_index_trivially_valid(capsys):
    code, out, _ = run(capsys, "axioms", "--max-worlds", "2", "--max-indices", "1")
    assert code == 0
    for line in out.splitlines():
        assert "VALID" in line


# --- export -----------------------------------------------------------------


def test_export_dot_layout(capsys):
    code, out, _ = run(capsys, "export", SEC33, "--highlight", "p")
    assert code == 0
    assert out.count("subgraph cluster_") == 3
    assert out.count(" -> ") == 5
    assert out.count("doublecircle") == 3  # w0 once per layer


def test_export_empty_relations(tmp_path, capsys):
    model = tmp_path / "empty.salm"
    model.write_text("indices: a\nworlds: w\n", encoding="utf-8")
    code, out, _ = run(capsys, "export", str(model))
    assert code == 0
    assert out.count("subgraph cluster_") == 1
    assert out.count(" -> ") == 0


def test_export_unknown_format(capsys):
    code, _, _ = run(capsys, "export", SEC33, "--format", "svg")
    assert code == 2


def test_export_unknown_highlight(capsys):
    code, _, err = run(capsys, "export", SEC33, "--highlight", "zz")
    assert code == 2


# --- harness behavior -------------------------------------------------------


def test_module_entry_point_runs():
    # The child finds the package through PYTHONPATH, whether or not the
    # caller exported it.
    result = _sal("eval", SEC33, "<beta> p", "--world", "w1", "--index", "beta")
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "true"


def test_unknown_example_model_is_a_key_error():
    with pytest.raises(KeyError, match="no bundled model named 'nope'"):
        example_model_path("nope")


def test_non_utf8_input_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    commands = [
        ["eval", str(bad), "p", "--world", "w0", "--index", "a"],
        ["prove", str(bad)],
        ["check-model", str(bad)],
        ["export", str(bad)],
        ["valid", "p", "--poset", str(bad)],
    ]
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("error:"), argv
        assert str(bad) in err, argv


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_fuzzed_invocations_conform_to_exit_statuses(capsys):
    rng = random.Random(401)
    fragments = [
        "eval", "valid", "sat", "prove", "axioms", "export", "check-model",
        SEC33, "/nonexistent", "p", "<a>p -> <b>p", "p & ~p", "((",
        "--world", "w0", "w9", "--index", "beta", "zz", "--trace",
        "--max-worlds", "2", "0", "--max-indices", "1", "--coherence",
        "shrink", "sideways", "--strict", "--profile", "section2", "--format",
        "dot", "svg", "--highlight", "--workers",
        # An undecodable byte of argv, as a lone surrogate.
        "p & \udcff",
    ]
    for _ in range(150):
        argv = [rng.choice(fragments) for _ in range(rng.randint(0, 6))]
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2), argv
    # Random words seldom put a fragment where a formula is read, so each
    # command that reads one is also given the lone surrogate as its formula.
    for argv in (
        ["valid", "p & \udcff"],
        ["sat", "p & \udcff"],
        ["eval", SEC33, "p & \udcff", "--world", "w0", "--index", "beta"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == "error: unexpected character '\\udcff' at bytes 4..7\n", argv


def _generated_command(rng, files):
    """A command line that starts from a subcommand and what it requires,
    then takes 0-4 of that command's own options, each with a valid or an
    invalid value.  A search never runs past 2 worlds."""

    def formula(indices):
        if rng.random() < 0.8:
            return print_formula(random_formula(rng, rng.randint(0, 3), ("p", "q"), indices))
        return rng.choice(["((", "p &", "p & \udcff", "[a", "<>p", "p q", "", "~", "\u00e9"])

    coherence = ["shrink", "grow", "none", "sideways"]
    search = {
        "--max-worlds": ["1", "2", "0", "-1", "x"],
        "--max-indices": ["1", "2", "0", "x"],
        "--coherence": coherence,
        "--poset": files,
        "--workers": ["1", "4", "0", "x"],
    }
    commands = {
        "check-model": ([rng.choice(files)], {"--coherence": coherence, "--strict": None}),
        "eval": (
            [
                rng.choice(files),
                formula(("alpha", "beta", "gamma")),
                "--world",
                rng.choice(["w0", "w1", "w2", "w9"]),
                "--index",
                rng.choice(["alpha", "beta", "gamma", "zz"]),
            ],
            {"--trace": None},
        ),
        "valid": ([formula(("a", "b")), "--max-worlds", rng.choice("12")], search),
        "sat": ([formula(("a", "b")), "--max-worlds", rng.choice("12")], search),
        "axioms": (
            ["--max-worlds", rng.choice("12")],
            {**search, "--profile": ["section2", "section3", "both", "bogus"]},
        ),
        "prove": (
            [rng.choice(files)],
            {
                "--profile": ["section2", "section3", "both"],
                "--nec-stable-only": None,
                "--no-nec-stable-only": None,
            },
        ),
        "export": (
            [rng.choice(files)],
            {"--format": ["dot", "svg"], "--highlight": ["p", "q", "zz"]},
        ),
    }
    command = rng.choice(sorted(commands))
    argv, options = commands[command]
    argv = [command, *argv]
    for option in rng.sample(sorted(options), min(len(options), rng.randint(0, 4))):
        values = options[option]
        argv += [option] if values is None else [option, rng.choice(values)]
    return argv


def test_generated_commands_conform_to_exit_statuses(tmp_path, capsys):
    proof = tmp_path / "proof.sal"
    proof.write_text(
        "indices: a\nstable: a\n1. p -> p ; A1\n2. [a](p -> p) ; NEC a 1\n", encoding="utf-8"
    )
    poset = tmp_path / "chain.sal"
    poset.write_text("indices: a b\norder: a<=b\n", encoding="utf-8")
    files = [SEC33, str(proof), str(poset), str(tmp_path / "missing.salm")]
    rng = random.Random(433)
    reached = 0
    for _ in range(300):
        argv = _generated_command(rng, files)
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in out + err, argv
        if code == 2:
            one_error = err.startswith("error: ") and err.count("\n") == 1
            assert one_error or err.startswith("usage: "), argv
            reached += one_error
        else:
            assert err == "", argv
            reached += 1
    # Most invocations get past argparse to a handler: an outcome, or one
    # error line from the handler.
    assert reached > 150, f"only {reached} of 300 invocations reached a handler"
