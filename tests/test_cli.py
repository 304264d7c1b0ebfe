import ast
import json
import os
import subprocess
import sys

import pytest

import ordcalc
from ordcalc import cli
from ordcalc.cli import EXIT_INVARIANT, EXIT_PRECONDITION, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


def test_cmp_examples(capsys):
    code, out, _ = run(capsys, "cmp", "--system", "poly", "O^(-2)", "O^(-1)")
    assert (code, out) == (0, "LT")
    code, out, _ = run(capsys, "cmp", "--system", "buchholz", "0", "0")
    assert (code, out) == (0, "EQ")


@pytest.mark.parametrize(
    "term, text, payload",
    [
        (
            "Xi^(0)(0) # Xi^(0)(w^(0))",
            "v.p1^(0) # v.p2^(0)  with p1 = Xi^(0)(0), p2 = Xi^(0)(w^(0))",
            {
                "body": "v.p1^(0) # v.p2^(0)",
                "variables": ["p1", "p2"],
                "parameters": ["Xi^(0)(0)", "Xi^(0)(w^(0))"],
            },
        ),
        ("w^(0)", "w^(0)", {"body": "w^(0)", "variables": [], "parameters": []}),
    ],
    ids=["two-parameters", "no-parameter"],
)
def test_abstract_text_and_json(capsys, term, text, payload):
    assert run(capsys, "abstract", term) == (0, text, "")
    code, raw, err = run(capsys, "abstract", "--output", "json", term)
    assert (code, err) == (0, "")
    assert json.loads(raw) == payload


def test_k_example(capsys):
    code, out, _ = run(capsys, "k", "--system", "poly", "--level", "0", "th(O^(0))")
    assert (code, out) == (0, "{th(O^(0))}")


def test_json_mode_matches_text(capsys):
    _, text, _ = run(capsys, "cmp", "--system", "xi", "Xi^(0)(0)", "Xi^(0)(w^(0))")
    _, raw, _ = run(
        capsys, "cmp", "--system", "xi", "--output", "json", "Xi^(0)(0)", "Xi^(0)(w^(0))"
    )
    assert json.loads(raw)["outcome"] == text


def test_sort_is_permutation_and_ordered(capsys):
    code, out, _ = run(
        capsys, "sort", "--system", "mixed", "OO_1^(0)", "O_5", "Xi^(0)(0)", "thO_1(0)"
    )
    assert code == 0
    assert out.splitlines() == ["thO_1(0)", "O_5", "Xi^(0)(0)", "OO_1^(0)"]


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "parse", "--system", "buchholz", "th_1(v.x_1)")
    assert code == 1 and "parse error" in err


def test_precondition_exit_code(capsys):
    code, _, err = run(capsys, "shift", "--system", "poly", "--by", "1", "th(O^(-1))")
    assert code == 2 and "precondition" in err


@pytest.mark.parametrize("card", ["abc", "(0,x)", "(0)"])
def test_malformed_cardinality_exits_with_precondition_code(capsys, card):
    code, out, err = run(capsys, "fc", "--system", "mixed", "--card", card, "O_1")
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert err.splitlines() == [f"precondition violation: malformed cardinality {card!r}"]


def test_subst_and_d_and_ll(capsys):
    code, out, _ = run(
        capsys,
        "subst",
        "--system",
        "poly",
        "th(v.x^(-1))",
        "--var",
        "x",
        "--value",
        "O^(0)",
    )
    assert (code, out) == (0, "th(O^(-1))")
    code, out, _ = run(capsys, "d", "--system", "buchholz", "--m", "1", "--n", "2")
    assert (code, out) == (0, "th_1(w^(O_1 # th_2(w^(O_2))))")
    code, out, _ = run(capsys, "ll", "--system", "buchholz", "--n", "0", "0", "w^(0)")
    assert (code, out) == (0, "yes")


def test_ground_and_star_and_kappa(capsys):
    code, out, _ = run(capsys, "star", "O^(-1) # O^(-2)")
    assert (code, out) == (0, "O^(-1) # O^(0)")
    code, out, _ = run(capsys, "ground", "--output", "json", "O^(-1) # O^(-2)")
    assert code == 0 and json.loads(out)["member"] is True
    code, out, _ = run(capsys, "kappa", "Xi^(0)(w^(0)) # Xi^(0)(0)")
    assert (code, out) == (0, "w^(0)")


def test_enumerate_count(capsys):
    code, out, _ = run(
        capsys,
        "enumerate",
        "--system",
        "buchholz",
        "--max-size",
        "2",
        "--max-subscript",
        "1",
        "--count-only",
    )
    assert (code, out) == (0, "6")


def test_selfcheck_quick(capsys):
    code, out, err = run(capsys, "selfcheck", "--quick", "--seed", "3")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert all("check" in rec and "violations" in rec for rec in lines)
    assert "selfcheck" in err


def run_child(*argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = os.path.dirname(os.path.dirname(ordcalc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "ordcalc.cli", *argv],
        capture_output=True, text=True, env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def tower(depth):
    return "w^(" * depth + "0" + ")" * depth


@pytest.mark.parametrize(
    "argv",
    [
        ("parse", "--system", "poly", tower(1000)),
        ("cmp", "--system", "poly", tower(1200), tower(1199)),
    ],
    ids=["parse-1000", "cmp-1200"],
)
def test_too_deep_input_exits_with_precondition_code(argv):
    code, out, err = run_child(*argv)
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert err.splitlines() == ["precondition violation: term nested too deeply"]


def _child_modules(code):
    """The sorted module names loaded in a fresh interpreter after `code`."""
    src = os.path.dirname(os.path.dirname(ordcalc.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(sorted(sys.modules))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("system", ["buchholz", "poly", "xi", "mixed"])
def test_one_shot_command_loads_only_its_system(system):
    # A one-shot command pays for importing its own system only: not the
    # other three, not the harness, and not `dataclasses` with its `inspect`.
    loaded = _child_modules(
        f"import ordcalc.cli; ordcalc.cli.main(['cmp', '--system', '{system}', '0', '0'])"
    )
    ours = {m for m in loaded if m == "ordcalc" or m.startswith("ordcalc.")}
    assert ours == {"ordcalc", "ordcalc.cli", "ordcalc.core", "ordcalc.syntax", f"ordcalc.{system}"}
    heavy = {"dataclasses", "inspect"}
    assert loaded & heavy <= _child_modules("pass") & heavy


def test_unexpected_error_exits_with_one_line(capsys, monkeypatch):
    def boom(args, out):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "_cmd_cmp", boom)
    code, out, err = run(capsys, "cmp", "--system", "poly", "0", "0")
    assert (code, out) == (EXIT_INVARIANT, "")
    assert err.splitlines() == ["internal error: KeyError: 'boom'"]
