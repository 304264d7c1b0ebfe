import ast
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import ordcalc
from ordcalc import cli, parse, syntax, xi
from ordcalc.cli import (
    EXIT_CLOSED_STDOUT,
    EXIT_INVARIANT,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    main,
)

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


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


def test_text_mode_renders_only_what_it_prints(capsys, monkeypatch):
    # A text-mode command builds no JSON payload: `cmp` prints one word and
    # renders nothing, and `k` renders its set once, as `render_set` does.
    calls = []
    render = syntax.render

    def counted(t):
        calls.append(t)
        return render(t)

    monkeypatch.setattr(syntax, "render", counted)
    monkeypatch.setattr(cli, "render", counted)
    assert run(capsys, "cmp", "--system", "buchholz", "w^(w^(O_1))", "w^(O_2)") == (0, "LT", "")
    assert calls == []
    term = "th(Xi^(-1)(0) # th(Xi^(0)(0)))"
    assert run(capsys, "k", "--system", "xi", term) == (0, "{th(th(Xi^(0)(0)) # v.k^(0)) [k]}", "")
    printed, calls[:] = len(calls), []
    syntax.render_set(xi.kset(0, parse("xi", term)))
    assert printed == len(calls) > 0


def test_k_mixed_xi_family_reads_below_its_cardinal(capsys):
    # The xi family has no index: without --card it reads below (0,0), the
    # class of Xi^(0), as the thXi clause does, and --index does not move it.
    k = ("k", "--system", "mixed", "--family", "xi")
    assert run(capsys, *k, "Xi^(0)(0)") == (0, "{}", "")
    assert run(capsys, *k, "--index", "3", "OO_2^(0)") == (0, "{}", "")
    assert run(capsys, *k, "--card", "(0,3)", "OO_2^(0)") == (0, "{OO_2^(0)}", "")


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


@pytest.mark.parametrize("system", ["poly", "xi", "mixed"])
def test_subst_rejects_a_level_above_zero(capsys, system):
    code, out, err = run(
        capsys, "subst", "--system", system, "0", "--var", "x", "--level", "1", "--value", "0"
    )
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert err.splitlines() == [
        "precondition violation: substitution level must be <= 0, got 1"
    ]


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


def test_selfcheck_names_the_checks_that_checked_nothing(capsys):
    code, out, err = run(capsys, "selfcheck", "--quick", "--seed", "1")
    assert code == 0
    vacuous = [rec for rec in map(json.loads, out.splitlines()) if rec["checked"] == 0]
    named = "k_class_drop (poly), collapse_not_self_value (xi)"
    assert [f"{rec['check']} ({rec['system']})" for rec in vacuous] == named.split(", ")
    assert err.splitlines()[-1].endswith(f"; checked nothing: {named}")


@pytest.mark.parametrize(
    "budgets, named",
    [
        (("--samples", "-3"), "samples must be >= 0, got -3"),
        (("--triples", "-1"), "triples must be >= 0, got -1"),
        (("--oracle-pairs", "-2"), "oracle_pairs must be >= 0, got -2"),
        (("--samples", "-3", "--triples", "-1", "--oracle-pairs", "-2"), "samples must be >= 0, got -3"),
    ],
    ids=["samples", "triples", "oracle_pairs", "all_three"],
)
def test_selfcheck_refuses_a_negative_budget(capsys, monkeypatch, budgets, named):
    from ordcalc import harness

    def no_check(*args, **kwargs):  # the first check selfcheck runs
        raise AssertionError("a check ran")

    monkeypatch.setattr(harness, "check_fixtures", no_check)
    code, out, err = run(capsys, "selfcheck", "--quick", *budgets)
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert err.splitlines() == [f"precondition violation: {named}"]


def test_selfcheck_allows_zero_budgets(capsys):
    code, out, _ = run(
        capsys, "selfcheck", "--quick", "--samples", "0", "--triples", "0", "--oracle-pairs", "0"
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["checked"] for r in records if r["check"] == "key_lemma"] == [0, 0, 0]


# Every command in one of its systems, pinned byte for byte.  A command that
# succeeds exits 0 with nothing on stderr: (argv, text stdout, JSON stdout).
_PINNED_OUTPUT = {
    "parse": (
        ("parse", "--system", "poly", "O^(-2) # th(O^(0)) # O^(-1)"),
        "O^(-2) # O^(-1) # th(O^(0))",
        '{"closed": true, "size": 8, "term": "O^(-2) # O^(-1) # th(O^(0))"}',
    ),
    "cmp": (
        ("cmp", "--system", "xi", "Xi^(0)(0)", "Xi^(0)(w^(0))"),
        "LT",
        '{"left": "Xi^(0)(0)", "outcome": "LT", "right": "Xi^(0)(w^(0))"}',
    ),
    "sort": (
        ("sort", "--system", "mixed", "OO_1^(0)", "O_5", "Xi^(0)(0)", "thO_1(0)"),
        "thO_1(0)\nO_5\nXi^(0)(0)\nOO_1^(0)",
        '{"sorted": ["thO_1(0)", "O_5", "Xi^(0)(0)", "OO_1^(0)"]}',
    ),
    "k-buchholz": (
        ("k", "--system", "buchholz", "--index", "2", "th_2(O_2) # th_1(O_1)"),
        "{th_1(O_1), th_2(O_2)}",
        '{"kset": [{"term": "th_1(O_1)", "var": null}, {"term": "th_2(O_2)", "var": null}]}',
    ),
    "k-xi": (
        ("k", "--system", "xi", "--level", "0", "th(Xi^(-1)(0))"),
        "{th(v.k^(0)) [k]}",
        '{"kset": [{"term": "th(v.k^(0))", "var": "k"}]}',
    ),
    "k-mixed-high": (
        (
            "k", "--system", "mixed", "--family", "high", "--card", "(0,3)",
            "OO_2^(0) # thOO_1(OO_1^(0))",
        ),
        "{OO_2^(0), thOO_1(OO_1^(0))}",
        '{"kset": [{"term": "OO_2^(0)", "var": null}, {"term": "thOO_1(OO_1^(0))", "var": null}]}',
    ),
    "k-mixed-low": (
        ("k", "--system", "mixed", "thO_2(O_1 # thO_1(0))"),
        "{thO_1(0)}",
        '{"kset": [{"term": "thO_1(0)", "var": null}]}',
    ),
    "fc-buchholz": (
        ("fc", "--system", "buchholz", "O_3 # O_2 # w^(O_1)"),
        "{1, 2, 3} max 3",
        '{"max": "3", "values": ["1", "2", "3"]}',
    ),
    "fc-poly": (
        ("fc", "--system", "poly", "--level", "-1", "th(O^(0) # O^(-1)) # O^(-1)"),
        "{0} max 0",
        '{"max": "0", "values": ["0"]}',
    ),
    "fc-xi": (
        ("fc", "--system", "xi", "--level", "-1", "Xi^(-1)(0) # th(Xi^(0)(0))"),
        "{0} max 0",
        '{"max": "0", "values": ["0"]}',
    ),
    "fc-mixed": (
        ("fc", "--system", "mixed", "--card", "(0,inf)", "OO_2^(-1)"),
        "{(-1,2)} max (-1,2)",
        '{"max": "(-1,2)", "values": ["(-1,2)"]}',
    ),
    "ground": (
        ("ground", "O^(-1) # O^(-2)"),
        "ground -2 class 1 member True",
        '{"class_index": "1", "ground": "-2", "member": true}',
    ),
    "star": (("star", "O^(-1) # O^(-2)"), "O^(-1) # O^(0)", '{"star": "O^(-1) # O^(0)"}'),
    "shift-poly": (
        ("shift", "--system", "poly", "--by", "1", "O^(-2) # w^(O^(-1))"),
        "w^(O^(0)) # O^(-1)",
        '{"term": "w^(O^(0)) # O^(-1)"}',
    ),
    "shift-mixed": (
        ("shift", "--system", "mixed", "--by", "1", "OO_2^(-2) # O_3"),
        "O_3 # OO_2^(-1)",
        '{"term": "O_3 # OO_2^(-1)"}',
    ),
    "subst-xi": (
        ("subst", "--system", "xi", "th(v.a^(-1))", "--var", "a", "--value", "Xi^(0)(0)"),
        "th(Xi^(-1)(0))",
        '{"term": "th(Xi^(-1)(0))"}',
    ),
    "subst-buchholz": (
        (
            "subst", "--system", "buchholz", "th_2(v.x_1)", "--var", "x", "--index", "1",
            "--value", "w^(0)",
        ),
        "th_2(w^(0))",
        '{"term": "th_2(w^(0))"}',
    ),
    "abstract": (
        ("abstract", "Xi^(0)(0) # w^(Xi^(0)(0))"),
        "w^(v.p1^(0)) # v.p1^(0)  with p1 = Xi^(0)(0)",
        '{"body": "w^(v.p1^(0)) # v.p1^(0)", "parameters": ["Xi^(0)(0)"], "variables": ["p1"]}',
    ),
    "kappa": (("kappa", "Xi^(0)(w^(0)) # Xi^(0)(0)"), "w^(0)", '{"kappa": "w^(0)"}'),
    "d-buchholz": (
        ("d", "--system", "buchholz", "--m", "1", "--n", "2"),
        "th_1(w^(O_1 # th_2(w^(O_2))))",
        '{"term": "th_1(w^(O_1 # th_2(w^(O_2))))"}',
    ),
    "d-xi": (
        (
            "d", "--system", "xi", "--m", "1", "--gamma", "Xi^(-1)(v.y^(0))", "--beta", "w^(0)",
            "--var", "y",
        ),
        "th(w^(Xi^(0)(w^(0)) # th(w^(w^(0) # Xi^(0)(w^(0))) # Xi^(-1)(v.y^(0)))))",
        '{"term": "th(w^(Xi^(0)(w^(0)) # th(w^(w^(0) # Xi^(0)(w^(0))) # Xi^(-1)(v.y^(0)))))"}',
    ),
    "ll-poly": (
        ("ll", "--system", "poly", "th(O^(0))", "th(O^(0)) # w^(0)"),
        "yes",
        '{"holds": true}',
    ),
    "ll-xi": (
        ("ll", "--system", "xi", "--gamma", "Xi^(-1)(v.y^(0))", "--var", "y", "0", "w^(0)"),
        "yes",
        '{"holds": true}',
    ),
    "enumerate": (
        ("enumerate", "--system", "buchholz", "--max-size", "2", "--max-subscript", "1"),
        "0\nw^(0)\nw^(O_1)\nO_1\nth_1(0)\nth_1(O_1)",
        '{"count": 6, "terms": ["0", "w^(0)", "w^(O_1)", "O_1", "th_1(0)", "th_1(O_1)"]}',
    ),
    "enumerate-count": (
        ("enumerate", "--system", "poly", "--max-size", "3", "--count-only"),
        "16",
        '{"count": 16}',
    ),
}
# A command that fails prints nothing on stdout and one stderr line, the same
# in both modes: (argv, exit code, stderr).
_PINNED_ERROR = {
    "selfcheck-negative-budget": (
        ("selfcheck", "--quick", "--samples", "-1"),
        2,
        "precondition violation: samples must be >= 0, got -1",
    ),
    "shift-collision": (
        ("shift", "--system", "poly", "--by", "1", "th(O^(-1))"),
        2,
        "precondition violation: shifting level -1 by +1 collides at threshold -1",
    ),
    # one malformed term in each term position: positionals, --value, --gamma, --beta
    "bad-parse-term": (
        ("parse", "--system", "buchholz", "th_1(v.x_1)"),
        1,
        "parse error: collapse with subscript 1 cannot contain a variable with subscript >= 1"
        " (at 0..11)",
    ),
    "bad-cmp-right": (
        ("cmp", "--system", "poly", "O^(0)", "O_1"),
        1,
        "parse error: head 'O_' is not part of system 'poly' (at 0..2)",
    ),
    "bad-sort-term": (
        ("sort", "--system", "xi", "0", "Xi^(0)(", "w^(0)"),
        1,
        "parse error: expected a term head (at 7..7)",
    ),
    "bad-subst-term": (
        ("subst", "--system", "poly", "th(v.x^(-1)", "--var", "x", "--value", "0"),
        1,
        "parse error: expected ')' (at 11..11)",
    ),
    "bad-subst-value": (
        ("subst", "--system", "poly", "th(v.x^(-1))", "--var", "x", "--value", "O_1"),
        1,
        "parse error: head 'O_' is not part of system 'poly' (at 0..2)",
    ),
    "bad-subst-both": (
        ("subst", "--system", "poly", "th(", "--var", "x", "--value", "O_1"),
        1,
        "parse error: expected a term head (at 3..3)",
    ),
    "bad-d-gamma": (
        ("d", "--system", "poly", "--m", "1", "--gamma", "Xi^(0)(0)"),
        1,
        "parse error: head 'Xi' is not part of system 'poly' (at 0..4)",
    ),
    "bad-d-beta": (
        ("d", "--system", "poly", "--m", "1", "--beta", "th_1(0)"),
        1,
        "parse error: head 'th_' is not part of system 'poly' (at 0..3)",
    ),
    "bad-d-both": (
        ("d", "--system", "poly", "--m", "1", "--beta", "th_1(0)", "--gamma", "Xi^(0)(0)"),
        1,
        "parse error: head 'Xi' is not part of system 'poly' (at 0..4)",
    ),
    "bad-ll-left": (
        ("ll", "--system", "buchholz", "w^(", "0"),
        1,
        "parse error: expected a term head (at 3..3)",
    ),
    "bad-ll-gamma": (
        ("ll", "--system", "buchholz", "--gamma", "O^(0)", "0", "0"),
        1,
        "parse error: head 'O^' is not part of system 'buchholz' (at 0..3)",
    ),
    # ll parses its operands before --gamma, so the operand's error is the one reported.
    "bad-ll-left-and-gamma": (
        ("ll", "--system", "buchholz", "--gamma", "O^(0)", "w^(", "0"),
        1,
        "parse error: expected a term head (at 3..3)",
    ),
}
_JSON = ("--output", "json")


def _pinned_cases():
    """Each pinned command in text and in JSON mode (selfcheck has no --output)."""
    for name, (argv, text, payload) in _PINNED_OUTPUT.items():
        yield pytest.param(argv, 0, text + "\n", "", id=f"{name}-text")
        yield pytest.param(argv + _JSON, 0, payload + "\n", "", id=f"{name}-json")
    for name, (argv, code, err) in _PINNED_ERROR.items():
        yield pytest.param(argv, code, "", err + "\n", id=f"{name}-text")
        if argv[0] != "selfcheck":
            yield pytest.param(argv + _JSON, code, "", err + "\n", id=f"{name}-json")


@pytest.mark.parametrize("argv, code, out, err", _pinned_cases())
def test_pinned_output(capsys, argv, code, out, err):
    assert main(list(argv)) == code
    assert capsys.readouterr() == (out, err)


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


@pytest.mark.parametrize(
    "argv",
    [("--help",), ("enumerate", "--system", "mixed", "--max-size", "5")],
    ids=["help", "enumerate"],
)
def test_a_closed_stdout_exits_with_its_own_code(argv):
    read, write = os.pipe()
    os.close(read)  # every write to `write` now fails with EPIPE
    src = os.path.dirname(os.path.dirname(ordcalc.__file__))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ordcalc.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
    finally:
        os.close(write)
    assert proc.returncode == EXIT_CLOSED_STDOUT
    assert proc.stderr == ""


# Strings drawn from the grammar's own tokens: every head prefix, the
# punctuation, digits, a sign, letters and spaces.
_FUZZ_TOKENS = (
    "w^(", "O_", "O^(", "OO_", "Xi^(", "th_", "th(", "thO_", "thOO_", "thXi(", "v.", "V.",
    "#", "(", ")", "^(", "_", "-", " ", "0", "1", "2", "10", "x", "F", "q",
)


@settings(max_examples=400, deadline=None)
@given(
    system=st.sampled_from(("buchholz", "poly", "xi", "mixed")),
    words=st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=14),
)
def test_parse_fuzz_ends_in_a_documented_exit(system, words):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["parse", "--system", system, "".join(words)])
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1


def _child_modules(code):
    """The sorted module names loaded in a fresh interpreter after `code`."""
    src = os.path.dirname(os.path.dirname(ordcalc.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(sorted(sys.modules))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


_SYSTEMS = ("buchholz", "poly", "xi", "mixed")
_RUNS_ORACLE = ("selfcheck", "--quick")  # a selfcheck that runs its checks


@pytest.mark.parametrize(
    "argv",
    [pytest.param(("cmp", "--system", s, "0", "0"), id=s) for s in _SYSTEMS]
    + [pytest.param(c[0], id=name) for name, c in _PINNED_OUTPUT.items() if name != "cmp"]
    + [
        pytest.param(_RUNS_ORACLE, id="selfcheck"),
        pytest.param(("selfcheck", "--quick", "--samples", "-1"), id="selfcheck-refused"),
    ],
)
def test_one_shot_command_loads_only_its_system(argv):
    # A one-shot command pays for importing its own system only: not the
    # other three, not the harness, not the oracle, not the lemma code, not
    # `dataclasses` with its `inspect`, not `argparse` with its `gettext` and
    # `locale`, and, in text mode, not `json`.  `parse` needs no system; `d`
    # and `ll` load `ordcalc.lemmas`, which imports the three systems it
    # reads; enumerate and selfcheck load the harness, which imports every
    # system, and only a selfcheck that runs its checks loads the oracle,
    # `ordcalc.reference`, and the lemma code.  Text-mode enumerate loads no
    # heavy module either; selfcheck, whose records are JSON, is exempt.
    loaded = _child_modules(f"import ordcalc.cli; ordcalc.cli.main({list(argv)!r})")
    ours = {m for m in loaded if m == "ordcalc" or m.startswith("ordcalc.")}
    base = {"ordcalc", "ordcalc.cli", "ordcalc.core", "ordcalc.syntax"}
    if argv[0] in ("enumerate", "selfcheck"):
        checks = {"ordcalc.reference", "ordcalc.lemmas"} if argv == _RUNS_ORACLE else set()
        assert ours == base | {"ordcalc.harness"} | {f"ordcalc.{s}" for s in _SYSTEMS} | checks
        if argv[0] == "selfcheck":
            return
    elif argv[0] in ("d", "ll"):
        assert ours == base | {"ordcalc.lemmas"} | {f"ordcalc.{s}" for s in _SYSTEMS[:3]}
    else:
        system = cli._FIXED.get(argv[0]) or argv[argv.index("--system") + 1]
        assert ours == (base if argv[0] == "parse" else base | {f"ordcalc.{system}"})
    heavy = {"dataclasses", "inspect", "json", "argparse", "gettext", "locale"}
    assert loaded & heavy <= _child_modules("pass") & heavy


def test_unexpected_error_exits_with_one_line(capsys, monkeypatch):
    def boom(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "_cmd_cmp", boom)
    code, out, err = run(capsys, "cmp", "--system", "poly", "0", "0")
    assert (code, out) == (EXIT_INVARIANT, "")
    assert err.splitlines() == ["internal error: KeyError: 'boom'"]


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("frobnicate", "0"),
        ("cmp", "--system", "poly", "--bogus", "1", "0", "0"),
        ("cmp", "--sys", "poly", "0", "0"),
        ("cmp", "0", "0"),
        ("cmp", "--system", "poly", "0"),
        ("cmp", "--system", "poly", "0", "0", "0"),
        ("k", "--system", "poly", "--level", "one", "0"),
        ("cmp", "--system", "peano", "0", "0"),
        ("cmp", "0", "0", "--system"),
        ("ground", "--system", "poly", "0"),
    ],
    ids=[
        "no-arguments",
        "unknown-command",
        "unknown-option",
        "abbreviated-option",
        "missing-required-option",
        "missing-positional",
        "extra-positional",
        "non-integer-level",
        "system-outside-choices",
        "option-without-value",
        "system-given-to-ground",
    ],
)
def test_usage_error_exits_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")


def test_help_names_every_command(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert [line.split()[0] for line in out.splitlines()[1:]] == list(cli._commands())


@pytest.mark.parametrize("command", list(cli._commands()))
def test_command_help_names_every_option(capsys, command):
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (0, "")
    flags = [line.split()[0] for line in out.splitlines() if line.startswith("  --")]
    assert flags == [option[0] for option in cli._commands()[command][3]]


def _readme_commands():
    """Every `ordcalc ...` line of README's command-line block, as argv."""
    with open(README) as f:
        section = f.read().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("ordcalc ")
    ]


def _readme_runs():
    """Each README command in text mode, and again with `--output json` where
    the command takes `--output`; selfcheck is `test_selfcheck_quick`'s."""
    for argv in _readme_commands():
        if argv[0] == "selfcheck":
            continue
        yield pytest.param(argv, "text", id=argv[0])
        if "--output" in (option[0] for option in cli._commands()[argv[0]][3]):
            yield pytest.param(argv, "json", id=f"{argv[0]}-json")


@pytest.mark.parametrize("argv, output", _readme_runs())
def test_readme_example_runs(capsys, argv, output):
    if output == "json":
        argv = [*argv, "--output", "json"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out
    if output == "json":
        [line] = out.splitlines()
        json.loads(line)
