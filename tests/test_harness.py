import json
import os
import subprocess
import sys

import pytest

import ordcalc
from ordcalc import harness as H
from ordcalc import parse, render
from ordcalc import poly as P


def test_tiny_buchholz_enumeration_exact():
    terms = H.enumerate_terms(H.EnumBudget("buchholz", max_size=2, max_subscript=1))
    assert sorted(render(t) for t in terms) == [
        "0",
        "O_1",
        "th_1(0)",
        "th_1(O_1)",
        "w^(0)",
        "w^(O_1)",
    ]


def test_tiny_poly_enumeration_exact():
    terms = H.enumerate_terms(H.EnumBudget("poly", max_size=1))
    assert [render(t) for t in terms] == ["0"]
    terms = H.enumerate_terms(H.EnumBudget("poly", max_size=2, min_level=-1))
    assert sorted(render(t) for t in terms) == ["0", "O^(-1)", "O^(0)", "th(0)", "w^(0)"]


def test_enumeration_is_deterministic():
    b = H.EnumBudget("mixed", max_size=4, min_level=-1, max_subscript=1)
    assert H.enumerate_terms(b) == H.enumerate_terms(b)


def test_enumeration_unique_canonical_and_sorted():
    terms = H.enumerate_terms(H.EnumBudget("xi", max_size=5, min_level=-1))
    assert len(set(terms)) == len(terms)
    keys = [t.key for t in terms]
    assert keys == sorted(keys)
    for t in terms[::17]:
        assert parse("xi", render(t)) is t


def test_enumeration_hard_cap():
    with pytest.raises(Exception):
        H.enumerate_terms(H.EnumBudget("mixed", max_size=6, hard_cap=1000))


def test_open_enumeration_includes_variables():
    closed = H.enumerate_terms(H.EnumBudget("buchholz", max_size=2, max_subscript=1))
    opened = H.enumerate_terms(
        H.EnumBudget("buchholz", max_size=2, max_subscript=1, closed_only=False)
    )
    assert set(closed) < set(opened)
    assert any(not t.closed for t in opened)


def test_order_axioms_small_budget_clean():
    terms = H.enumerate_terms(H.EnumBudget("poly", max_size=5, min_level=-2))
    report = H.check_order_axioms("poly", terms, sample_triples=2000, seed=3)
    assert report.ok
    assert report.details["pairs_mode"] == "all"


def test_report_json_shape_and_determinism():
    terms = H.enumerate_terms(H.EnumBudget("buchholz", max_size=3, max_subscript=1))
    r1 = H.check_order_axioms("buchholz", terms, sample_triples=500, seed=9)
    r2 = H.check_order_axioms("buchholz", terms, sample_triples=500, seed=9)
    assert r1.to_json(timing=False) == r2.to_json(timing=False)
    record = json.loads(r1.to_json())
    for field in ("check", "system", "checked", "violations", "seed", "elapsed_ms"):
        assert field in record


def test_fixture_suite_passes():
    report = H.check_fixtures()
    assert report.ok
    assert report.checked >= 18


def test_key_lemma_reports_track_acceptance():
    report = H.check_key_lemmas("buchholz", samples=150, seed=2)
    assert report.ok
    for item in ("item1", "item2", "item3"):
        stats = report.details[item]
        assert stats["accepted"] == 150
        assert not stats["starved"]


def test_key_lemma_unknown_system():
    with pytest.raises(Exception):
        H.check_key_lemmas("mixed", samples=10, seed=0)


def test_oracle_checks_small():
    terms = H.enumerate_terms(H.EnumBudget("mixed", max_size=4, min_level=-1, max_subscript=1))
    assert H.check_oracle_equivalence("mixed", terms, pairs=2000, seed=4).ok
    assert H.check_kset_oracle("mixed", terms, seed=4).ok


def test_roundtrip_check():
    terms = H.enumerate_terms(H.EnumBudget("xi", max_size=4, min_level=-2))
    assert H.check_roundtrip("xi", terms).ok


def test_m_checks_small():
    terms = H.enumerate_terms(H.EnumBudget("poly", max_size=4, min_level=-2))
    assert H.check_m_membership(terms).ok
    assert H.check_m_closure(terms, sum_samples=500).ok
    assert H.check_k_class_drop(terms).ok


def test_literal_fc_drop_fails_as_documented():
    # The literal cardinality-drop reading is falsified by the self-critical
    # collapse; the report records that honestly.
    terms = H.enumerate_terms(H.EnumBudget("poly", max_size=4, min_level=-2))
    report = H.check_k_fc_drop(terms)
    assert not report.ok


def test_report_keeps_the_first_violations_only():
    terms = H.enumerate_terms(H.EnumBudget("poly", max_size=6, min_level=-2))
    report = H.check_k_fc_drop(terms)
    found = [
        {"kind": "fc_drop", "term": render(t), "critical": render(beta)}
        for t in terms
        for beta in P.kset(0, t)
        if not P.fc_max(beta) < P.fc_max(t)
    ]
    assert report.checked == 229
    assert len(found) == 200
    assert H.MAX_VIOLATIONS == 25
    assert report.violations == found[:25]


def test_fixture_report_keeps_every_failure(monkeypatch):
    table = [(f"f{i}", lambda: (False, "no")) for i in range(H.MAX_VIOLATIONS + 5)]
    monkeypatch.setattr(H, "_fixture_table", lambda: table)
    report = H.check_fixtures()
    assert [v["name"] for v in report.violations] == [name for name, _ in table]


def test_clause_variant_diff_runs():
    terms = [parse("mixed", "O_1"), parse("mixed", "O_2"), parse("mixed", "thO_1(O_3)")]
    report = H.diff_clause_variants(terms, pairs=300, seed=6)
    assert set(report.details) == set(H.mixed.Variants._fields)
    assert all(d["pairs"] == 300 for d in report.details.values())
    assert report.details["omega_low_ladder"]["differences"] > 0
    assert report.details["theta_below_cardinal"]["differences"] > 0


def test_clause_variant_diff_counts_asymmetric_pairs():
    # Either literal comparison clause makes the closed mixed order lose
    # antisymmetry: on these sampled pairs a < b and b < a both hold (the
    # reference's _ref_lt finds the same pairs).
    terms = H.enumerate_terms(H.ORDER_BUDGETS["mixed"])
    report = H.diff_clause_variants(terms, pairs=20_000, seed=1)
    assert {flag: d["asymmetric"] for flag, d in report.details.items()} == {
        "omega_low_ladder": 9,
        "theta_below_cardinal": 33,
        "high_substitution_identity": 0,
    }


def test_clause_variant_diff_restores_defaults_on_error(monkeypatch):
    terms = [parse("mixed", "O_1"), parse("mixed", "O_2"), parse("mixed", "thO_1(O_3)")]
    default = H.mixed.get_variants()
    real_compare = H.mixed.compare
    calls = []

    def failing_compare(a, b):
        calls.append(H.mixed.get_variants())
        if len(calls) == 450:  # inside the first literal-reading pass
            raise RuntimeError("compare failed")
        return real_compare(a, b)

    monkeypatch.setattr(H.mixed, "compare", failing_compare)
    with pytest.raises(RuntimeError, match="compare failed"):
        H.diff_clause_variants(terms, pairs=300, seed=6)
    assert calls[-1] != default
    assert H.mixed.get_variants() == default


_GOLDEN_SELFCHECK = os.path.join(
    os.path.dirname(__file__), "data", "selfcheck_seed1_quick.jsonl"
)


def test_selfcheck_quick():
    reports = H.selfcheck(seed=1, quick=True)
    names = {r.check for r in reports}
    assert {"fixtures", "order_axioms", "parse_render_roundtrip", "key_lemma"} <= names
    bad = [r for r in reports if not r.ok]
    assert bad == []
    assert all(r.elapsed_ms > 0 for r in reports)
    # The JSONL without timing is pinned byte for byte.
    with open(_GOLDEN_SELFCHECK, encoding="utf-8") as f:
        golden = f.read()
    assert "".join(r.to_json(timing=False) + "\n" for r in reports) == golden


_KL_FIRST_CALL = """
import json, sys
from ordcalc import harness
r = harness.check_key_lemmas(sys.argv[1], 20, int(sys.argv[2]))
print(json.dumps([r.details, r.violations], sort_keys=True))
"""


@pytest.mark.parametrize("system", ["buchholz", "poly", "xi"])
def test_key_lemma_report_independent_of_process_history(system):
    # First call in a fresh process: pools, derived sub-pools and memos empty.
    src = os.path.dirname(os.path.dirname(ordcalc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _KL_FIRST_CALL, system, "11"],
        capture_output=True, text=True, env=env, check=True,
    )
    first = json.loads(proc.stdout)
    # The same call after other calls have warmed every cache in this process.
    for other in ("buchholz", "poly", "xi"):
        H.check_key_lemmas(other, samples=5, seed=3)
    r = H.check_key_lemmas(system, samples=20, seed=11)
    assert json.loads(json.dumps([r.details, r.violations], sort_keys=True)) == first
