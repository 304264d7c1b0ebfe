import json
import os
import random
import re
import subprocess
import sys

import pytest

import ordcalc
from ordcalc import core, harness as H, lemmas
from ordcalc import parse, render
from ordcalc import poly as P
from ordcalc.core import FVar, PreconditionError, ThetaLow, ThetaXi
from pools import REFERENCE_CACHES


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


def test_enumeration_hard_cap(monkeypatch):
    monkeypatch.setattr(H, "HARD_CAP", 1000)
    with pytest.raises(core.PreconditionError, match="hard cap of 1000 terms"):
        H.enumerate_terms(H.EnumBudget("mixed", max_size=6))


def test_enumeration_hard_cap_counts_every_sum(monkeypatch):
    # 12,220 terms, 3,341 of them sums: a cap that counted each size's sums
    # as one term would count only 8,885 and let them all through.
    monkeypatch.setattr(H, "HARD_CAP", 10_000)
    with pytest.raises(core.PreconditionError, match="hard cap of 10000 terms"):
        H.enumerate_terms(H.EnumBudget("buchholz", max_size=6, max_subscript=3))


def test_enumeration_hard_cap_stops_before_building_past_it(monkeypatch):
    # Size 2 alone has 5,001 levelled cardinals: the cap must stop the row
    # while it builds, not once the whole size is in memory.
    monkeypatch.setattr(H, "HARD_CAP", 1000)
    before = len(core.CACHES["core._INTERN"])
    with pytest.raises(core.PreconditionError, match="hard cap of 1000 terms"):
        H.enumerate_terms(H.EnumBudget("poly", max_size=2, min_level=-5000))
    assert len(core.CACHES["core._INTERN"]) - before <= H.HARD_CAP + 1


def test_open_enumeration_includes_variables():
    closed = H.enumerate_terms(H.EnumBudget("buchholz", max_size=2, max_subscript=1))
    opened = H.enumerate_terms(
        H.EnumBudget("buchholz", max_size=2, max_subscript=1, closed_only=False)
    )
    assert set(closed) < set(opened)
    assert any(not t.closed for t in opened)


@pytest.mark.parametrize("max_subscript", [1, 2, 3])
def test_open_enumeration_yields_only_valid_terms(max_subscript):
    # The th_n row refuses a body that breaks the variable-scope rule, which
    # terms of size 2 can break, so no enumerated pool needs a `valid` filter.
    assert not core.theta_idx(1, core.var_idx("x", 1)).valid
    budget = H.EnumBudget("buchholz", max_size=6, max_subscript=max_subscript, closed_only=False)
    assert all(t.valid for t in H.enumerate_terms(budget))


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
    with pytest.raises(PreconditionError, match=r"^no key lemma suite for system 'mixed'$"):
        H.check_key_lemmas("mixed", samples=10, seed=0)


def test_key_lemma_pool_sets_match_the_walks():
    # The generators test a drawn term, always one of `opened`, by set
    # membership in place of the walk; both must decide every draw alike.
    _, _, _, mentions, opened, _ = H._kl_pools_buchholz()
    for n in (1, 2):
        for t in opened:
            assert (t in mentions[n]) == H._mentions_var_idx(t, "x", n), (n, render(t))
    _, opened, _, _, mentions, substitutable0 = H._kl_pools_poly()
    for t in opened:
        assert (t in mentions) == H._mentions_var_lev(t, "x"), render(t)
        assert (t in substitutable0) == P.substitutable("x", 0, t), render(t)


# Each instance fails an order or class hypothesis that needs no new term;
# the item must reject it before it calls any of the watched functions, each
# named `module.attribute` as the item reads it.  `args(p)` builds the
# instance, with `p` parsing a term of the system.
@pytest.mark.parametrize(
    "system, item, args, watched, message",
    [
        ("buchholz", "key_lemma_3", lambda p: (1, p("0"), p("0"), p("w^(0)"), p("w^(0)"), "x"),
         ("lemmas.buchholz_llrel", "lemmas.buchholz_dfun"),
         "key lemma (3) needs alpha, gamma << beta"),
        ("poly", "key_lemma_3", lambda p: (p("0"), p("0"), p("O^(0)"), p("O^(0)"), "x"),
         ("lemmas.poly_llrel", "lemmas.poly_dfun"), "key lemma (3) needs alpha, gamma << beta"),
        ("xi", "key_lemma_4",
         lambda p: (p("0"), p("Xi^(-2)(0)"), p("Xi^(-2)(0) # w^(0)"), p("Xi^(-2)(0) # w^(0)"), "X"),
         ("lemmas.xi_llrel", "lemmas.xi_dfun", "xi._fsubst"),
         "key lemma (4) needs alpha, gamma << beta"),
        ("xi", "key_lemma_4",
         lambda p: (p("0"), p("Xi^(-1)(0)"), p("Xi^(-2)(0) # w^(0)"), p("0"), "X"),
         ("lemmas.xi_llrel", "lemmas.xi_dfun", "xi._fsubst"),
         "key lemma (4) needs operands below class -1"),
        ("xi", "key_lemma_2",
         lambda p: (p("0"), p("V.X^(0)(0)"), p("V.X^(0)(0)"), p("th(v.w^(-1))"), "X", "w"),
         ("lemmas.xi_llrel", "xi.fsubstitutable"), "key lemma (2) needs alpha << beta"),
    ],
    ids=[
        "buchholz-3-gamma-is-beta",
        "poly-3-gamma-is-beta",
        "xi-4-gamma-is-beta",
        "xi-4-alpha-class",
        "xi-2-alpha-is-beta",
    ],
)
def test_key_lemma_rejects_before_building(monkeypatch, system, item, args, watched, message):
    instance = args(lambda text: parse(system, text))
    calls = []
    for name in watched:
        module, _, attr = name.partition(".")
        mod = lemmas if module == "lemmas" else H._MODULES[module]
        fn = getattr(mod, attr)
        wrapper = lambda *a, _name=name, _fn=fn: calls.append(_name) or _fn(*a)
        monkeypatch.setattr(mod, attr, wrapper)
    with pytest.raises(PreconditionError, match=re.escape(message)):
        getattr(lemmas, f"{system}_{item}")(*instance)
    assert calls == []


@pytest.mark.parametrize("system", list(H._KL_SUITES))
def test_key_lemma_suite_rows_are_the_module_items(system):
    prefix = f"{system}_key_lemma_"
    names = [name for name in vars(lemmas) if name.startswith(prefix)]
    assert names == [f"{prefix}{i}" for i in range(1, len(names) + 1)]
    rows = H._KL_SUITES[system](lemmas)
    assert [item for _, item in rows] == [getattr(lemmas, n) for n in names]


def test_key_lemma_items_are_read_off_the_module(monkeypatch):
    # A wrapper put on the module, as the benchmark's tracer puts one, is
    # what the run calls: poly's item-2 generator never rejects a draw.
    calls = []
    item = lemmas.poly_key_lemma_2
    monkeypatch.setattr(lemmas, "poly_key_lemma_2", lambda *args: calls.append(args) or item(*args))
    report = H.check_key_lemmas("poly", 5, seed=3)
    assert len(calls) == report.details["item2"]["attempts"] > 0


def test_oracle_checks_small():
    terms = H.enumerate_terms(H.EnumBudget("mixed", max_size=4, min_level=-1, max_subscript=1))
    assert H.check_oracle_equivalence("mixed", terms, pairs=2000, seed=4).ok
    assert H.check_kset_oracle("mixed", terms, seed=4).ok


def test_xi_kset_oracle_on_function_variables():
    # Every acceptance pool is closed.  The subterms of the function-variable
    # Key Lemma pool reach the reference walk's function-variable clause, but
    # only at level 0; three parsed terms add the lower levels at which the
    # clause collects the variable instead of descending.
    extra = ("V.X^(-1)(0)", "V.X^(0)(V.X^(-1)(w^(0)))", "V.Y^(-2)(0) # V.X^(-1)(0)")
    pool = H._kl_pools_xi()[3] + [parse("xi", s) for s in extra]
    terms = dict.fromkeys(s for t in pool for s in core.subterms(t))
    assert {t.level for t in terms if isinstance(t, FVar)} == {0, -1, -2}
    report = H.check_kset_oracle("xi", list(terms), seed=1)
    assert report.ok and report.checked == 2 * len(terms)


def test_roundtrip_check():
    terms = H.enumerate_terms(H.EnumBudget("xi", max_size=4, min_level=-2))
    assert H.check_roundtrip("xi", terms).ok


def test_m_checks_small():
    terms = H.enumerate_terms(H.EnumBudget("poly", max_size=4, min_level=-2))
    assert H.check_m_membership(terms).ok
    assert H.check_m_closure(terms).ok
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
    table = [(f"f{i}", lambda: False, True) for i in range(H.MAX_VIOLATIONS + 5)]
    monkeypatch.setattr(H, "_fixture_table", lambda: table)
    report = H.check_fixtures()
    assert [v["name"] for v in report.violations] == [name for name, _, _ in table]
    assert {v["detail"] for v in report.violations} == {"got False, want True"}


def test_embeddings_map_heads():
    iota, pi = H.EMBEDDINGS["iota"][2], H.EMBEDDINGS["pi"][2]
    t = parse("buchholz", "th_2(O_1 # w^(th_1(0)))")
    assert iota(t, 0) is parse("mixed", "thO_2(O_1 # w^(thO_1(0)))")
    t = parse("poly", "th(O^(-1) # w^(O^(0)))")
    assert pi(t, 0) is parse("xi", "th(Xi^(-1)(0) # w^(Xi^(0)(0)))")


def _faulty_rank(monkeypatch, kind, wrong):
    """The memoized order ranks collapses of type `kind` by `wrong(t)`; the
    reference ranks collapses by the cardinal they collapse, not by `_rank`."""
    rank = H.mixed._rank
    monkeypatch.setattr(H.mixed, "_rank", lambda t: wrong(t) if type(t) is kind else rank(t))


def test_embedding_and_oracle_see_a_thetalow_rank_fault(monkeypatch):
    # thO_n ranked by -n.  iota measures mixed against buchholz; the oracle
    # measures the memoized order against the reference's own ranking.
    terms = H.enumerate_terms(H.EnumBudget("buchholz", max_size=4, max_subscript=2))
    iota = H.EMBEDDINGS["iota"][2]
    core.clear_caches()
    try:
        with monkeypatch.context() as patch:
            _faulty_rank(patch, ThetaLow, lambda t: (0, -t.index))
            embedding = H.check_embedding("iota", terms, pairs=5_000, seed=1)
            oracle = H.check_oracle_equivalence(
                "mixed", [iota(t, 0) for t in terms], pairs=5_000, seed=1
            )
            # the same sampled pairs, recounted
            rng = random.Random(H._derive_seed(1, "embedding:iota"))
            recount = 0
            for _ in range(5_000):
                a, b = terms[rng.randrange(len(terms))], terms[rng.randrange(len(terms))]
                recount += H.buchholz.compare(a, b) is not H.mixed.compare(iota(a, 0), iota(b, 0))
    finally:
        core.clear_caches()
    assert not embedding.ok
    assert {v["kind"] for v in embedding.violations} == {"compare_disagreement"}
    # the report keeps MAX_VIOLATIONS of them and counts them all
    assert len(embedding.violations) == H.MAX_VIOLATIONS
    assert embedding.details["violations_total"] == recount > H.MAX_VIOLATIONS
    assert oracle.checked == 5_000
    assert {v["kind"] for v in oracle.violations} == {"comparator_disagreement"}
    assert oracle.details["violations_total"] == 1_028


def test_oracle_sees_a_thetaxi_rank_fault_on_the_quick_pool(monkeypatch):
    # thXi ranked above every thOO_n; the reference ranks it at (0,0), below them.
    terms = H.enumerate_terms(H.QUICK_BUDGETS["mixed"])
    core.clear_caches()
    try:
        with monkeypatch.context() as patch:
            _faulty_rank(patch, ThetaXi, lambda t: (3, 0))
            oracle = H.check_oracle_equivalence("mixed", terms, pairs=5_000, seed=1)
    finally:
        core.clear_caches()
    assert {v["kind"] for v in oracle.violations} == {"comparator_disagreement"}
    assert oracle.details["violations_total"] == 268


def _drop_family_entry(monkeypatch):
    # thOO_1(O_1)'s own critical set is {O_1}; the fault empties it.
    t = parse("mixed", "thOO_1(O_1)")
    H.mixed._instantiated_kset(t, ())
    table = core.CACHES["mixed._FAMILY"]
    dropped = table[t.serial] - {min(table[t.serial], key=lambda g: g.key)}
    monkeypatch.setitem(table, t.serial, dropped)


def _drop_poly_kset_entry(monkeypatch):
    # Every threshold-0 critical set the poly head reads loses its first entry.
    kset = P._kset

    def faulty(j, t):
        out = kset(j, t)
        return frozenset(sorted(out, key=lambda g: g.key)[1:]) if j == 0 else out

    monkeypatch.setattr(P, "_kset", faulty)


@pytest.mark.parametrize(
    "system, fault",
    [("mixed", _drop_family_entry), ("poly", _drop_poly_kset_entry)],
    ids=["mixed_family", "poly_kset"],
)
def test_warm_reference_tables_still_see_a_memoized_fault(monkeypatch, system, fault):
    # The reference tables are filled by the reference walks alone, so a fault
    # put into a memoized path after they are warm still shows as violations.
    terms = H.enumerate_terms(H.QUICK_BUDGETS[system])
    memo = core.CACHES[f"{system}.compare"]

    def table_sizes():
        sizes = core.cache_sizes()
        return {
            name: sizes[name]
            for name in REFERENCE_CACHES
            if name.removeprefix("reference.").lstrip("_").startswith(f"{system}_")
        }

    assert H.check_oracle_equivalence(system, terms, pairs=5_000, seed=1).ok
    assert H.check_kset_oracle(system, terms, seed=1).ok
    warm = table_sizes()
    assert all(warm.values())
    try:
        with monkeypatch.context() as patch:
            fault(patch)
            memo.clear()
            oracle = H.check_oracle_equivalence(system, terms, pairs=5_000, seed=1)
            kset = H.check_kset_oracle(system, terms, seed=1)
    finally:
        memo.clear()
    assert table_sizes() == warm  # the faulty run read the warm tables only
    assert not oracle.ok
    assert {v["kind"] for v in oracle.violations} == {"comparator_disagreement"}
    # the kset oracle compares the walks themselves, which _FAMILY does not feed
    assert kset.ok is (system == "mixed")


_GOLDEN_SELFCHECK = os.path.join(
    os.path.dirname(__file__), "data", "selfcheck_seed1_quick.jsonl"
)


def test_selfcheck_quick():
    reports = H.selfcheck(seed=1, quick=True)
    names = {r.check for r in reports}
    assert {"fixtures", "order_axioms", "parse_render_roundtrip", "key_lemma"} <= names
    # one Key Lemma record per suite in the table
    assert [r.system for r in reports if r.check == "key_lemma"] == list(H._KL_SUITES)
    bad = [r for r in reports if not r.ok]
    assert bad == []
    assert all(r.elapsed_ms > 0 for r in reports)
    # The JSONL without timing is pinned byte for byte.
    with open(_GOLDEN_SELFCHECK, encoding="utf-8") as f:
        golden = f.read()
    assert "".join(r.to_json(timing=False) + "\n" for r in reports) == golden


def test_selfcheck_quick_reruns_the_same_from_cleared_caches(monkeypatch):
    snapshots = []

    def clear_caches():
        snapshots.append(core.cache_sizes())
        core.clear_caches()

    monkeypatch.setattr(H, "clear_caches", clear_caches)
    H.selfcheck(seed=1, quick=True)
    # Every table was filled by some check, and each check's tables were
    # emptied once its report was made.
    assert {name for sizes in snapshots for name, n in sizes.items() if n} == set(core.CACHES)
    sizes = core.cache_sizes()
    # Kept: the terms, which are equal only when identical, and their name sets.
    terms = core.CACHES["core._INTERN"].values()
    assert sizes.pop("core._INTERN") == len(terms) > 0
    assert core.CACHES["core._SHARED_SETS"] == {t.var_names: t.var_names for t in terms}
    assert frozenset() in core.CACHES["core._SHARED_SETS"]
    sizes.pop("core._SHARED_SETS")
    assert set(sizes.values()) == {0}
    reports = H.selfcheck(seed=1, quick=True)
    with open(_GOLDEN_SELFCHECK, encoding="utf-8") as f:
        assert "".join(r.to_json(timing=False) + "\n" for r in reports) == f.read()


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
