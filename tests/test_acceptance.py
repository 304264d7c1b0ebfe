"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; the full suite takes a few minutes (sampled checks at full size).
Criterion 5 asserts the literal cardinality-drop reading and is expected to
fail; see the notes on its test.
"""

import time

import pytest

from ordcalc import core, harness as H

SEED = 20260810

# Enumeration universes for the order-axiom criteria; counts were pinned by
# the enumeration oracle on first run and are frozen as regression values.
FROZEN_COUNTS = {
    "buchholz": 12220,
    "poly": 3244,
    "xi": 4812,
    "mixed": 9956,
}

_pools = {}


def pool(system):
    if system not in _pools:
        _pools[system] = H.enumerate_terms(H.ORDER_BUDGETS[system])
    return _pools[system]


@pytest.fixture(autouse=True)
def _cleared_caches():
    """Empty every memo and table after each criterion, so the process holds
    one criterion's caches at a time."""
    yield
    core.clear_caches()


def report_line(n, label, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {n:>2}: {status}  {label}{'  ' + extra if extra else ''}")


def test_criterion_1_fixture_suite():
    start = time.perf_counter()
    report = H.check_fixtures(seed=SEED)
    elapsed = time.perf_counter() - start
    ok = report.ok and report.checked >= 18 and elapsed < 1.0
    report_line(1, "fixture suite", ok, f"{report.checked} fixtures in {elapsed:.2f}s")
    assert report.ok, report.violations
    assert report.checked >= 18
    assert elapsed < 1.0


def test_criterion_2_order_axioms_buchholz():
    start = time.perf_counter()
    terms = pool("buchholz")
    assert len(terms) == FROZEN_COUNTS["buchholz"]
    report = H.check_order_axioms(
        "buchholz", terms, sample_triples=100_000, seed=SEED
    )
    elapsed = time.perf_counter() - start
    ok = report.ok and elapsed < 120
    report_line(
        2,
        "order axioms (stratified)",
        ok,
        f"{len(terms)} terms, pairs={report.details['pairs_mode']}, {elapsed:.0f}s",
    )
    assert report.ok, report.violations
    assert elapsed < 120


@pytest.mark.parametrize("system", ["poly", "xi", "mixed"])
def test_criterion_3_order_axioms_polymorphic(system):
    start = time.perf_counter()
    terms = pool(system)
    assert len(terms) == FROZEN_COUNTS[system]
    report = H.check_order_axioms(system, terms, sample_triples=100_000, seed=SEED)
    elapsed = time.perf_counter() - start
    ok = report.ok and elapsed < 120
    report_line(
        3,
        f"order axioms ({system})",
        ok,
        f"{len(terms)} terms, pairs={report.details['pairs_mode']}, {elapsed:.0f}s",
    )
    assert report.ok, report.violations
    assert elapsed < 120


def test_criterion_4_cardinality_monotone():
    report = H.check_fc_monotone(pool("buchholz"), seed=SEED)
    report_line(4, "cardinality monotonicity", report.ok, f"{report.checked} pairs")
    assert report.ok, report.violations


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The literal cardinality-drop claim is false: a collapse can be its "
        "own critical subterm (kset(0, th(O^(0))) = {th(O^(0))}), so the "
        "element's top cardinality equals its source's.  The property the "
        "class construction actually needs (strict class descent) is "
        "verified separately below and holds."
    ),
)
def test_criterion_5_kset_cardinality_drop_literal():
    report = H.check_k_fc_drop(pool("poly"), seed=SEED)
    report_line(
        5,
        "critical-subterm cardinality drop (literal)",
        report.ok,
        f"{len(report.violations)}+ counterexamples (documented defect)",
    )
    assert report.ok, report.violations[:3]


def test_criterion_5_surrogate_class_descent():
    report = H.check_k_class_drop(pool("poly"), seed=SEED)
    report_line(5, "critical-subterm class descent (surrogate)", report.ok)
    assert report.ok, report.violations
    assert report.checked > 0


@pytest.mark.parametrize("system", ["buchholz", "poly", "xi"])
def test_criterion_6_key_lemmas(system):
    start = time.perf_counter()
    report = H.check_key_lemmas(system, samples=10_000, seed=SEED)
    elapsed = time.perf_counter() - start
    full = all(stats["accepted"] == 10_000 for stats in report.details.values())
    unstarved = not any(stats["starved"] for stats in report.details.values())
    ok = report.ok and full and unstarved
    rates = {k: v["acceptance_rate"] for k, v in report.details.items()}
    report_line(6, f"key lemmas ({system})", ok, f"{rates}, {elapsed:.0f}s")
    assert report.ok, report.violations
    assert full and unstarved
    assert elapsed < 300


def test_criterion_7_class_membership():
    report = H.check_m_membership(pool("poly"), seed=SEED)
    report_line(7, "structural class membership", report.ok, f"{report.checked} terms")
    assert report.ok, report.violations


def test_criterion_8_abstraction_identity():
    report = H.check_abstraction_roundtrip(pool("xi"), seed=SEED)
    report_line(8, "abstraction reapplication identity", report.ok, f"{report.checked} terms")
    assert report.ok, report.violations


def test_collapse_is_not_a_value_of_its_own_functions():
    # The quick selfcheck pool has no collapse with a collected function, so
    # this is the only run of the check that tests anything.
    report = H.check_collapse_not_self_value(pool("xi"), seed=SEED)
    assert report.ok, report.violations
    assert report.checked > 0


@pytest.mark.parametrize("system", ["buchholz", "poly", "xi", "mixed"])
def test_criterion_9_parser_roundtrip(system):
    report = H.check_roundtrip(system, pool(system), seed=SEED)
    report_line(9, f"parser round trip ({system})", report.ok, f"{report.checked} terms")
    assert report.ok, report.violations


@pytest.mark.parametrize("system", ["buchholz", "poly", "xi", "mixed"])
def test_criterion_10_oracle_equivalence(system):
    start = time.perf_counter()
    report = H.check_oracle_equivalence(system, pool(system), pairs=100_000, seed=SEED)
    elapsed = time.perf_counter() - start
    report_line(
        10, f"oracle equivalence ({system})", report.ok, f"100000 pairs, {elapsed:.0f}s"
    )
    assert report.ok, report.violations


@pytest.mark.parametrize("name", ["iota", "pi"])
def test_criterion_11_embeddings(name):
    source = H.EMBEDDINGS[name][0]
    start = time.perf_counter()
    report = H.check_embedding(name, pool(source), pairs=100_000, seed=SEED)
    elapsed = time.perf_counter() - start
    report_line(
        11, f"embedding {name} ({source})", report.ok, f"{report.checked} cases, {elapsed:.0f}s"
    )
    assert report.ok, report.violations
    kset_cases = 3 * FROZEN_COUNTS[source] if name == "iota" else 0
    assert report.checked == 100_000 + kset_cases
