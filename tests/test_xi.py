import collections
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import ordcalc
from ordcalc import harness, parse, render
from ordcalc import lemmas as L, reference as R, xi as X
from ordcalc.core import (
    KItem,
    NEG_INF,
    Outcome,
    PreconditionError,
    ShiftError,
    Theta,
    ZERO,
)
from pools import closed


def px(s):
    return parse("xi", s)


def test_shift_cases():
    assert X.shift(px("Xi^(-1)(w^(0))"), 0, 1) is px("Xi^(0)(w^(0))")
    t = px("Xi^(0)(Xi^(0)(0))")
    assert X.shift(t, -1, 1) is t  # inner head is at the same level: untouched
    assert X.shift(t, -1, -3) is t
    assert X.shift(px("th(0)"), 0, 0) is px("th(0)")
    with pytest.raises(ShiftError):
        X.shift(px("Xi^(0)(0)"), 0, 1)
    # a variable may land one step above the threshold, but never above 0
    assert X.shift(px("th(v.x^(-1))"), 0, 1) is px("th(v.x^(0))")
    with pytest.raises(ShiftError):
        X.shift(px("v.x^(0)"), 0, 1)


def test_fc_values():
    assert X.fc(0, px("Xi^(0)(0)"))[1] == 0
    assert X.fc(0, px("th(Xi^(-1)(0))"))[1] == 0
    assert X.fc(0, px("w^(0)"))[1] == NEG_INF
    assert X.fc(0, px("v.x^(0)"))[0] == frozenset({-1})
    assert X.fc(0, px("Xi^(-1)(Xi^(0)(0))"))[0] == frozenset({-1})


def test_substitution():
    assert X.substitute(px("th(v.a^(-1))"), "a", 0, px("Xi^(0)(w^(0))")) is px(
        "th(Xi^(-1)(w^(0)))"
    )
    assert X.substitute(px("v.a^(0)"), "a", 0, px("w^(0)")) is px("w^(0)")
    assert X.substitutable("a", 0, px("Xi^(0)(v.a^(0))"))
    assert not X.substitutable("a", 0, px("th(v.a^(0))"))


def test_abstraction_fixtures():
    a = X.abstract(px("Xi^(0)(0) # w^(Xi^(0)(0))"))
    assert render(a.body) == "w^(v.p1^(0)) # v.p1^(0)"
    assert [render(p) for p in a.parameters] == ["Xi^(0)(0)"]
    assert X.apply_abstraction(a) is px("Xi^(0)(0) # w^(Xi^(0)(0))")

    a = X.abstract(px("th(Xi^(-1)(0))"))
    assert render(a.body) == "th(v.p1^(-1))"
    assert X.apply_abstraction(a) is px("th(Xi^(-1)(0))")

    a = X.abstract(px("w^(0)"))
    assert a.parameters == () and a.body is px("w^(0)")


def test_abstraction_shares_equal_values():
    a = X.abstract(px("Xi^(0)(0) # Xi^(0)(0) # Xi^(0)(w^(0))"))
    assert len(a.parameters) == 2
    assert X.apply_abstraction(a) is px("Xi^(0)(0) # Xi^(0)(0) # Xi^(0)(w^(0))")


def test_abstraction_roundtrip_exhaustive_small():
    for t in closed("xi", max_size=5):
        assert X.apply_abstraction(X.abstract(t)) is t


def test_kappa():
    assert X.kappa(px("Xi^(0)(w^(0)) # Xi^(0)(0)")) is px("w^(0)")
    assert X.kappa(px("w^(0)")) == NEG_INF
    assert X.kappa(px("Xi^(0)(0)")) is ZERO
    with pytest.raises(PreconditionError):
        X.kappa(px("Xi^(-1)(0)"))


def test_kset_values():
    items = X.kset(0, px("th(Xi^(-1)(0))"))
    assert items == {KItem(px("th(v.k^(0))"), "k")}
    assert X.kset(0, px("Xi^(-1)(0)")) == {KItem(px("Xi^(0)(0)"))}
    assert X.kset(0, px("Xi^(0)(0)")) == frozenset()
    assert X.kset(0, px("v.x^(-1)")) == {KItem(px("v.x^(0)"))}


def test_instantiate_applies_at_position():
    item = KItem(px("th(v.k^(0))"), "k")
    assert X.instantiate(item, px("Xi^(0)(w^(0))")) is px("th(Xi^(-1)(w^(0)))")
    assert X.instantiate(KItem(px("Xi^(0)(0)")), ZERO) is px("Xi^(0)(0)")


def test_compare_cases():
    assert X.compare(px("Xi^(0)(0)"), px("Xi^(0)(w^(0))")) is Outcome.LESS
    assert X.compare(px("Xi^(-1)(w^(0))"), px("Xi^(0)(0)")) is Outcome.LESS
    assert X.compare(px("th(0)"), px("th(w^(0))")) is Outcome.LESS
    assert X.compare(px("th(Xi^(0)(0))"), px("Xi^(0)(0)")) is Outcome.LESS
    assert X.compare(px("Xi^(0)(0)"), px("th(Xi^(-1)(0))")) is Outcome.LESS
    assert X.compare(px("v.x^(-1)"), px("Xi^(-1)(0)")) is Outcome.LESS
    assert X.compare(px("V.F^(0)(0)"), px("Xi^(0)(0)")) is Outcome.LESS
    assert X.compare(px("V.F^(0)(0)"), px("V.F^(0)(w^(0))")) is Outcome.LESS
    assert X.compare(px("V.F^(0)(0)"), px("V.G^(0)(0)")) is Outcome.INCOMPARABLE


def test_fsubstitute():
    assert X.fsubstitute(px("V.F^(0)(0)"), "F", 0, px("w^(v.w^(0))"), "w") is px("w^(0)")
    assert X.fsubstitute(
        px("Xi^(0)(V.F^(0)(0))"), "F", 0, px("v.w^(0)"), "w"
    ) is px("Xi^(0)(0)")
    t = px("w^(0)")
    assert X.fsubstitute(t, "F", 0, ZERO, "w") is t
    assert X.fsubstitutable("F", 0, px("V.F^(0)(0)"))
    assert not X.fsubstitutable("F", 0, px("Xi^(-1)(V.F^(0)(0))"))


def test_dfun():
    assert L.xi_dfun(0, ZERO, ZERO) is px("th(w^(Xi^(0)(w^(0))))")
    assert L.xi_dfun(0, px("v.w^(0)"), ZERO, "w") is px(
        "th(w^(Xi^(0)(w^(0))) # Xi^(0)(0))"
    )
    assert L.xi_dfun(1, ZERO, ZERO) is px("th(w^(Xi^(0)(w^(0)) # th(w^(Xi^(0)(w^(0))))))")


def test_llrel():
    assert L.xi_llrel(ZERO, ZERO, px("w^(0)"))
    assert not L.xi_llrel(ZERO, px("w^(0)"), ZERO)
    assert L.xi_llrel(ZERO, px("Xi^(-1)(0)"), px("Xi^(-1)(0) # w^(0)"))


def test_key_lemma_unit_cases():
    assert L.xi_key_lemma_1(px("th(0)"), px("th(w^(0))"), px("w^(v.x^(0))"), "x")
    assert L.xi_key_lemma_2(
        ZERO, px("V.X^(0)(0)"), px("V.X^(0)(w^(0))"), px("th(v.w^(-1))"), "X", "w"
    )
    assert L.xi_key_lemma_3(ZERO, ZERO, px("w^(0)"))
    assert L.xi_key_lemma_4(ZERO, px("Xi^(-2)(0)"), px("Xi^(-2)(0) # w^(0)"), ZERO, "X")


def test_collapsed_term_not_its_own_value():
    small = [t for t in closed("xi", max_size=4)]
    from ordcalc.core import Theta

    for t in closed("xi", max_size=5):
        if not isinstance(t, Theta):
            continue
        items = [i for i in X.kset(0, t.body) if i.var is not None]
        for item in items:
            for delta in small[::5]:
                if X.compare(delta, t) is Outcome.LESS:
                    assert X.instantiate(item, delta) is not t


@given(data=st.data())
@settings(max_examples=150)
def test_reference_comparator_agrees(data):
    pool = closed("xi", max_size=5)
    a = data.draw(st.sampled_from(pool))
    b = data.draw(st.sampled_from(pool))
    assert X.compare(a, b) is R.xi_compare(a, b)


def _llrel_rebuilt_per_item(gamma, alpha, beta, settled):
    """llrel read off its definition: a strict critical entry is dominated
    when it falls below some D_m, each built as `dfun(m, gamma, beta)`, with
    m scanned up to the first cardinal-free D_m.  `settled[m]` counts the
    entries whose least dominating bound is D_m."""
    if X.compare(alpha, beta) is not Outcome.LESS:
        return False
    for item in X._kset_strict(0, alpha):
        for m in range(64):
            bound = L.xi_dfun(m, gamma, beta)
            if X._lt(item.term, bound):
                settled[m] += 1
                break
            if X._fc_bar0(bound) == NEG_INF:
                return False
        else:
            raise AssertionError("no cardinal-free D_m within the cap")
    return True


def test_llrel_matches_per_item_rebuild():
    rng = random.Random(43)
    pool = closed("xi")
    small = [t for t in pool if X.fc_max(t) < 0]
    holds = several = 0  # several: llrel bounds two or more critical entries
    settled = collections.Counter()
    for _ in range(1500):
        gamma, alpha, beta = rng.choice(small), rng.choice(pool), rng.choice(pool)
        if rng.random() < 0.5:  # the dominance-wrapped pairs of Key Lemma (3)
            alpha, beta = L.xi_dfun(0, gamma, alpha), L.xi_dfun(0, gamma, beta)
            gamma = ZERO
        got = L.xi_llrel(gamma, alpha, beta)
        assert got == _llrel_rebuilt_per_item(gamma, alpha, beta, settled)
        holds += got
        several += X.compare(alpha, beta) is Outcome.LESS and len(X._kset_strict(0, alpha)) > 1
    assert 100 < holds < 1400
    assert several > 0
    # Some entries pass D_0 and settle at a later D_m, so llrel's step is run.
    assert sum(n for m, n in settled.items() if m >= 1) > 0


def test_strict_critical_items_carry_no_variable():
    # llrel reads item.term: the strict condition collects a bound collapse
    # only when its class is below the threshold j, and lifting it by -j
    # leaves no level-0 parameter for the abstraction to pull out.
    pool = harness.enumerate_terms(harness.ORDER_BUDGETS["xi"]) + harness.enumerate_terms(
        harness.EnumBudget(
            "xi", max_size=7, min_level=-3, closed_only=False, include_fvars=True
        )
    )
    items = [
        item for t in pool for j in (0, -1, -2, -3) for item in X._kset_strict(j, t)
    ]
    assert all(item.var is None for item in items)
    assert sum(isinstance(item.term, Theta) for item in items) > 1000


_XI_MEMO_SIZE = """
from ordcalc import core, harness
harness.check_key_lemmas("xi", samples=50, seed=1)
print(core.cache_sizes()["xi.compare"])
"""


def test_work_done_is_the_same_in_every_process():
    # Critical-item sets are frozensets; if their iteration order depended on
    # anything but term serials, any/all over them would stop at different
    # items and fill the comparison memo differently from run to run.
    src = os.path.dirname(os.path.dirname(ordcalc.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    sizes = {
        subprocess.run(
            [sys.executable, "-c", _XI_MEMO_SIZE],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        for _ in range(3)
    }
    assert len(sizes) == 1
