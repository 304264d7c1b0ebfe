import random

import pytest
from hypothesis import given, settings, strategies as st

from ordcalc import parse
from ordcalc import lemmas as L, poly as P, reference as R
from ordcalc.core import (
    NEG_INF,
    Outcome,
    PreconditionError,
    ShiftError,
    ZERO,
)
from pools import closed


def pp(s):
    return parse("poly", s)


def test_fc_values():
    assert P.fc(0, pp("O^(-1) # O^(-2) # O^(-2)"))[1] == -1
    assert P.fc(0, pp("th(O^(0) # O^(-1))"))[1] == 0
    assert P.fc(0, pp("w^(0)"))[1] == NEG_INF
    assert P.fc(-1, pp("O^(-1)"))[0] == frozenset({0})
    assert P.fc(0, pp("v.x^(-1)"))[0] == frozenset({-1})


def test_shift_cases():
    assert P.shift(pp("O^(-2)"), 0, 1) is pp("O^(-1)")
    with pytest.raises(ShiftError):
        P.shift(pp("th(O^(-1))"), 0, 1)
    assert P.shift(pp("th(O^(0))"), 0, 1) is pp("th(O^(0))")
    assert P.shift(pp("O^(-1)"), 0, -2) is pp("O^(-3)")
    with pytest.raises(ShiftError):
        P.shift(pp("v.x^(0)"), 0, 1)


def test_shift_roundtrip():
    for t in closed("poly", max_size=4):
        down = P.shift(t, 0, -1)
        assert P.shift(down, 0, 1) is t


def test_kset_values():
    assert P.kset(0, pp("th(O^(0) # O^(-1))")) == frozenset()
    assert P.kset(0, pp("th(O^(0))")) == {pp("th(O^(0))")}
    assert P.kset(0, pp("th(O^(0) # O^(-2)) # O^(-1)")) == {
        pp("th(O^(0) # O^(-1))"),
        pp("O^(0)"),
    }
    assert P.kset(0, pp("v.x^(-1)")) == {pp("v.x^(0)")}


def test_compare_cases():
    assert P.compare(pp("O^(-2)"), pp("O^(-1)")) is Outcome.LESS
    assert P.compare(pp("th(0)"), pp("th(w^(0))")) is Outcome.LESS
    t = pp("th(O^(0))")
    assert P.compare(t, t) is Outcome.EQUAL
    assert P.compare(pp("O^(-1)"), pp("th(O^(0) # O^(-1))")) is Outcome.LESS
    assert P.compare(pp("th(O^(0))"), pp("O^(0)")) is Outcome.LESS
    assert P.compare(pp("v.x^(-1)"), pp("O^(-1)")) is Outcome.LESS
    assert P.compare(pp("v.x^(-1)"), pp("O^(-2)")) is Outcome.INCOMPARABLE
    assert P.compare(pp("th(O^(0))"), pp("v.x^(0)")) is Outcome.INCOMPARABLE


def test_normalize():
    r = P.normalize(pp("O^(-1) # O^(-2)"))
    assert r.star is pp("O^(0) # O^(-1)")
    assert r.ground == -2 and r.class_index == 1 and r.m_member
    r = P.normalize(pp("w^(0)"))
    assert r.star is pp("w^(0)") and r.ground == NEG_INF and r.m_member
    r = P.normalize(pp("th(O^(0))"))
    assert r.ground == NEG_INF and r.class_index == NEG_INF and r.m_member
    with pytest.raises(PreconditionError):
        P.normalize(pp("v.x^(0)"))


def test_normalize_idempotent_on_star():
    for t in closed("poly", max_size=4):
        s = P.star(t)
        assert P.star(s) is s


def test_substitutable():
    assert P.substitutable("x", 0, pp("th(v.x^(-1))"))
    assert not P.substitutable("x", 0, pp("th(v.x^(0))"))
    assert P.substitutable("x", 0, pp("O^(0)"))


def test_substitute():
    assert P.substitute(pp("v.x^(0)"), "x", 0, pp("w^(0)")) is pp("w^(0)")
    assert P.substitute(pp("th(v.x^(-1))"), "x", 0, pp("O^(0)")) is pp("th(O^(-1))")
    assert P.substitute(pp("O^(0)"), "x", 0, pp("w^(0)")) is pp("O^(0)")
    with pytest.raises(PreconditionError):
        P.substitute(pp("th(v.x^(0))"), "x", 0, ZERO)


def test_dfun():
    assert L.poly_dfun(0, ZERO, ZERO) is pp("th(w^(O^(0)))")
    assert L.poly_dfun(1, ZERO, ZERO) is pp("th(w^(O^(0) # th(w^(O^(0)))))")
    assert L.poly_dfun(0, pp("O^(-1)"), ZERO) is pp("th(w^(O^(0)) # O^(-1))")
    with pytest.raises(PreconditionError):
        L.poly_dfun(0, pp("O^(0)"), ZERO)


def test_llrel():
    assert L.poly_llrel(ZERO, ZERO, pp("w^(0)"))
    assert not L.poly_llrel(ZERO, pp("w^(0)"), ZERO)
    assert L.poly_llrel(ZERO, pp("th(O^(0))"), pp("th(O^(0)) # w^(0)"))


def test_key_lemma_unit_cases():
    assert L.poly_key_lemma_1(pp("v.x^(0)"), pp("v.x^(0) # w^(0)"), "x", pp("th(0)"))
    assert L.poly_key_lemma_2(ZERO, ZERO, pp("w^(0)"))
    assert L.poly_key_lemma_3(ZERO, ZERO, pp("O^(0)"), pp("v.x^(0)"), "x")


def test_class_predicate_details():
    # every critical entry of a top-class star falls into a smaller class
    for t in closed("poly", max_size=4):
        if P.fc_max(t) != 0:
            continue
        cls = -P.ground(t)
        for beta in P.kset(0, t):
            bstar = P.star(beta)
            assert P.class_of(bstar) < cls
            assert P.m_member(bstar, P.class_of(bstar))


def test_m_membership_small():
    for t in closed("poly", max_size=4):
        assert P.normalize(t).m_member


@given(data=st.data())
@settings(max_examples=200)
def test_reference_comparator_agrees(data):
    pool = closed("poly", max_size=4)
    a = data.draw(st.sampled_from(pool))
    b = data.draw(st.sampled_from(pool))
    assert P.compare(a, b) is R.poly_compare(a, b)


def _llrel_rebuilt_per_item(gamma, alpha, beta):
    """llrel read off its definition: each critical subterm is compared with
    the least D_m whose class reaches its own, each D_m built as
    `dfun(m, gamma, beta)` and m scanned up to llrel's cap."""

    def least_bound(eta):
        for m in range(64):
            bound = L.poly_dfun(m, gamma, beta)
            if P.fc_max(bound) <= P.fc_max(eta):
                return bound
        raise AssertionError("no D_m within the cap reaches the class")

    if P.compare(alpha, beta) is not Outcome.LESS:
        return False
    return all(P._lt(eta, least_bound(eta)) for eta in P._kset(0, alpha))


def test_llrel_matches_per_item_rebuild():
    rng = random.Random(41)
    pool = closed("poly")
    small = [t for t in pool if P.fc_max(t) < 0]
    holds = several = 0  # several: llrel bounds two or more critical entries
    for _ in range(1500):
        gamma, alpha, beta = rng.choice(small), rng.choice(pool), rng.choice(pool)
        if rng.random() < 0.5:  # the dominance-wrapped pairs of Key Lemma (2)
            alpha, beta = L.poly_dfun(0, gamma, alpha), L.poly_dfun(0, gamma, beta)
            gamma = ZERO
        got = L.poly_llrel(gamma, alpha, beta)
        assert got == _llrel_rebuilt_per_item(gamma, alpha, beta)
        holds += got
        several += P.compare(alpha, beta) is Outcome.LESS and len(P._kset(0, alpha)) > 1
    assert 100 < holds < 1400
    assert several > 0
