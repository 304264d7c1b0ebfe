import pytest
from hypothesis import given, settings, strategies as st

from ordcalc import buchholz as B, lemmas as L, reference as R
from ordcalc import parse, render
from ordcalc.cli import EXIT_PRECONDITION, main
from ordcalc.core import NEG_INF, Outcome, PreconditionError, ZERO, omega_idx, theta_idx, var_idx
from pools import closed, opened


def pb(s):
    return parse("buchholz", s)


def test_classify_cases():
    assert B.classify(pb("w^(0)")).is_h and not B.classify(pb("w^(0)")).is_sc
    assert B.classify(pb("O_1")).is_sc
    assert not B.classify(theta_idx(1, var_idx("x", 1))).is_valid
    assert B.classify(pb("th_1(0)")).is_closed


def test_fc_values():
    assert B.fc(pb("O_3 # O_2 # w^(O_1)"))[1] == 3
    assert B.fc(pb("th_2(O_2)"))[1] == NEG_INF
    assert B.fc(ZERO)[1] == NEG_INF
    assert B.fc(pb("v.x_2"))[0] == frozenset({2})


def test_kset_values():
    assert B.kset(2, pb("th_1(O_1)")) == {pb("th_1(O_1)")}
    assert B.kset(1, pb("th_2(O_1)")) == frozenset()
    assert B.kset(1, ZERO) == frozenset()
    assert B.kset(2, pb("v.x_1")) == {pb("v.x_1")}
    assert B.kset(1, pb("v.x_1")) == frozenset()


def test_compare_ladder_and_collapses():
    assert B.compare(pb("O_2"), pb("O_3")) is Outcome.LESS
    assert B.compare(ZERO, pb("w^(0)")) is Outcome.LESS
    assert B.compare(pb("th_1(0)"), pb("th_1(O_1)")) is Outcome.LESS
    assert B.compare(pb("w^(0)"), pb("th_1(0)")) is Outcome.LESS
    assert B.compare(pb("th_1(O_1)"), pb("O_1")) is Outcome.LESS
    assert B.compare(pb("O_1"), pb("th_2(O_1)")) is Outcome.LESS


def test_compare_variables():
    assert B.compare(pb("v.x_1"), pb("O_1")) is Outcome.LESS
    assert B.compare(pb("v.x_1"), pb("O_2")) is Outcome.LESS
    assert B.compare(pb("v.x_2"), pb("O_1")) is Outcome.INCOMPARABLE
    assert B.compare(pb("v.x_1"), pb("v.y_1")) is Outcome.INCOMPARABLE
    assert B.compare(pb("v.x_1"), pb("v.x_2")) is Outcome.INCOMPARABLE
    # a variable below a collapse via a critical-subterm witness
    assert B.compare(pb("v.x_1"), pb("th_2(v.x_1)")) is Outcome.LESS
    assert B.compare(pb("th_1(0)"), pb("v.x_1")) is Outcome.INCOMPARABLE


def test_compare_requires_valid():
    bad = theta_idx(1, var_idx("x", 1))
    with pytest.raises(PreconditionError, match="comparison requires valid terms"):
        B.compare(bad, bad)
    # The system of both operands is checked before their validity.
    foreign = parse("poly", "O^(0)")
    for a, b in ((bad, foreign), (foreign, bad)):
        with pytest.raises(PreconditionError, match="is not a stratified-system term"):
            B.compare(a, b)


def test_substitute():
    assert B.substitute(pb("w^(v.x_1)"), "x", 1, pb("w^(0)")) is pb("w^(w^(0))")
    assert B.substitute(pb("v.x_1 # O_1"), "x", 1, ZERO) is pb("O_1")
    with pytest.raises(PreconditionError):
        B.substitute(pb("th_2(v.x_1)"), "x", 1, omega_idx(1))


@pytest.mark.parametrize("n", [0, -1])
def test_substitute_rejects_subscript_below_one(capsys, n):
    # No variable has a subscript below 1, so such a request is an error,
    # not a substitution that silently changes nothing.
    with pytest.raises(PreconditionError, match="subscript must be >= 1"):
        B.substitute(pb("v.x_1"), "x", n, ZERO)
    argv = ["subst", "--system", "buchholz", "v.x_1", "--var", "x", "--index", str(n)]
    assert main(argv + ["--value", "0"]) == EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"precondition violation: variable subscript must be >= 1, got {n}"
    ]


def test_dfun_unfoldings():
    assert L.buchholz_dfun(2, 2, ZERO, ZERO) is pb("th_2(w^(O_2))")
    assert L.buchholz_dfun(1, 2, ZERO, ZERO) is pb("th_1(w^(O_1 # th_2(w^(O_2))))")
    assert L.buchholz_dfun(2, 2, omega_idx(1), ZERO) is pb("th_2(w^(O_2) # O_1)")
    with pytest.raises(PreconditionError):
        L.buchholz_dfun(2, 2, omega_idx(2), ZERO)


def test_llrel_cases():
    assert L.buchholz_llrel(0, ZERO, ZERO, pb("w^(0)"))
    assert not L.buchholz_llrel(1, ZERO, pb("O_1"), pb("O_1"))
    assert not L.buchholz_llrel(1, ZERO, pb("th_1(0)"), pb("w^(0) # w^(0)"))
    assert L.buchholz_llrel(1, ZERO, ZERO, pb("w^(0)"))
    with pytest.raises(PreconditionError):
        L.buchholz_llrel(1, omega_idx(1), ZERO, pb("w^(0)"))


def test_key_lemma_unit_cases():
    assert L.buchholz_key_lemma_1(pb("v.x_1"), pb("v.x_1 # w^(0)"), "x", 1, pb("th_1(0)"))
    assert L.buchholz_key_lemma_2(1, ZERO, ZERO, pb("w^(0)"))
    assert L.buchholz_key_lemma_3(1, ZERO, ZERO, pb("w^(0)"), ZERO, "x")
    assert L.buchholz_key_lemma_3(2, ZERO, ZERO, pb("O_2"), pb("v.x_2"), "x")


def test_k_elements_have_small_cardinality():
    # forced by the collection clauses; exhaustive at a small budget
    for t in closed("buchholz", max_size=4):
        for n in (1, 2, 3):
            for g in B.kset(n, t):
                assert B.fc(g)[1] < n


@given(data=st.data())
@settings(max_examples=300)
def test_fc_monotone(data):
    pool = closed("buchholz", max_size=4)
    a = data.draw(st.sampled_from(pool))
    b = data.draw(st.sampled_from(pool))
    fa, fb = B.fc(a)[1], B.fc(b)[1]
    if fa < fb:
        assert B.compare(a, b) is Outcome.LESS


@given(data=st.data())
@settings(max_examples=200)
def test_substitution_preserves_order(data):
    pool = [t for t in opened("buchholz", max_size=4) if t.valid]
    targets = [t for t in closed("buchholz", max_size=3) if B.fc(t)[1] < 1]
    targets = [t for t in targets if not isinstance(t, type(ZERO)) or t is not ZERO]
    from ordcalc.core import is_sc

    targets = [t for t in targets if is_sc(t)]
    a = data.draw(st.sampled_from(pool))
    b = data.draw(st.sampled_from(pool))
    g = data.draw(st.sampled_from(targets))
    if B.compare(a, b) is Outcome.LESS:
        a1 = B.substitute(a, "x", 1, g)
        b1 = B.substitute(b, "x", 1, g)
        assert B.compare(a1, b1) is Outcome.LESS


def test_reference_agrees_small():
    pool = closed("buchholz", max_size=4)
    for a in pool[::7]:
        for b in pool[::11]:
            assert B.compare(a, b) is R.buchholz_compare(a, b)
    for t in pool[::5]:
        for n in (1, 2):
            assert B.kset(n, t) == R.buchholz_kset(n, t)
