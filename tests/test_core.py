import importlib

import pytest
from hypothesis import given, strategies as st

from ordcalc import core, harness
from ordcalc.core import (
    ONE,
    TermError,
    ZERO,
    add,
    is_h,
    is_sc,
    omega_idx,
    omega_lev,
    omega_pow,
    subterms,
    sum_of,
    theta_idx,
    var_idx,
    var_names,
    xi,
)
from pools import closed, opened


def test_empty_sum_is_zero():
    assert sum_of([]) is ZERO
    assert ZERO.size == 1


def test_singleton_collapses():
    assert sum_of([ONE]) is ONE


def test_nested_sums_flatten():
    inner = sum_of([ONE, omega_idx(1)])
    t = sum_of([ONE, inner])
    assert [c for c in t.children] == sorted(t.children, key=lambda c: c.key)
    assert len(t.children) == 3


def test_zero_merges_away():
    assert add(ZERO, omega_idx(1)) is omega_idx(1)


def test_mixed_system_components_rejected():
    with pytest.raises(TermError):
        sum_of([omega_lev(0), omega_idx(1)])  # poly head with a stratified head


def test_size_counts_nodes_and_levels():
    assert ONE.size == 2
    assert sum_of([ONE, omega_idx(1)]).size == 4
    assert omega_lev(0).size == 2  # the level superscript costs a node
    assert omega_idx(3).size == 1
    assert xi(0, ZERO).size == 3


def test_structural_key_identity():
    assert ZERO.key == sum_of([]).key
    assert ONE.key != ZERO.key


def test_interning_gives_identity():
    a = theta_idx(2, add(ONE, omega_idx(1)))
    b = theta_idx(2, add(omega_idx(1), ONE))
    assert a is b


def test_classification_helpers():
    assert is_h(ONE) and not is_sc(ONE)
    assert is_sc(omega_idx(1))
    assert not is_h(sum_of([ONE, ONE]))


def test_var_names_and_validity():
    t = theta_idx(1, var_idx("x", 1))
    assert var_names(t) == {"x"}
    assert not t.valid
    assert theta_idx(2, var_idx("x", 1)).valid


@given(st.data())
def test_flatten_idempotent(data):
    pool = closed("buchholz", max_size=4)
    parts = data.draw(st.lists(st.sampled_from(pool), max_size=4))
    t = sum_of(parts)
    from ordcalc.core import summands

    assert sum_of(summands(t)) is t


@given(st.data())
def test_key_total_order(data):
    pool = closed("mixed", max_size=4)
    a = data.draw(st.sampled_from(pool))
    b = data.draw(st.sampled_from(pool))
    ka, kb = a.key, b.key
    assert (ka == kb) == (a is b)
    assert (ka < kb) + (ka == kb) + (ka > kb) == 1


@given(st.data())
def test_size_subadditive_over_sums(data):
    pool = [t for t in closed("poly", max_size=4) if is_h(t)]
    parts = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4))
    assert sum_of(parts).size <= 1 + sum(p.size for p in parts)


def test_subterms_preorder():
    t = omega_pow(add(omega_idx(1), ONE))
    seen = list(subterms(t))
    assert seen[0] is t
    assert omega_idx(1) in seen and ZERO in seen


# -- cached term facts ------------------------------------------------------

_REBUILD = {
    core.Sum: core.sum_of,
    core.OmegaPow: core.omega_pow,
    core.OmegaIdx: core.omega_idx,
    core.OmegaLev: core.omega_lev,
    core.OmegaHigh: core.omega_high,
    core.Xi: core.xi,
    core.ThetaIdx: core.theta_idx,
    core.Theta: core.theta,
    core.ThetaLow: core.theta_low,
    core.ThetaHigh: core.theta_high,
    core.ThetaXi: core.theta_xi,
    core.VarIdx: core.var_idx,
    core.VarLev: core.var_lev,
    core.FVar: core.fvar,
}


def _fields(t):
    return [getattr(t, name) for name in type(t).__match_args__]


def _names_by_walk(t):
    out, stack = set(), [t]
    while stack:
        s = stack.pop()
        if isinstance(s, (core.VarIdx, core.VarLev, core.FVar)):
            out.add(s.name)
        for value in _fields(s):
            if isinstance(value, core.Term):
                stack.append(value)
            elif isinstance(value, tuple):
                stack.extend(value)
    return out


def _acceptance_pools():
    for budget in harness.ORDER_BUDGETS.values():
        yield harness.enumerate_terms(budget)
    for system in harness.SYSTEMS:
        yield opened(system)
    yield harness.enumerate_terms(
        harness.EnumBudget(
            "xi", max_size=6, min_level=-1, closed_only=False, include_fvars=True
        )
    )


def test_cached_term_facts_over_acceptance_pools():
    shared = {}
    for pool in _acceptance_pools():
        for t in pool:
            assert t.var_names == _names_by_walk(t), t
            assert shared.setdefault(t.var_names, t.var_names) is t.var_names
            assert _REBUILD[type(t)](*_fields(t)) is t
            assert hash(t) == t.serial
            if isinstance(t, core.Sum):
                keys = [c.key for c in t.children]
                assert keys == sorted(keys), t


# -- the ordering kernel ------------------------------------------------------


@pytest.mark.parametrize("system", harness.SYSTEMS)
def test_order_kernel_reports_a_cycle_and_clears_its_markers(system):
    mod = importlib.import_module(f"ordcalc.{system}")
    heads = [t for t in closed(system, max_size=4) if is_sc(t)]
    a, b = heads[0], heads[-1]
    outer = []

    def head(x, y):
        # Re-enters on the pair the outermost comparison started from.
        return lt(*outer[-1]) if outer else x.serial < y.serial

    compare, lt, leq, memo = core.make_order(head, mod._check_pair)
    # The cycle is reached directly and through the shared sum and omega
    # clauses, whose sub-comparisons are in progress when it is found.
    for pair in ((a, b), (add(ONE, a), add(ONE, b)), (omega_pow(a), b)):
        outer.append(pair)
        with pytest.raises(core.InvariantError, match="comparison cycle"):
            compare(*pair)
        assert not any(v is core._IN_PROGRESS for v in memo.values())
    # No marker was left behind, so the same pair now compares normally.
    outer.clear()
    want = core.Outcome.LESS if a.serial < b.serial else core.Outcome.GREATER
    assert compare(a, b) is want
    assert leq(a, a) and not lt(a, a)


def test_reference_kernel_reports_an_antisymmetry_failure():
    compare, lt, leq = core.make_reference(lambda a, b: True)
    a, b = omega_idx(1), omega_idx(2)
    assert is_sc(a) and is_sc(b)
    with pytest.raises(core.InvariantError, match="not antisymmetric"):
        compare(a, b)
    assert leq(a, a) and not lt(a, a)
