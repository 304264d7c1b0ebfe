import importlib
import random
import sys

import pytest
from hypothesis import given, strategies as st

from ordcalc import core, harness, mixed, xi as X
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


_XI_FVARS = harness.EnumBudget(
    "xi", max_size=6, min_level=-1, closed_only=False, include_fvars=True
)


def _acceptance_pools():
    for budget in harness.ORDER_BUDGETS.values():
        yield harness.enumerate_terms(budget)
    for system in harness.SYSTEMS:
        yield opened(system)
    yield harness.enumerate_terms(_XI_FVARS)


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
        if not outer:
            return x.serial < y.serial
        reenter, pair = outer[-1]
        return reenter(*pair)

    def through_compare(x, y):
        return compare(x, y) is core.Outcome.LESS

    compare, lt, leq, memo = core.make_order(head, mod._check_pair)
    # The cycle is reached directly and through the shared sum and omega
    # clauses, whose sub-comparisons are in progress when it is found.
    for pair in ((a, b), (add(ONE, a), add(ONE, b)), (omega_pow(a), b)):
        outer.append((lt, pair))
        with pytest.raises(core.InvariantError, match="comparison cycle"):
            compare(*pair)
        assert not any(v is core._IN_PROGRESS for v in memo.values())
    # `compare` reads the memo itself, (x, y) first and then (y, x); a marker
    # met in either lookup must still raise.  With lt(hi, lo) memoized as
    # False, compare(hi, lo) decides lt(lo, hi), whose re-entry meets the
    # marker in the second lookup.
    outer.clear()
    lo, hi = sorted((a, b), key=lambda t: t.serial)
    assert not lt(hi, lo)
    for pair in ((lo, hi), (hi, lo)):
        outer.append((through_compare, pair))
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


def test_sum_rests_match_the_counter_difference():
    pool = [t for t in closed("buchholz", max_size=4) if is_h(t)]
    rng = random.Random(1)
    for _ in range(3000):
        a = sum_of(rng.choices(pool, k=rng.randrange(2, 5)))
        b = sum_of(rng.choices(pool + list(core.summands(a)), k=rng.randrange(2, 5)))
        if isinstance(a, core.Sum) and isinstance(b, core.Sum):
            rest_a, rest_b = core._sum_rests(a.children, b.children)
            assert list(rest_a) == core.multiset_rest(a.children, b.children)
            assert list(rest_b) == core.multiset_rest(b.children, a.children)


def _tower(depth, leaf):
    """w^(1 + w^(1 + ... w^(1 + leaf))): a sum inside every omega power."""
    t = leaf
    for _ in range(depth):
        t = omega_pow(add(ONE, t))
    return t


# The deepest such pair compare decides at the default recursion limit,
# from the top of a script, is 498; generator frames in the sum clauses
# stopped it at 166.
_TOWER_DEPTH = 400


@pytest.mark.parametrize("system", harness.SYSTEMS)
def test_compare_decides_a_deep_sum_inside_omega_tower(system):
    assert sys.getrecursionlimit() == 1000
    mod = importlib.import_module(f"ordcalc.{system}")
    low, high = _tower(_TOWER_DEPTH, ZERO), _tower(_TOWER_DEPTH, ONE)
    assert mod.compare(low, high) is core.Outcome.LESS
    assert mod.compare(high, low) is core.Outcome.GREATER


# -- the memoized head rules against the reference's -----------------------------


def _head_sample(terms, per_head, seed=7):
    """The strongly critical terms of a pool, at most `per_head` of each head
    type (a seeded draw where a type has more)."""
    by_head = {}
    for t in terms:
        if is_sc(t):
            by_head.setdefault(type(t), []).append(t)
    rng = random.Random(seed)
    out = []
    for heads in by_head.values():
        out += heads if len(heads) <= per_head else rng.sample(heads, per_head)
    return out


def _assert_heads_agree(mod, heads):
    for a in heads:
        for b in heads:
            assert mod._head_lt(a, b) is mod._ref_head_lt(a, b), (a, b)


@pytest.mark.parametrize("system", harness.SYSTEMS)
def test_head_rule_matches_reference_head(system):
    """The type-dispatched head rule decides every ordered pair of a sample
    of heads as the reference's `match` coding does, under every reading."""
    mod = importlib.import_module(f"ordcalc.{system}")
    # mixed's reference walks its critical sets unmemoized: a smaller sample
    heads = _head_sample(opened(system), per_head=30 if system == "mixed" else 60)
    if system == "xi":
        heads += _head_sample(harness.enumerate_terms(_XI_FVARS), per_head=40)
    head_types = {"buchholz": 3, "poly": 3, "xi": 4, "mixed": 7}[system]
    assert len({type(t) for t in heads}) == head_types
    _assert_heads_agree(mod, heads)
    if system not in ("xi", "mixed"):
        return
    try:
        if system == "xi":
            X.set_policy(X.ComparePolicy.LITERAL_ZERO)
            _assert_heads_agree(mod, heads)
        else:
            for flag in mixed.Variants._fields:
                mixed.set_variants(mixed.Variants(**{flag: False}))
                _assert_heads_agree(mod, heads)
    finally:
        mixed.set_variants(mixed.Variants())
        X.set_policy(X.ComparePolicy.SYMMETRIC_PARAMS)


# -- per-serial head facts of xi and mixed ---------------------------------------


def _params_by_walk(t):
    found = set()
    core.collect_params(t, 0, found)
    return tuple(sorted(found, key=lambda p: p.key))


def _check_fact_tables(pools):
    """Every table entry of a term in the pools, or of one of its subterms,
    equals a fresh computation."""
    by_serial = {s.serial: s for pool in pools for t in pool for s in subterms(t)}
    checked = 0
    for serial, t in by_serial.items():
        if serial in core._PARAMS:
            params = core._PARAMS[serial]
            assert params == _params_by_walk(t), t
            ref = X._ref_params(t) if t.in_system("xi") else mixed._ref_params(t)
            assert set(params) == set(ref), t
            checked += 1
        if serial in X._TOP:
            assert X._TOP[serial] == max(X._fc_set(0, t), default=core.NEG_INF), t
            checked += 1
        family = mixed._FAMILY.get(serial)
        if family is None:
            continue
        checked += 1
        match t:
            case core.ThetaLow(n, body):
                walk = mixed._kset_low(n, body)
                ref = mixed.kset_low_reference(n, body)
            case core.ThetaHigh(n, body):
                walk = mixed._kset_high(mixed.large(0, n), n, body)
                ref = mixed.kset_high_reference(mixed.large(0, n), n, body)
            case core.ThetaXi(body):
                walk = mixed._kset_xi(mixed.large(0, 0), body)
                ref = mixed.kset_xi_reference(mixed.large(0, 0), body)
        assert family == walk, t
        assert family == ref, t
    assert checked > 0


def _warm_fact_tables(pools):
    for pool in pools:
        for t in pool:
            if t.in_system("xi"):
                X.parameters(t)
                X._fc_bar0(t)
            if t.in_system("mixed"):
                mixed.parameters(t)
                if isinstance(t, mixed._COLLAPSES):
                    mixed._instantiated_kset(t, ())
                    mixed.critical_sets(t, t)


def _assert_compare_matches_reference(system, pairs, seed):
    """`compare` gives the reference's decision on seeded pairs of the
    system's order universe.  Where the reference finds both a < b and
    b < a (some pairs under a literal clause), `compare_reference` raises
    and `compare` must answer LESS, as its first test is a < b."""
    mod = importlib.import_module(f"ordcalc.{system}")
    terms = harness.enumerate_terms(harness.ORDER_BUDGETS[system])
    rng = random.Random(seed)
    for _ in range(pairs):
        a, b = rng.choice(terms), rng.choice(terms)
        if a is b:
            want = core.Outcome.EQUAL
        elif mod._ref_lt(a, b):
            want = core.Outcome.LESS
        elif mod._ref_lt(b, a):
            want = core.Outcome.GREATER
        else:
            want = core.Outcome.INCOMPARABLE
        assert mod.compare(a, b) is want, (a, b)


def test_fact_tables_agree_with_a_fresh_walk():
    pools = list(_acceptance_pools())
    _warm_fact_tables(pools)
    for system in ("xi", "mixed"):
        _assert_compare_matches_reference(system, pairs=3000, seed=2)
    assert core._PARAMS and X._TOP and mixed._FAMILY
    _check_fact_tables(pools)


_TOGGLES = list(mixed.Variants._fields) + ["literal_zero"]


@pytest.mark.parametrize("toggle", _TOGGLES)
def test_toggles_leave_no_stale_fact(toggle):
    """No toggle clears the fact tables, so none may change what they hold."""
    pools = list(_acceptance_pools())
    _warm_fact_tables(pools)
    try:
        if toggle == "literal_zero":
            X.set_policy(X.ComparePolicy.LITERAL_ZERO)
            _assert_compare_matches_reference("xi", pairs=3000, seed=3)
        else:
            mixed.set_variants(mixed.Variants(**{toggle: False}))
            _assert_compare_matches_reference("mixed", pairs=3000, seed=3)
        _warm_fact_tables(pools)
        _check_fact_tables(pools)
    finally:
        mixed.set_variants(mixed.Variants())
        X.set_policy(X.ComparePolicy.SYMMETRIC_PARAMS)


def test_reference_reads_no_fact_table():
    # The oracle must stay independent of the tables it checks: with every
    # table empty, reference comparisons and walks fill none of them.
    tables = (core._PARAMS, X._TOP, mixed._FAMILY)
    for table in tables:
        table.clear()
    for system, mod in (("xi", X), ("mixed", mixed)):
        terms = harness.enumerate_terms(harness.ORDER_BUDGETS[system])
        rng = random.Random(4)
        for _ in range(500):
            mod.compare_reference(rng.choice(terms), rng.choice(terms))
        for t in rng.sample(terms, 200):
            if system == "xi":
                X.kset_reference(0, t)
            else:
                mixed.kset_xi_reference(mixed.FULL, t)
    assert not any(tables)
