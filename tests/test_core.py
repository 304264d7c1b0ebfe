import importlib
import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from ordcalc import buchholz as B, core, harness, lemmas, mixed, poly as P, reference as R, xi as X
from ordcalc.core import (
    ONE,
    TermError,
    ZERO,
    add,
    fvar,
    is_h,
    is_sc,
    omega_high,
    omega_idx,
    omega_lev,
    omega_pow,
    subterms,
    sum_of,
    summands,
    theta,
    theta_high,
    theta_idx,
    theta_low,
    theta_xi,
    var_idx,
    var_lev,
    var_names,
    xi,
)
from pools import REFERENCE_CACHES, closed, opened


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


def test_sum_interning_ignores_child_order():
    """A sum is looked up by its children's serials, so every order and
    grouping of the same multiset of summands is the one term, its children
    in key order."""
    pool = [t for t in closed("poly", max_size=4) if is_h(t)]
    rng = random.Random(3)
    for _ in range(200):
        parts = rng.choices(pool, k=rng.randrange(2, 5))
        parts.append(rng.choice(parts))  # a duplicate
        want = sum_of(parts)
        keys = [c.key for c in want.children]
        assert keys == sorted(keys) and len(keys) == len(parts)
        for perm in itertools.permutations(parts):
            assert sum_of(perm) is want
            assert add(*perm) is want
            cut = rng.randrange(1, len(perm))
            assert add(sum_of(perm[:cut]), sum_of(perm[cut:])) is want
            assert sum_of([perm[0], sum_of([sum_of(perm[1:cut]), *perm[cut:]])]) is want
    terms = pool + [sum_of(rng.choices(pool, k=3)) for _ in range(50)]
    for _ in range(500):
        a, b, c = rng.choices(terms, k=3)
        assert add(a, b, c) is sum_of([*summands(a), *summands(b), *summands(c)])


@pytest.mark.parametrize("module", ["ordcalc", *(f"ordcalc.{s}" for s in harness.SYSTEMS)])
def test_all_names_exist(module):
    # a stale entry breaks `from module import *`
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


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


_TAGS = {
    core.Sum: core.TAG_SUM,
    core.OmegaPow: core.TAG_OMEGA_POW,
    core.OmegaIdx: core.TAG_OMEGA_IDX,
    core.OmegaLev: core.TAG_OMEGA_LEV,
    core.OmegaHigh: core.TAG_OMEGA_HIGH,
    core.Xi: core.TAG_XI,
    core.ThetaIdx: core.TAG_THETA_IDX,
    core.Theta: core.TAG_THETA,
    core.ThetaLow: core.TAG_THETA_LOW,
    core.ThetaHigh: core.TAG_THETA_HIGH,
    core.ThetaXi: core.TAG_THETA_XI,
    core.VarIdx: core.TAG_VAR_IDX,
    core.VarLev: core.TAG_VAR_LEV,
    core.FVar: core.TAG_FVAR,
}


def _facts_by_recursion(t):
    """(key, size, vmax, has_fvar, valid) of t, recomputed from its fields by
    plain recursion: a key is the tag, then each field with a child replaced
    by the child's key (a sum's is its tag, its count, its children's keys);
    a node counts 1 and a level 1 more; th_n's body may hold no variable
    subscript >= n."""
    if isinstance(t, core.Sum):
        subs = [_facts_by_recursion(c) for c in t.children]
        key = (core.TAG_SUM, len(subs), *(s[0] for s in subs))
    else:
        subs, key = [], [_TAGS[type(t)]]
        for value in _fields(t):
            if isinstance(value, core.Term):
                subs.append(_facts_by_recursion(value))
                value = subs[-1][0]
            key.append(value)
        key = tuple(key)
    size = 1 + ("level" in type(t).__match_args__) + sum(s[1] for s in subs)
    vmax = max([t.index if isinstance(t, core.VarIdx) else -1, *(s[2] for s in subs)])
    has_fvar = isinstance(t, core.FVar) or any(s[3] for s in subs)
    valid = all(s[4] for s in subs)
    if isinstance(t, core.ThetaIdx):
        valid = valid and subs[0][2] < t.index
    return key, size, vmax, has_fvar, valid


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
            assert (t.key, t.size, t.vmax, t.has_fvar, t.valid) == _facts_by_recursion(t), t
            assert shared.setdefault(t.var_names, t.var_names) is t.var_names
            assert _REBUILD[type(t)](*_fields(t)) is t
            assert hash(t) == t.serial
            if isinstance(t, core.Sum):
                keys = [c.key for c in t.children]
                assert keys == sorted(keys), t


# -- the ordering kernel ------------------------------------------------------


def _unregistered(build, *args):
    """A kernel built under a test name, and its memo taken back out of the
    registry, which keeps the package's own caches only: (kernel, memo)."""
    kernel = build(*args, "test")
    return kernel, core.CACHES.pop("test")


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

    (compare, lt), memo = _unregistered(core.make_order, head, mod._check_pair)

    def assert_no_marker():
        answers = [v for row in memo.values() for v in row.values()]
        assert answers and not any(v is core._IN_PROGRESS for v in answers)

    # One decided answer, reached without `head`, so that every scan below
    # reads at least one entry.
    assert lt(ZERO, a)
    # The cycle is reached directly and through the shared sum and omega
    # clauses, whose sub-comparisons are in progress when it is found.
    for pair in ((a, b), (add(ONE, a), add(ONE, b)), (omega_pow(a), b)):
        outer.append((lt, pair))
        with pytest.raises(core.InvariantError, match="comparison cycle"):
            compare(*pair)
        assert_no_marker()
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
        assert_no_marker()
    # No marker was left behind, so the same pair now compares normally.
    outer.clear()
    want = core.Outcome.LESS if a.serial < b.serial else core.Outcome.GREATER
    assert compare(a, b) is want
    assert not lt(a, a)


@pytest.mark.parametrize("system", harness.SYSTEMS)
def test_warm_compare_reads_only_the_memo(system):
    mod = importlib.import_module(f"ordcalc.{system}")
    pool = closed(system, max_size=4, max_subscript=1)
    heads = []

    def head(x, y):
        heads.append((x, y))
        return x.key < y.key

    (compare, lt), memo = _unregistered(core.make_order, head, mod._check_pair)
    ref_compare, ref_lt, _ = R.make_reference(lambda x, y: x.key < y.key)
    # Every pair `lt` is called on, its recursion included.
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is lt.__code__:
            x, y = frame.f_locals["a"], frame.f_locals["b"]
            if x is not y:
                called.add((x, y))

    sys.setprofile(profile)
    try:
        cold = [compare(a, b) for a in pool for b in pool]
    finally:
        sys.setprofile(None)
    assert heads and cold == [ref_compare(a, b) for a in pool for b in pool]
    heads.clear()
    assert [compare(a, b) for a in pool for b in pool] == cold
    assert heads == []
    flat = {(sa, sb): v for sa, row in memo.items() for sb, v in row.items()}
    assert flat.keys() == {(x.serial, y.serial) for x, y in called}
    # A pair `compare` was called on holds its Outcome; any other pair holds
    # the bool that `lt` wrote.
    asked = {(a.serial, b.serial): ref_compare(a, b) for a in pool for b in pool if a is not b}
    for x, y in called:
        want = asked.get((x.serial, y.serial))
        assert flat[x.serial, y.serial] is (ref_lt(x, y) if want is None else want)


def test_only_a_stored_answer_skips_check():
    # Entries that internal `lt` calls write are bools: they never let a
    # pair skip `check`, for an invalid operand or a wrong-system one.
    a, bad, foreign = omega_idx(1), theta_idx(1, var_idx("x", 1)), omega_lev(0)
    assert not bad.valid
    for x, y, message in [
        (a, bad, "comparison requires valid terms"),
        (ZERO, foreign, "not a stratified-system term"),
    ]:
        B._lt(x, y)
        assert core.CACHES["buchholz.compare"][x.serial][y.serial].__class__ is bool
        with pytest.raises(core.PreconditionError, match=message):
            B.compare(x, y)
    # Only `compare`'s own answer, stored after `check` passed, does.
    calls = {"head": 0, "check": 0}

    def head(x, y):
        calls["head"] += 1
        return B._head_lt(x, y)

    def check(x, y):
        calls["check"] += 1
        B._check_pair(x, y)

    (compare, _), memo = _unregistered(core.make_order, head, check)
    pool = closed("buchholz", max_size=4, max_subscript=1)
    pairs = [(x, y) for x in pool for y in pool if x is not y]
    cold = [compare(x, y) for x, y in pairs]
    assert calls["check"] == len(pairs) and calls["head"] > 0
    assert cold == [R.buchholz_compare(x, y) for x, y in pairs]
    calls.update(head=0, check=0)
    assert [compare(x, y) for x, y in pairs] == cold
    assert calls == {"head": 0, "check": 0}
    # `lt` reads any entry that is not a bool as `entry is LESS`: heads give bools.
    memos = (memo, core.CACHES["buchholz.compare"])
    kinds = {v.__class__ for m in memos for row in m.values() for v in row.values()}
    assert kinds <= {bool, core.Outcome}


@pytest.mark.parametrize(
    "system, foreign, wording",
    [
        ("buchholz", omega_lev(0), "stratified"),
        ("poly", omega_idx(1), "polymorphic"),
        ("xi", omega_idx(1), "function-sorted"),
        ("mixed", omega_lev(0), "mixed"),
    ],
)
def test_a_foreign_term_is_refused_in_the_system_wording(system, foreign, wording):
    # The operand checks come from `core.system_checks`, one table of wordings.
    mod = importlib.import_module(f"ordcalc.{system}")
    calls = [lambda: mod.compare(foreign, ZERO), lambda: mod.compare(ZERO, foreign)]
    if system != "buchholz":
        calls += [
            lambda: mod.substitutable("x", 0, foreign),
            lambda: mod.substitute(foreign, "x", 0, ZERO),
            lambda: mod.substitute(ZERO, "x", 0, foreign),
        ]
    for call in calls:
        with pytest.raises(core.PreconditionError, match=f"is not a {wording}-system term"):
            call()
    if system == "buchholz":
        bad = theta_idx(1, var_idx("x", 1))
        with pytest.raises(core.PreconditionError, match="comparison requires valid terms"):
            mod.compare(ZERO, bad)


def test_reference_kernel_reports_an_antisymmetry_failure():
    compare, lt, leq = R.make_reference(lambda a, b: True)
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
            assert list(rest_a) == R.multiset_rest(a.children, b.children)
            assert list(rest_b) == R.multiset_rest(b.children, a.children)


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


# -- the set walks on deep nests ---------------------------------------------------


def _nest(wrap, leaf, depth):
    t = leaf
    for _ in range(depth):
        t = wrap(t)
    return t


# Each case walks a nest of `depth` levels that the walk descends through to
# its leaf, and returns (result, the leaf's contribution).  The collapse
# nests reach every walk's descent; the th_1, Xi^(0) and Xi nests reach the
# clauses that map the child's set on the way back.
_DEEP_WALKS = {
    "buchholz.fc": lambda d: (
        B.fc(_nest(lambda b: theta_idx(1, b), omega_idx(1), d)),
        (frozenset(), core.NEG_INF),
    ),
    "buchholz.kset": lambda d: (
        B.kset(2, _nest(lambda b: theta_idx(3, b), omega_idx(1), d)),
        {omega_idx(1)},
    ),
    "poly.fc": lambda d: (P.fc(0, _nest(theta, omega_lev(-d), d)), ({0}, 0)),
    "poly.kset": lambda d: (
        P.kset(0, _nest(theta, add(omega_lev(-d), omega_lev(-d - 1)), d)),
        {omega_lev(0)},
    ),
    "xi.fc": lambda d: (X.fc(0, _nest(theta, xi(-d, ZERO), d)), ({0}, 0)),
    "xi.fc Xi^(0)": lambda d: (X.fc(0, _nest(lambda b: xi(0, b), ONE, d)), ({0}, 0)),
    "xi.kset": lambda d: (
        X.kset(-1, _nest(theta, add(xi(-d, ZERO), xi(-d - 2, ZERO)), d)),
        {core.KItem(xi(0, ZERO))},
    ),
    "xi.kset strict": lambda d: (
        X._kset_strict(0, _nest(theta, add(xi(-d, ZERO), xi(-d - 1, ZERO)), d)),
        {core.KItem(xi(0, ZERO))},
    ),
    "mixed.fc": lambda d: (
        mixed.fc(mixed.FULL, _nest(theta_xi, omega_idx(1), d)),
        ({mixed.fin(1)}, mixed.fin(1)),
    ),
    "mixed.fc Xi": lambda d: (
        mixed.fc(mixed.FULL, _nest(lambda b: xi(0, b), ZERO, d)),
        ({mixed.large(0, 0)}, mixed.large(0, 0)),
    ),
    "mixed.kset_low": lambda d: (
        mixed.kset_low(1, _nest(lambda b: theta_low(2, b), theta_low(1, ZERO), d)),
        {theta_low(1, ZERO)},
    ),
    "mixed.kset_high": lambda d: (
        mixed.kset_high(
            mixed.large(0, 1),
            1,
            _nest(lambda b: theta_high(3, b), add(omega_high(0, 2), omega_idx(1)), d),
        ),
        {omega_idx(1)},
    ),
    "mixed.kset_xi": lambda d: (
        mixed.kset_xi(
            mixed.large(0, 0),
            _nest(lambda b: theta_high(3, b), add(omega_high(0, 2), omega_idx(1)), d),
        ),
        {core.KItem(omega_idx(1))},
    ),
}


@pytest.mark.parametrize("case", _DEEP_WALKS)
def test_set_walk_descends_a_deep_nest(case):
    """A nesting level costs a walk at most one stack frame, so a nest 200
    levels short of the recursion limit is walked without RecursionError."""
    got, want = _DEEP_WALKS[case](sys.getrecursionlimit() - 200)
    assert got == want


_WARM_WALKS = {
    "poly.kset": (P._kset_head, P._kset, (0, -1)),
    "mixed.fc": (mixed._fc_head, mixed._fc_set, (None,)),
}


@pytest.mark.parametrize("case", _WARM_WALKS)
def test_warm_set_walk_reads_only_the_memo(case):
    """A second pass at the same thresholds reads every answer from the
    memo, one row per threshold (the one row None of a threshold-free `fc`
    walk): no call to `head`, the same objects."""
    head, system_walk, args = _WARM_WALKS[case]
    pool = closed(case.split(".")[0], max_size=5)
    calls = []

    def counting_head(arg, t):
        calls.append((arg, t))
        return head(arg, t)

    walk, _ = _unregistered(core.make_walk, counting_head)
    cold = [walk(arg, t) for arg in args for t in pool]
    assert calls
    assert cold == [system_walk(arg, t) for arg in args for t in pool]
    calls.clear()
    warm = [walk(arg, t) for arg in args for t in pool]
    assert calls == []
    assert all(w is c for w, c in zip(warm, cold, strict=True))


# Each case runs a `kset*` walk on a collapse nest of `depth` levels, each of
# whose heads reads the level's top class: (module, name of the walk, its
# head, run).
_NEST_KSETS = {
    "poly.kset": (
        P,
        "_kset",
        P._kset_head,
        lambda d: P.kset(-1, _nest(theta, add(omega_lev(-d), omega_lev(-d - 2)), d)),
    ),
    "xi.kset": (
        X,
        "_kset",
        X._kset_head(False),
        lambda d: X.kset(-1, _nest(theta, add(xi(-d, ZERO), xi(-d - 2, ZERO)), d)),
    ),
    "mixed.kset_xi": (
        mixed,
        "_kset_xi",
        mixed._kset_xi_head,
        lambda d: mixed.kset_xi(
            mixed.large(-1, 0), _nest(theta_xi, add(xi(-d, ZERO), xi(-d - 2, ZERO)), d)
        ),
    ),
}


@pytest.mark.parametrize("case", _NEST_KSETS)
def test_kset_on_a_collapse_nest_makes_linear_head_calls(case, monkeypatch):
    """Doubling a collapse nest's depth at most doubles the head calls of the
    `kset*` walk and of the `fc` walk its heads read: each term has one
    formal-cardinality profile, so no level walks the rest of the nest again."""
    mod, walk_name, kset_head, run = _NEST_KSETS[case]

    def head_calls(depth):
        calls = []

        def counted(head):
            def counting_head(arg, t):
                calls.append(t)
                return head(arg, t)

            return _unregistered(core.make_walk, counting_head)[0]

        # fresh memos for each nest
        monkeypatch.setattr(mod, walk_name, counted(kset_head))
        monkeypatch.setattr(mod, "_fc_set", counted(mod._fc_head))
        run(depth)
        return len(calls)

    small, large = head_calls(40), head_calls(80)
    assert 0 < large <= 2 * small


_CARD_GRID = [mixed.large(j, m) for j in (1, 0, -1, -2) for m in (0, 1, 2, mixed.INF)]


@pytest.mark.parametrize("system", ["poly", "xi", "mixed"])
def test_fc_agrees_with_the_reference_walk(system):
    """Each threshold's reading of the memoized profile, and `fc_max`, equal
    the reference walk, which tables one row per threshold it reaches."""
    mod = importlib.import_module(f"ordcalc.{system}")
    ref_fc_at = getattr(R, f"_{system}_fc_at")
    if system == "mixed":
        thresholds, top = _CARD_GRID, mixed.FULL
    else:
        thresholds, top = range(0, -4, -1), 0
    pools = [closed(system), opened(system)]
    if system == "xi":
        pools.append(harness.enumerate_terms(_XI_FVARS))
    for pool in pools:
        for t in pool:
            for j in thresholds:
                assert mod.fc(j, t)[0] == ref_fc_at(j, t), (t, j)
            assert mod.fc_max(t) == mod.fc(top, t)[1], t


# -- the level maps on deep nests --------------------------------------------------


def _xi0(b):
    return xi(0, b)


# Each case runs a public level map, or `subterms`, on a collapse, Xi^(0) or
# function-variable nest of `depth` levels with the variable (or the
# parameter) at its leaf, and returns (result, expected result).
_DEEP_MAPS = {
    "buchholz.substitute": lambda d: (
        B.substitute(_nest(lambda b: theta_idx(2, b), var_idx("x", 1), d), "x", 1, ZERO),
        _nest(lambda b: theta_idx(2, b), ZERO, d),
    ),
    "poly.substitute": lambda d: (
        P.substitute(_nest(theta, var_lev("x", -d), d), "x", 0, omega_lev(0)),
        _nest(theta, omega_lev(-d), d),
    ),
    "poly.substitutable": lambda d: (
        P.substitutable("x", 0, _nest(theta, var_lev("x", -d), d)),
        True,
    ),
    "poly.shift": lambda d: (
        P.shift(_nest(theta, omega_lev(-d), d), 0, -1),
        _nest(theta, omega_lev(-d - 1), d),
    ),
    "xi.substitute": lambda d: (
        X.substitute(_nest(_xi0, var_lev("x", 0), d), "x", 0, ONE),
        _nest(_xi0, ONE, d),
    ),
    "xi.substitutable": lambda d: (
        X.substitutable("x", 0, _nest(theta, var_lev("x", -d), d)),
        True,
    ),
    "xi.shift": lambda d: (
        X.shift(_nest(theta, xi(-d, ZERO), d), 0, -1),
        _nest(theta, xi(-d - 1, ZERO), d),
    ),
    "xi.fsubstitute": lambda d: (
        X.fsubstitute(_nest(_xi0, fvar("X", 0, ZERO), d), "X", 0, _xi0(var_lev("w", 0)), "w"),
        _nest(_xi0, _xi0(ZERO), d),
    ),
    "xi.fsubstitute.nested": lambda d: (
        X.fsubstitute(
            _nest(lambda b: fvar("X", 0, b), ZERO, d), "X", 0, _xi0(var_lev("w", 0)), "w"
        ),
        _nest(_xi0, ZERO, d),
    ),
    "xi.fsubstitutable": lambda d: (
        X.fsubstitutable("X", 0, _nest(_xi0, fvar("X", 0, ZERO), d)),
        True,
    ),
    "xi.abstract": lambda d: (
        X.abstract(_nest(theta, xi(-d, ONE), d)),
        X.Abstraction(_nest(theta, var_lev("p1", -d), d), ("p1",), (xi(0, ONE),)),
    ),
    "mixed.substitute": lambda d: (
        mixed.substitute(_nest(theta_xi, var_lev("x", -d), d), "x", 0, xi(0, ZERO)),
        _nest(theta_xi, xi(-d, ZERO), d),
    ),
    "mixed.substitutable": lambda d: (
        mixed.substitutable("x", 0, _nest(theta_xi, var_lev("x", -d), d)),
        True,
    ),
    "mixed.shift": lambda d: (
        mixed.shift(_nest(theta_xi, var_lev("x", -d), d), mixed.FULL, -1),
        _nest(theta_xi, var_lev("x", -d - 1), d),
    ),
    "mixed.shift.thOO": lambda d: (
        mixed.shift(_nest(lambda b: theta_high(1, b), var_lev("x", 0), d), mixed.FULL, -1),
        _nest(lambda b: theta_high(1, b), var_lev("x", -1), d),
    ),
    "mixed.shift.thXi_Xi": lambda d: (
        mixed.shift(_nest(lambda b: theta_xi(xi(0, b)), var_lev("x", -d), d), mixed.FULL, -1),
        _nest(lambda b: theta_xi(xi(0, b)), var_lev("x", -d - 1), d),
    ),
    "core.subterms": lambda d: (
        [type(s) for s in subterms(_nest(_xi0, var_lev("x", 0), d))],
        [core.Xi] * d + [core.VarLev],
    ),
}


@pytest.mark.parametrize("case", _DEEP_MAPS)
def test_level_map_descends_a_deep_nest(case):
    """A nesting level costs a level map no stack frame, so a nest three
    times the recursion limit deep is mapped without RecursionError."""
    got, want = _DEEP_MAPS[case](3 * sys.getrecursionlimit())
    assert got == want


def test_level_map_keeps_an_unchanged_wide_sum():
    t = sum_of([omega_lev(-k) for k in range(2000)])
    old, new = omega_lev(-7), omega_lev(-2000)

    def head(s, j):
        if s is old:
            return new
        return None if type(s) is core.Sum else s

    keep = core.make_level_walk(lambda s, j: None if type(s) is core.Sum else s)
    assert keep(t, 0) is t
    out = core.make_level_walk(head)(t, 0)
    assert len(out.children) == 2000
    assert set(out.children) ^ set(t.children) == {old, new}


def test_level_walk_follows_a_head_descent():
    """A head's `(j1, child, then)` descent has `then` applied once per level
    on the way up, and a predicate head's `(j1, child)` descent is followed
    at the level it names."""
    depth = 3 * sys.getrecursionlimit()
    nest = _nest(theta, ZERO, depth)
    levels = []

    def count_above(j):
        def then(out):
            levels.append(j)
            return out + 1

        return then

    def count_head(t, j):
        if type(t) is core.Theta:
            return j + 1, t.body, count_above(j)
        return 0

    assert core.make_level_walk(count_head)(nest, 0) == depth
    assert levels == list(range(depth - 1, -1, -1))

    def deep_head(t, j):
        if type(t) is core.Theta:
            return j - 2, t.body
        return j == -2 * depth

    assert core.make_level_walk(deep_head, test=True)(nest, 0) is True
    assert core.make_level_walk(deep_head, test=True)(theta(nest), 1) is False


# -- the level-walk memos ---------------------------------------------------------


def _memo_pool(system, extra):
    """A seeded sample of the system's `ORDER_BUDGETS` universe, plus `extra`."""
    terms = harness.enumerate_terms(harness.ORDER_BUDGETS[system])
    return random.Random(f"memo:{system}").sample(terms, 300) + list(extra)


# Each memoized level walk: (module walk, head, test, pool, argument tuples after t).
# The pools add the Key Lemma runs' open pools (mixed has no Key Lemma suite).
_MEMO_WALKS = {
    "core.substitutable": lambda: (
        core.substitutable,
        core._substitutable_head,
        True,
        _memo_pool("poly", harness._kl_pools_poly()[1])
        + _memo_pool("xi", harness._kl_pools_xi()[2])
        + _memo_pool("mixed", opened("mixed")),
        [(j, "x") for j in (0, -1, -2)],
    ),
    "xi._fsubstitutable": lambda: (
        X._fsubstitutable,
        X._fsubstitutable_head,
        True,
        _memo_pool("xi", harness._kl_pools_xi()[3]),
        [(j, "X") for j in (0, -1)],
    ),
    "poly._shift": lambda: (
        P._shift,
        P._shift_head,
        False,
        _memo_pool("poly", harness._kl_pools_poly()[1]),
        [(j, d) for j in (0, -1) for d in (-1, 1, 2)],
    ),
    "xi._shift": lambda: (
        X._shift,
        X._shift_head,
        False,
        _memo_pool("xi", harness._kl_pools_xi()[2] + harness._kl_pools_xi()[3]),
        [(j, d) for j in (0, -1) for d in (-1, 1, 2)],
    ),
}


def _answer(walk, t, args):
    try:
        return walk(t, *args)
    except core.ShiftError:
        return core.ShiftError


@pytest.mark.parametrize("case", _MEMO_WALKS)
def test_memoized_level_walk_matches_a_plain_kernel(case):
    """A memoized walk, cold and then warm, returns the very object that the
    same head returns through an unmemoized kernel, or raises as it does.
    The module memo is emptied first, so the cold pass computes each answer
    and the warm pass reads it."""
    walk, head, test, pool, arg_tuples = _MEMO_WALKS[case]()
    registered = dict(core.CACHES)
    plain = core.make_level_walk(head, test)
    assert core.CACHES == registered  # an unmemoized walk registers nothing
    memo = core.CACHES[case]
    memo.clear()
    for warm in (False, True):
        for t in pool:
            for args in arg_tuples:
                want = _answer(plain, t, args)
                if warm:  # stored by the cold pass, unless it raised
                    assert (t.serial in memo[args]) is (want is not core.ShiftError)
                assert _answer(walk, t, args) is want, (t, args)


def test_the_reference_reads_no_level_walk_memo():
    """The reference orders and critical-set walks shift and substitute
    through unmemoized twins: with every cache emptied, they leave each
    level-walk memo empty."""
    core.clear_caches()
    for system in ("poly", "xi"):
        kset, compare = getattr(R, f"{system}_kset"), getattr(R, f"{system}_compare")
        for t in _memo_pool(system, opened(system)):
            kset(0, t)
            kset(-1, t)
        for a, b in itertools.pairwise(_memo_pool(system, ())):
            compare(a, b)
    for t in _memo_pool("mixed", opened("mixed")):
        R.mixed_kset_high(mixed.large(0, 1), 1, t)
        R.mixed_kset_xi(mixed.large(0, 0), t)
    for a, b in itertools.pairwise(_memo_pool("mixed", ())):
        R.mixed_compare(a, b)
    sizes = core.cache_sizes()
    assert [sizes[name] for name in _MEMO_WALKS] == [0] * len(_MEMO_WALKS)


def test_a_shift_error_raises_again_and_is_not_stored():
    """A raised `ShiftError` leaves no memo entry, at the raising sum child or
    above it, so the same call raises again."""
    cases = [  # (walk, its name, the raising child, a child that shifts, arguments)
        (P._shift, "poly._shift", theta(omega_lev(-1)), omega_lev(-3), (0, 1)),
        (X._shift, "xi._shift", theta(xi(-1, ZERO)), xi(-3, ZERO), (0, 1)),
    ]
    for walk, name, bad, good, args in cases:
        t = add(bad, good)
        for _ in range(2):
            with pytest.raises(core.ShiftError):
                walk(t, *args)
            with pytest.raises(core.ShiftError):
                walk(bad, *args)
        row = core.CACHES[name].get(args, {})
        assert t.serial not in row and bad.serial not in row
        assert walk(good, *args) is not good


def test_equal_walk_results_are_one_object():
    """Every set a set walk stores passes through one shared table, as the
    terms' variable-name sets do: equal results are one object."""
    results = []
    for t in closed("buchholz") + opened("buchholz"):
        results += [B._fc_set(None, t)] + [B._kset(n, t) for n in (1, 2, 3)]
    for mod in (P, X):
        for t in closed(mod.__name__.rpartition(".")[2]):
            results += [mod._fc_set(None, t)] + [mod._kset(j, t) for j in (0, -1)]
    for t in closed("xi"):
        results.append(X._kset_strict(0, t))
    for t in closed("mixed") + opened("mixed"):
        results += [mixed._fc_set(None, t), mixed._kset_xi(mixed.large(0, 0), t)]
        for n in (1, 2):
            results += [mixed._kset_low(n, t), mixed._kset_high((mixed.large(0, n), n), t)]
    results += [t.var_names for t in opened("poly") + opened("mixed")]
    shared: dict = {}
    for r in results:
        assert shared.setdefault(r, r) is r, r
    assert len(shared) < len(results) // 4  # many results repeat a value


def test_variable_free_fast_paths_match_a_full_scan():
    """`vars_below_top` and `_mentions_var_lev` answer a term without
    variables, or without function variables, from its cached names."""
    for pool in (opened("poly"), opened("xi"), harness.enumerate_terms(_XI_FVARS)):
        for t in pool:
            subs = list(subterms(t))
            levs = {s.name for s in subs if type(s) is core.VarLev}
            assert lemmas.vars_below_top(t) == (
                all(core.substitutable(t, 0, name) for name in t.var_names)
                and not any(type(s) is core.VarLev and s.level == 0 for s in subs)
            ), t
            for name in t.var_names | {"x"}:
                assert harness._mentions_var_lev(t, name) == (name in levs), (t, name)


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


@pytest.mark.parametrize("system", harness.SYSTEMS)
def test_head_rule_matches_reference_head(system):
    """The type-dispatched head rule decides every ordered pair of a sample
    of heads as the reference's `match` coding does."""
    mod = importlib.import_module(f"ordcalc.{system}")
    ref_head_lt = getattr(R, f"_{system}_head_lt")
    # mixed's reference walks its critical sets unmemoized: a smaller sample
    heads = _head_sample(opened(system), per_head=30 if system == "mixed" else 60)
    if system == "xi":
        heads += _head_sample(harness.enumerate_terms(_XI_FVARS), per_head=40)
    head_types = {"buchholz": 3, "poly": 3, "xi": 4, "mixed": 7}[system]
    assert len({type(t) for t in heads}) == head_types
    for a in heads:
        for b in heads:
            assert mod._head_lt(a, b) is ref_head_lt(a, b), (a, b)


# -- per-serial head facts of xi and mixed ---------------------------------------


def _params_by_walk(t):
    found = set()
    core.collect_params(t, 0, found)
    return tuple(sorted(found, key=lambda p: p.key))


_FACT_TABLES = ("core._PARAMS", "xi._TOP", "mixed._FAMILY")


def _check_fact_tables(pools):
    """Every table entry of a term in the pools, or of one of its subterms,
    equals a fresh computation."""
    by_serial = {s.serial: s for pool in pools for t in pool for s in subterms(t)}
    params_table, top_table, family_table = (core.CACHES[name] for name in _FACT_TABLES)
    checked = 0
    for serial, t in by_serial.items():
        if serial in params_table:
            params = params_table[serial]
            assert params == _params_by_walk(t), t
            ref = R._params(t)  # xi's and mixed's reference read one copy
            assert set(params) == set(ref), t
            checked += 1
        if serial in top_table:
            assert top_table[serial] == max(R._xi_fc_at(0, t), default=core.NEG_INF), t
            checked += 1
        family = family_table.get(serial)
        if family is None:
            continue
        checked += 1
        match t:
            case core.ThetaLow(n, body):
                walk = mixed._kset_low(n, body)
                ref = R.mixed_kset_low(n, body)
            case core.ThetaHigh(n, body):
                walk = mixed._kset_high((mixed.large(0, n), n), body)
                ref = R.mixed_kset_high(mixed.large(0, n), n, body)
            case core.ThetaXi(body):
                walk = mixed._kset_xi(mixed.large(0, 0), body)
                ref = R.mixed_kset_xi(mixed.large(0, 0), body)
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


def test_fact_tables_agree_with_a_fresh_walk():
    pools = list(_acceptance_pools())
    _warm_fact_tables(pools)
    # `compare`, reading the warm tables, gives the reference's decision on
    # seeded pairs of each system's order universe.
    for system in ("xi", "mixed"):
        mod = importlib.import_module(f"ordcalc.{system}")
        terms = harness.enumerate_terms(harness.ORDER_BUDGETS[system])
        rng = random.Random(2)
        for _ in range(3000):
            a, b = rng.choice(terms), rng.choice(terms)
            assert mod.compare(a, b) is getattr(R, f"{system}_compare")(a, b), (a, b)
    sizes = core.cache_sizes()
    assert all(sizes[name] for name in _FACT_TABLES)
    _check_fact_tables(pools)


def test_reference_reads_no_fact_table():
    # The oracle must stay independent of the tables it checks: with every
    # cache empty, reference comparisons and walks fill no fact table.  The
    # reference tables are emptied too, so every reference walk runs.
    core.clear_caches()
    for system, compare in (("xi", R.xi_compare), ("mixed", R.mixed_compare)):
        terms = harness.enumerate_terms(harness.ORDER_BUDGETS[system])
        rng = random.Random(4)
        for _ in range(500):
            compare(rng.choice(terms), rng.choice(terms))
        for t in rng.sample(terms, 200):
            if system == "xi":
                R.xi_kset(0, t)
            else:
                R.mixed_kset_xi(mixed.FULL, t)
    sizes = core.cache_sizes()
    assert not any(sizes[name] for name in _FACT_TABLES)


def _memoized_walks(system, t):
    """Every memoized critical-set and formal-cardinality walk on t."""
    if system == "buchholz":
        B.fc(t)
        for n in (1, 2, 3):
            B.kset(n, t)
    elif system in ("poly", "xi"):
        mod = P if system == "poly" else X
        mod.fc(0, t)
        for j in (0, -1):
            mod.kset(j, t)
        if system == "xi":
            X._kset_strict(0, t)  # the strict walk `llrel` reads
    else:
        mixed.fc(mixed.FULL, t)
        for n in (1, 2):
            mixed.kset_low(n, t)
            mixed.kset_high(mixed.large(0, n), n, t)
        mixed.kset_xi(mixed.large(0, 0), t)


_MEMOIZED_WALK_HEADS = {  # module walk name -> its head, per system
    "buchholz": {"_fc_set": B._fc_head, "_kset": B._kset_head},
    "poly": {"_fc_set": P._fc_head, "_kset": P._kset_head},
    "xi": {
        "_fc_set": X._fc_head,
        "_kset": X._kset_head(False),
        "_kset_strict": X._kset_head(True),
    },
    "mixed": {
        "_fc_set": mixed._fc_head,
        "_kset_low": mixed._kset_low_head,
        "_kset_high": mixed._kset_high_head,
        "_kset_xi": mixed._kset_xi_head,
    },
}


def test_memoized_paths_read_no_reference_table(monkeypatch):
    # The mirror of the test above: with every reference table empty, the
    # memoized comparisons and walks fill none of them.  Each walk is rebuilt
    # over counting heads and every cache starts empty, so the memoized
    # heads run rather than answer from what earlier tests left.
    assert sorted(n for n in core.CACHES if n.startswith("reference.")) == REFERENCE_CACHES
    core.clear_caches()
    calls = {}

    def counted(key, head):
        def counting_head(arg, t):
            calls[key] += 1
            return head(arg, t)

        calls[key] = 0
        return _unregistered(core.make_walk, counting_head)[0]

    for system in harness.SYSTEMS:
        mod = importlib.import_module(f"ordcalc.{system}")
        for name, head in _MEMOIZED_WALK_HEADS[system].items():
            monkeypatch.setattr(mod, name, counted(f"{system}.{name}", head))
        terms = harness.enumerate_terms(harness.ORDER_BUDGETS[system])
        rng = random.Random(4)
        for _ in range(500):
            mod.compare(rng.choice(terms), rng.choice(terms))
        for t in rng.sample(terms, 200):
            _memoized_walks(system, t)
    assert all(calls.values()), calls
    sizes = core.cache_sizes()
    assert not any(sizes[name] for name in REFERENCE_CACHES)


# Each case runs a reference critical-set walk and its memoized twin on a
# collapse nest of the given depth that both descend to the leaf.
_DEEP_REFERENCE_WALKS = {
    "buchholz": lambda d: (
        (R.buchholz_kset, B.kset),
        (1, _nest(lambda b: theta_idx(2, b), omega_idx(1), d)),
    ),
    "poly": lambda d: (
        (R.poly_kset, P.kset),
        (-1, _nest(theta, add(omega_lev(-d), omega_lev(-d - 2)), d)),
    ),
    "xi": lambda d: (
        (R.xi_kset, X.kset),
        (-1, _nest(theta, add(xi(-d, ZERO), xi(-d - 2, ZERO)), d)),
    ),
    "mixed": lambda d: (
        (R.mixed_kset_low, mixed.kset_low),
        (1, _nest(lambda b: theta_high(1, b), omega_idx(2), d)),
    ),
}


@pytest.mark.parametrize("system", harness.SYSTEMS)
def test_reference_walk_descends_an_800_level_nest(system):
    """`reference.reference_walk` follows a head's descent after the head has
    returned, so a nesting level costs one stack frame: an 800-level nest
    is walked from empty tables at the default recursion limit."""
    assert sys.getrecursionlimit() == 1000
    (reference, memoized), (arg, t) = _DEEP_REFERENCE_WALKS[system](800)
    core.clear_caches()
    assert reference(arg, t) == memoized(arg, t)


@pytest.mark.parametrize("system", harness.SYSTEMS)
def test_reference_tables_cleared_give_the_same_outcomes(system):
    compare = getattr(R, f"{system}_compare")
    terms = harness.enumerate_terms(harness.ORDER_BUDGETS[system])

    def outcomes():
        rng = random.Random(6)
        pairs = [(rng.choice(terms), rng.choice(terms)) for _ in range(3000)]
        return [compare(a, b) for a, b in pairs]

    first = outcomes()
    core.clear_caches()
    assert outcomes() == first  # from empty tables
    assert outcomes() == first  # from the tables that run filled


# -- the moved names on the system modules ---------------------------------------------

# The `*_reference` names the benchmark in `perfbench/` reads off each system
# module, by their stems; each resolves to `reference.<system>_<stem>`.
_FORWARDED = {
    "buchholz": ("compare", "kset"),
    "poly": ("compare", "kset"),
    "xi": ("compare", "kset"),
    "mixed": ("compare", "kset_low", "kset_high", "kset_xi"),
}
# The dominance and Key Lemma names it reads there; each resolves to
# `lemmas.<system>_<name>`.
_LEMMA_NAMES = {
    "buchholz": ("dfun", "llrel", "key_lemma_1", "key_lemma_2", "key_lemma_3"),
    "poly": ("dfun", "llrel", "key_lemma_1", "key_lemma_2", "key_lemma_3"),
    "xi": ("dfun", "llrel", "key_lemma_1", "key_lemma_2", "key_lemma_3", "key_lemma_4"),
    "mixed": (),
}


@pytest.mark.parametrize("system", harness.SYSTEMS)
def test_a_system_module_forwards_only_its_oracle_names(system):
    mod = importlib.import_module(f"ordcalc.{system}")
    for stem in _FORWARDED[system]:
        assert getattr(mod, f"{stem}_reference") is getattr(R, f"{system}_{stem}")
    for stem in {"kset", "kset_low", "kset_high", "kset_xi"} - set(_FORWARDED[system]):
        assert not hasattr(mod, f"{stem}_reference")
    assert not hasattr(mod, "make_reference") and not hasattr(mod, "poly_compare")
    assert not any(name.endswith("_reference") for name in mod.__all__)


@pytest.mark.parametrize("system", harness.SYSTEMS)
def test_a_system_module_forwards_only_its_lemma_names(system):
    mod = importlib.import_module(f"ordcalc.{system}")
    for name in _LEMMA_NAMES[system]:
        assert getattr(mod, name) is getattr(lemmas, f"{system}_{name}")
        assert name not in mod.__all__ and name not in vars(mod)
    absent = {"dfun", "llrel", *(f"key_lemma_{i}" for i in range(1, 5))} - set(_LEMMA_NAMES[system])
    assert not any(hasattr(mod, name) for name in absent)
    assert not hasattr(mod, "vars_below_top") and not hasattr(mod, "poly_dfun")


def test_a_missing_name_on_a_system_module_loads_no_oracle():
    # The benchmark's layer map asks every system for the Key Lemma operations
    # it may lack, such as buchholz's `shift` and mixed's `dfun`.
    assert not hasattr(B, "kset_low_reference") and not hasattr(B, "shift")
    code = (
        "import sys; from ordcalc import buchholz, mixed, poly\n"
        "assert not hasattr(buchholz, 'shift') and not hasattr(mixed, 'dfun')\n"
        "assert not hasattr(poly, 'key_lemma_4') and not hasattr(mixed, 'key_lemma_1')\n"
        "print(sorted({'ordcalc.reference', 'ordcalc.lemmas'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(core.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# -- the cache registry -------------------------------------------------------------


def test_cache_sizes_count_the_entries_of_every_row():
    compare = core.make_order(B._head_lt, B._check_pair, "test")[0]
    try:
        a, b, c = omega_idx(1), omega_idx(2), omega_idx(3)
        for x, y in ((a, b), (a, c), (b, c)):
            compare(x, y)
        assert len(core.CACHES["test"]) == 2 and core.cache_sizes()["test"] == 3
    finally:
        del core.CACHES["test"]
