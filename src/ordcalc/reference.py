"""The reference order: each system's oracle, the plain-recursion coding of
its order and critical sets that the harness checks the memoized path
against.  Only an oracle check, or a forwarded name (`core.reference_attr`),
loads it.

`make_reference` builds a system's reference order from its head rule: the
sum and omega-power clauses of `core.make_order` written a second time in
plain recursion, sharing no code with it, with no memo and no cycle guard.
`reference_walk`, the plain-recursion twin of `core.make_walk`, runs the
reference critical-set and profile walks on the same head contract: it
decides sums and omega powers itself, tables every level in its own
registered table, and follows a head's descent by calling itself, one stack
frame per level.  Each system's section supplies its head rule and the
heads of its set walks; a name carries its system as a prefix.

The oracle shares with the memoized path only the code imported below
after the term surface: the parameter walk, poly's and xi's shift heads
(run through unmemoized level walks, so the oracle reads no memo of the
side it checks), xi's substitution kernel and operand check, the
abstraction of a bound collapse, and mixed's shift, instantiation,
collapse classes and cardinality arithmetic.
"""

from __future__ import annotations

from collections import Counter, defaultdict

# The term surface: classes, constructors, errors, constants and the registry.
from .core import (
    CACHES, NEG_INF, ZERO, FVar, InvariantError, KItem, OmegaHigh, OmegaIdx, OmegaLev,
    OmegaPow, Outcome, ShiftError, Sum, Term, Theta, ThetaHigh, ThetaIdx, ThetaLow,
    ThetaXi, VarIdx, VarLev, Xi, fvar, omega_high, omega_lev, var_lev, xi as mk_xi,
)
# The shared code, each entry named with its reason in tests/test_source_rules.py.
from .core import collect_params, make_level_walk, make_substitution, system_checks
from .mixed import (
    CARD_NEG_INF, FULL, MCard, _COLLAPSES, card_min_nat, card_minus_level, fin, large,
    level_minus_card, _bound_collapse_item as _mixed_bound_collapse_item,
    _shift as _mixed_shift, instantiate as _mixed_instantiate,
)
from .poly import _shift_head as _poly_shift_head
from .xi import _bound_collapse_item as _xi_bound_collapse_item, _shift_head as _xi_shift_head


# -- the kernels ----------------------------------------------------------------

def multiset_rest(xs, ys):
    """Components of xs left after cancelling common elements with ys; the
    reference's multiset difference, apart from the kernel's `_sum_rests`."""
    rest = Counter(xs) - Counter(ys)
    return list(rest.elements())


def make_reference(head):
    """Build one system's unmemoized reference order from its head rule.

    The plain-recursion twin of `make_order`, kept a separate
    implementation so that the oracle check compares two codings of the
    sum and omega-power clauses: no memo, no cycle guard, and `head(a, b)`
    decides a < b only for two strongly critical terms, reading the tabled
    reference critical sets.  Returns `(compare, lt, leq)`; `compare`
    raises InvariantError when both a < b and b < a hold.
    """

    def compare(a: Term, b: Term) -> Outcome:
        if a is b:
            return Outcome.EQUAL
        lt_ab = lt(a, b)
        lt_ba = lt(b, a)
        if lt_ab and lt_ba:
            raise InvariantError(f"ordering is not antisymmetric on {a!r}, {b!r}")
        if lt_ab:
            return Outcome.LESS
        if lt_ba:
            return Outcome.GREATER
        return Outcome.INCOMPARABLE

    def leq(a, b):
        return a == b or lt(a, b)

    def lt(a: Term, b: Term) -> bool:
        if a == b:
            return False
        match a, b:
            case (Sum(xs), Sum(ys)):
                rest_a = multiset_rest(xs, ys)
                rest_b = multiset_rest(ys, xs)
                return any(all(lt(x, y0) for x in rest_a) for y0 in rest_b)
            case (_, Sum(ys)):
                return any(leq(a, y) for y in ys)
            case (Sum(xs), _):
                return all(lt(x, b) for x in xs)
            case (OmegaPow(x), OmegaPow(y)):
                return lt(x, y)
            case (OmegaPow(x), _):
                return leq(x, b)
            case (_, OmegaPow(y)):
                return lt(a, y)
        return head(a, b)

    return compare, lt, leq


def reference_walk(head, name):
    """Build one tabled reference set walk from its head clauses.

    The plain-recursion twin of `make_walk`, sharing no code with it,
    `make_order` or the fact tables.  `walk(arg, t)` keeps its own table,
    `table[arg][t.serial]`, registered as `name`: the oracle's cache,
    filled by this walk only.  It decides a sum (the union of its
    children's sets) and an omega power (its exponent's set) itself and
    asks `head(arg, t)` for every other term, under `make_walk`'s head
    contract: the set, or a descent `(arg1, child)` or `(arg1, child, then)`
    that the walk follows by calling itself once the head has returned, so
    each level costs one stack frame.
    """
    table = CACHES[name] = defaultdict(dict)

    def walk(arg, t: Term) -> frozenset:
        row = table[arg]
        out = row.get(t.serial)
        if out is None:
            tt = type(t)
            if tt is Sum:
                parts = []
                for c in t.children:
                    parts.append(walk(arg, c))
                out = frozenset().union(*parts)
            elif tt is OmegaPow:
                out = walk(arg, t.exponent)
            else:
                out = head(arg, t)
                if type(out) is tuple:
                    below = walk(out[0], out[1])
                    out = out[2](below) if len(out) == 3 else below
            row[t.serial] = out
        return out

    return walk


def _params(t: Term) -> tuple[Term, ...]:
    """The parameters of t, key-sorted, collected afresh (xi and mixed)."""
    found: set = set()
    collect_params(t, 0, found)
    return tuple(sorted(found, key=lambda p: p.key))


# -- buchholz ---------------------------------------------------------------------

def _buchholz_kset_head(n: int, t: Term) -> frozenset[Term]:
    match t:
        case OmegaIdx(m):
            return frozenset({t}) if m < n else frozenset()
        case ThetaIdx(m, body):
            if n < m:
                return n, body
            return frozenset({t})
        case VarIdx(_, m):
            return frozenset({t}) if m < n else frozenset()
    raise InvariantError(f"not a stratified term: {t!r}")


def _buchholz_head_lt(a: Term, b: Term) -> bool:
    match a, b:
        case (OmegaIdx(m), OmegaIdx(n)):
            return m < n
        case (OmegaIdx(_) | VarIdx(_, _), ThetaIdx(n, beta)):
            return any(_buchholz_leq(a, g) for g in buchholz_kset(n, beta))
        case (ThetaIdx(m, alpha), OmegaIdx(_)):
            return all(_buchholz_lt(g, b) for g in buchholz_kset(m, alpha))
        case (ThetaIdx(_, _), VarIdx(_, _)):
            return False
        case (ThetaIdx(m, alpha), ThetaIdx(n, beta)):
            if any(_buchholz_leq(a, g) for g in buchholz_kset(n, beta)):
                return True
            return all(
                _buchholz_lt(g, b) for g in buchholz_kset(m, alpha)
            ) and (m < n or (m == n and _buchholz_lt(alpha, beta)))
        case (VarIdx(_, n), OmegaIdx(m)):
            return n <= m
        case (VarIdx(_, _), VarIdx(_, _)):
            return False
    return False


buchholz_kset = reference_walk(_buchholz_kset_head, "reference.buchholz_kset")
buchholz_compare, _buchholz_lt, _buchholz_leq = make_reference(_buchholz_head_lt)


# -- poly -------------------------------------------------------------------------

_poly_shift = make_level_walk(_poly_shift_head)


def _poly_fc_head(j: int, t: Term):
    match t:
        case OmegaLev(j1) | VarLev(_, j1):
            return frozenset({j1 - j}) if j1 <= j else frozenset()
        case Theta(body):
            return j - 1, body
    raise InvariantError(f"not a polymorphic term: {t!r}")


def _poly_kset_head(j: int, t: Term) -> frozenset[Term]:
    """Reads a collapse's class at level 0 from `_poly_fc_at(0, t)`: the
    oracle must not read the memoized `fc`, and a walk at threshold j keeps
    no class above j.  So each level of an n-deep collapse nest walks the
    rest at thresholds new to the table, which keeps about n*n/2 rows."""
    match t:
        case OmegaLev(j1):
            return frozenset({omega_lev(j1 - (j - 1))}) if j1 < j else frozenset()
        case Theta(body):
            values = _poly_fc_at(0, t)
            top = max(values) if values else NEG_INF
            if top < j:
                return frozenset({_poly_shift(t, 0, 1 - j)})
            return j - 1, body
        case VarLev(name, j1):
            return frozenset({var_lev(name, j1 - (j - 1))}) if j1 < j else frozenset()
    raise InvariantError(f"not a polymorphic term: {t!r}")


def _poly_head_lt(a: Term, b: Term) -> bool:
    match a, b:
        case (OmegaLev(j), OmegaLev(j1)):
            return j < j1
        case (OmegaLev(_) | VarLev(_, _), Theta(beta)):
            return any(_poly_leq(a, g) for g in poly_kset(0, beta))
        case (Theta(alpha), OmegaLev(_)):
            return all(_poly_lt(g, b) for g in poly_kset(0, alpha))
        case (Theta(_), VarLev(_, _)):
            return False
        case (Theta(alpha), Theta(beta)):
            if _poly_lt(alpha, beta):
                return all(_poly_lt(g, b) for g in poly_kset(0, alpha))
            if _poly_lt(beta, alpha):
                return any(_poly_leq(a, g) for g in poly_kset(0, beta))
            return False
        case (VarLev(_, j), OmegaLev(j1)):
            return j <= j1
        case (VarLev(_, _), VarLev(_, _)):
            return False
    return False


_poly_fc_at = reference_walk(_poly_fc_head, "reference._poly_fc_at")
poly_kset = reference_walk(_poly_kset_head, "reference.poly_kset")
poly_compare, _poly_lt, _poly_leq = make_reference(_poly_head_lt)


# -- xi ---------------------------------------------------------------------------

_xi_shift = make_level_walk(_xi_shift_head)
_xi_subst = make_substitution(system_checks("xi")[0], lambda beta, j: _xi_shift(beta, 0, j))[2]


def _xi_instantiate(item: KItem, value: Term) -> Term:
    return item.term if item.var is None else _xi_subst(item.term, 0, item.var, value)


def _xi_fc_head(j: int, t: Term):
    match t:
        case Xi(j1, arg) | FVar(_, j1, arg):
            if j1 > j:
                return j - j1, arg
            rel = j1 - j
            # a function variable sits one class below its cardinal
            own = frozenset({rel - 1 if type(t) is FVar else rel})
            return 0, arg, lambda below: own | frozenset(x + rel for x in below)
        case Theta(body):
            return j - 1, body
        case VarLev(_, j1):
            return frozenset({j1 - j - 1}) if j1 <= j else frozenset()
    raise InvariantError(f"not a function-sorted term: {t!r}")


def _xi_kset_head(j: int, t: Term) -> frozenset[KItem]:
    """Reads a collapse's class at level 0 as poly's head does, from
    `_xi_fc_at(0, t)` and not the memoized `fc`, and so keeps about n*n/2
    table rows on an n-deep collapse nest."""
    match t:
        case Xi(j1, arg):
            if j1 < j:
                return frozenset({KItem(mk_xi(j1 - (j - 1), arg))})
            return j - j1, arg
        case Theta(body):
            values = _xi_fc_at(0, t)
            top = max(values) if values else NEG_INF
            if top <= j:
                return frozenset({_xi_bound_collapse_item(t, j, _xi_shift)})
            return j - 1, body
        case VarLev(name, j1):
            if j1 < j:
                return frozenset({KItem(var_lev(name, j1 - (j - 1)))})
            return frozenset()
        case FVar(name, j1, arg):
            if j1 < j:
                return frozenset({KItem(fvar(name, j1 - (j - 1), arg))})
            return j - j1, arg
    raise InvariantError(f"not a function-sorted term: {t!r}")


def _xi_legit_candidates(bodies, collapses):
    cap = min(max(_xi_fc_at(0, c), default=NEG_INF) for c in collapses)
    found: set = {ZERO}
    for body in bodies:
        found.update(_params(body))
    return [
        w
        for w in sorted(found, key=lambda p: p.key)
        if w is ZERO or max(_xi_fc_at(0, w), default=NEG_INF) <= cap
    ]


def _xi_class_split(a: Term, b: Term):
    fa = max(_xi_fc_at(0, a), default=NEG_INF)
    fb = max(_xi_fc_at(0, b), default=NEG_INF)
    if fa == fb:
        return None
    return fa < fb


def _xi_head_lt(a: Term, b: Term) -> bool:
    match a, b:
        case (Xi(j, x), Xi(j1, y)):
            return j < j1 or (j == j1 and _xi_lt(x, y))
        case (Xi(_, _), Theta(beta)):
            split = _xi_class_split(a, b)
            if split is not None:
                return split
            return any(
                _xi_leq(a, _xi_instantiate(g, w))
                for w in _xi_legit_candidates((beta,), (b,))
                for g in xi_kset(0, beta)
            )
        case (Theta(alpha), Xi(_, _)):
            split = _xi_class_split(a, b)
            if split is not None:
                return split
            return all(
                _xi_lt(_xi_instantiate(g, w), b)
                for w in _xi_legit_candidates((alpha,), (a,))
                for g in xi_kset(0, alpha)
            )
        case (Theta(alpha), Theta(beta)):
            split = _xi_class_split(a, b)
            if split is not None:
                return split
            ws = _xi_legit_candidates((alpha, beta), (a, b))
            if _xi_lt(alpha, beta):
                return all(
                    _xi_lt(_xi_instantiate(g, w), b)
                    for w in ws
                    for g in xi_kset(0, alpha)
                )
            if _xi_lt(beta, alpha):
                return any(
                    _xi_leq(a, _xi_instantiate(g, w))
                    for w in ws
                    for g in xi_kset(0, beta)
                )
            return False
        case (VarLev(_, j), Xi(j1, _)):
            return j <= j1
        case (VarLev(_, _), VarLev(_, _)):
            return False
        case (VarLev(_, _) | FVar(_, _, _), Theta(beta)):
            return any(
                _xi_leq(a, _xi_instantiate(g, w))
                for w in _xi_legit_candidates((beta,), (b,))
                for g in xi_kset(0, beta)
            )
        case (Theta(_), VarLev(_, _) | FVar(_, _, _)):
            return False
        case (FVar(_, j, x), Xi(j1, y)):
            return j < j1 or (j == j1 and _xi_leq(x, y))
        case (FVar(f, j, x), FVar(g, j1, y)):
            return f == g and (j < j1 or (j == j1 and _xi_lt(x, y)))
    return False


_xi_fc_at = reference_walk(_xi_fc_head, "reference._xi_fc_at")
xi_kset = reference_walk(_xi_kset_head, "reference.xi_kset")
xi_compare, _xi_lt, _xi_leq = make_reference(_xi_head_lt)


# -- mixed ------------------------------------------------------------------------

def _mixed_fc_head(c: MCard, t: Term):
    match t:
        case OmegaIdx(n):
            return frozenset({fin(n)})
        case OmegaHigh(j1, n):
            if large(j1, n) < c:
                return frozenset({large(level_minus_card(j1, c), n)})
            return frozenset()
        case Xi(j1, arg):
            if large(j1, 0) < c:
                own = frozenset({large(level_minus_card(j1, c), 0)})
                return card_minus_level(c, j1), arg, lambda below: below | own
            return card_minus_level(c, j1), arg
        case ThetaLow(_, body):
            return c, body
        case ThetaHigh(n, body):
            return card_min_nat(c, n), body
        case ThetaXi(body):
            return card_minus_level(c, 1), body
        case VarLev(_, j1):
            if large(j1, 0) < c:
                return frozenset({large(level_minus_card(j1, c), 0)})
            return frozenset()
    raise InvariantError(f"not a mixed-system term: {t!r}")


def _mixed_fc_bar(t: Term) -> MCard:
    values = _mixed_fc_at(FULL, t)
    return max(values) if values else CARD_NEG_INF


def _mixed_kset_low_head(n: int, t: Term) -> frozenset[Term]:
    match t:
        case OmegaIdx(m):
            return frozenset({t}) if m < n else frozenset()
        case OmegaHigh(_, _) | Xi(_, _) | VarLev(_, _):
            return frozenset()
        case ThetaLow(m, body):
            return frozenset({t}) if m <= n else (n, body)
        case ThetaHigh(_, body) | ThetaXi(body):
            return n, body
    raise InvariantError(f"not a mixed-system term: {t!r}")


def mixed_kset_high(c: MCard, n: int, t: Term) -> frozenset[Term]:
    return _mixed_kset_high((c, n), t)


def _mixed_kset_high_head(cn: tuple[MCard, int], t: Term) -> frozenset[Term]:
    c, n = cn
    match t:
        case OmegaIdx(_):
            return frozenset({t})
        case OmegaHigh(j1, m):
            if large(j1, m) < c:
                return frozenset({omega_high(level_minus_card(j1, c), m)})
            return frozenset()
        case Xi(j1, arg):
            if large(j1, 0) < c:
                return frozenset({mk_xi(level_minus_card(j1, c), arg)})
            return (card_minus_level(c, j1), n), arg
        case ThetaLow(_, _):
            return frozenset({t})
        case ThetaHigh(_, body):
            if _mixed_fc_bar(t) < card_min_nat(c, n):
                try:
                    return frozenset({_mixed_shift(t, FULL, -c.j, True)})
                except ShiftError:
                    pass
            return (card_min_nat(c, n), n), body
        case ThetaXi(body):
            if _mixed_fc_bar(t) < card_min_nat(c, n):
                try:
                    return frozenset({_mixed_shift(t, FULL, -c.j, True)})
                except ShiftError:
                    pass
            return (card_minus_level(c, 1), n), body
        case VarLev(name, j1):
            if large(j1, 0) < card_min_nat(c, n):
                return frozenset({var_lev(name, level_minus_card(j1, c))})
            return frozenset()
    raise InvariantError(f"not a mixed-system term: {t!r}")


def _mixed_kset_xi_head(c: MCard, t: Term) -> frozenset[KItem]:
    match t:
        case OmegaIdx(_):
            return frozenset({KItem(t)})
        case OmegaHigh(j1, m):
            if large(j1, m) < c:
                return frozenset({KItem(omega_high(level_minus_card(j1, c), m))})
            return frozenset()
        case Xi(j1, _):
            if large(j1, 0) < c:
                try:
                    return frozenset({KItem(_mixed_shift(t, FULL, -c.j, True))})
                except ShiftError:
                    pass
            return card_minus_level(c, j1), t.arg
        case ThetaLow(_, _):
            return frozenset({KItem(t)})
        case ThetaHigh(n, body):
            if _mixed_fc_bar(t) < card_minus_level(c, 1):
                try:
                    return frozenset({KItem(_mixed_shift(t, FULL, 1 - c.j, True))})
                except ShiftError:
                    pass
            return card_min_nat(c, n), body
        case ThetaXi(body):
            if _mixed_fc_bar(t) < c:
                try:
                    return frozenset({_mixed_bound_collapse_item(t, c)})
                except ShiftError:
                    pass
            return card_minus_level(c, 1), body
        case VarLev(name, j1):
            if large(j1, 0) < c:
                return frozenset({KItem(var_lev(name, level_minus_card(j1, c)))})
            return frozenset()
    raise InvariantError(f"not a mixed-system term: {t!r}")


def _mixed_instantiated_kset(s: Term, other: Term | None = None) -> frozenset[Term]:
    """The collapse's own reference critical set, as plain terms: a thXi
    set is instantiated at the parameters of `other`'s body, or at 0."""
    match s:
        case ThetaLow(n, body):
            return mixed_kset_low(n, body)
        case ThetaHigh(n, body):
            return mixed_kset_high(large(0, n), n, body)
    values = () if other is None else _params(other.body)
    items = mixed_kset_xi(large(0, 0), s.body)
    return frozenset(_mixed_instantiate(g, v) for g in items for v in values or (ZERO,))


def _mixed_collapsed(s: Term) -> MCard:
    """The cardinal the collapse `s` collapses, at level 0; coded apart from `_rank`."""
    match s:
        case ThetaLow(n, _):
            return fin(n)
        case ThetaHigh(n, _):
            return large(0, n)
    return large(0, 0)  # thXi


def _mixed_head_lt(a: Term, b: Term) -> bool:
    match a, b:
        case (OmegaIdx(m), OmegaIdx(n)):
            return m < n
        case (OmegaIdx(_), OmegaHigh(_, _) | Xi(_, _) | VarLev(_, _)):
            return True
        case (OmegaHigh(_, _) | Xi(_, _) | VarLev(_, _), OmegaIdx(_)):
            return False
        case (OmegaHigh(j, m), OmegaHigh(j1, n)):
            return j < j1 or (j == j1 and m < n)
        case (Xi(j, _), OmegaHigh(j1, _)):
            return j <= j1
        case (OmegaHigh(j, _), Xi(j1, _)):
            return j < j1
        case (Xi(j, x), Xi(j1, y)):
            return j < j1 or (j == j1 and _mixed_lt(x, y))
        case (VarLev(_, j), Xi(j1, _) | OmegaHigh(j1, _)):
            return j <= j1
        case (Xi(_, _) | OmegaHigh(_, _), VarLev(_, _)):
            return False
        case (VarLev(_, _), VarLev(_, _)):
            return False
    a_card = isinstance(a, (OmegaIdx, OmegaHigh, Xi, VarLev))
    if a_card and isinstance(b, _COLLAPSES):
        return any(_mixed_leq(a, g) for g in _mixed_instantiated_kset(b))
    if isinstance(a, _COLLAPSES) and isinstance(b, (OmegaIdx, OmegaHigh, Xi)):
        return all(_mixed_lt(g, b) for g in _mixed_instantiated_kset(a))
    if isinstance(a, _COLLAPSES) and isinstance(b, _COLLAPSES):
        csl = _mixed_instantiated_kset(a, b)
        dsl = _mixed_instantiated_kset(b, a)
        if any(_mixed_leq(a, d0) for d0 in dsl):
            return True
        if any(_mixed_leq(b, c0) for c0 in csl):
            return False
        ca, cb = _mixed_collapsed(a), _mixed_collapsed(b)
        return ca < cb or (ca == cb and _mixed_lt(a.body, b.body))
    return False


_mixed_fc_at = reference_walk(_mixed_fc_head, "reference._mixed_fc_at")
mixed_kset_low = reference_walk(_mixed_kset_low_head, "reference.mixed_kset_low")
_mixed_kset_high = reference_walk(_mixed_kset_high_head, "reference._mixed_kset_high")
mixed_kset_xi = reference_walk(_mixed_kset_xi_head, "reference.mixed_kset_xi")
mixed_compare, _mixed_lt, _mixed_leq = make_reference(_mixed_head_lt)
