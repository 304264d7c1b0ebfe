"""The polymorphic system: one cardinal symbol at de Bruijn-style levels
J <= 0, one collapse, level shifting, critical subterms, ground/star
normalization with a structural class-membership predicate, variables,
substitution, and the dominance machinery.

Level bookkeeping: formal cardinality is relative, so most operations carry a
threshold J that decrements every time the recursion enters a collapse body.
Values live in {-inf} union {..., -2, -1, 0}.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    NEG_INF,
    SYS_POLY,
    InvariantError,
    Outcome,
    OmegaLev,
    OmegaPow,
    PreconditionError,
    ShiftError,
    Sum,
    Term,
    Theta,
    VarLev,
    add,
    is_sc,
    make_order,
    make_reference,
    omega_lev,
    omega_pow,
    subterms,
    sum_of,
    theta,
    var_lev,
    ZERO,
)

__all__ = [
    "fc",
    "fc_max",
    "shift",
    "kset",
    "compare",
    "compare_reference",
    "kset_reference",
    "NormalizationResult",
    "normalize",
    "ground",
    "star",
    "m_member",
    "class_of",
    "substitutable",
    "substitute",
    "dfun",
    "llrel",
    "key_lemma_1",
    "key_lemma_2",
    "key_lemma_3",
]

_FC: dict[tuple[int, int], frozenset] = {}
_K: dict[tuple[int, int], frozenset] = {}
_M: dict[tuple[int, float], bool] = {}


def _check_system(t: Term):
    if not t.in_system("poly"):
        raise PreconditionError(f"term {t!r} is not a polymorphic-system term")


def _check_level(j: int):
    if j > 0:
        raise PreconditionError(f"threshold level must be <= 0, got {j}")


def fc(j: int, t: Term):
    """Formal cardinalities of t relative to threshold j, with their max."""
    _check_system(t)
    _check_level(j)
    values = _fc_set(j, t)
    return values, (max(values) if values else NEG_INF)


def fc_max(t: Term, j: int = 0):
    return fc(j, t)[1]


def _fc_set(j: int, t: Term) -> frozenset:
    memo_key = (j, t.serial)
    cached = _FC.get(memo_key)
    if cached is not None:
        return cached
    match t:
        case Sum(children):
            out = frozenset().union(*(_fc_set(j, c) for c in children))
        case OmegaPow(e):
            out = _fc_set(j, e)
        case OmegaLev(j1):
            out = frozenset({j1 - j}) if j1 <= j else frozenset()
        case Theta(body):
            out = _fc_set(j - 1, body)
        case VarLev(_, j1):
            # variables count at the level of the cardinal they track
            out = frozenset({j1 - j}) if j1 <= j else frozenset()
        case _:
            raise InvariantError(f"not a polymorphic term: {t!r}")
    _FC[memo_key] = out
    return out


def shift(t: Term, j: int, d: int) -> Term:
    """Re-level free occurrences at or below threshold j by d.

    Upward shifts collide when a shifted occurrence would cross its
    threshold; that raises ShiftError.
    """
    _check_system(t)
    _check_level(j)
    return _shift(t, j, d)


def _shift(t: Term, j: int, d: int) -> Term:
    if d == 0:
        return t
    match t:
        case Sum(children):
            return sum_of(_shift(c, j, d) for c in children)
        case OmegaPow(e):
            return omega_pow(_shift(e, j, d))
        case OmegaLev(j1):
            if j1 > j:
                return t
            if j1 + d > j:
                raise ShiftError(
                    f"shifting level {j1} by {d:+d} collides at threshold {j}"
                )
            return omega_lev(j1 + d)
        case Theta(body):
            return theta(_shift(body, j - 1, d))
        case VarLev(name, j1):
            if j1 > j:
                return t
            if j1 + d > j:
                raise ShiftError(
                    f"shifting variable level {j1} by {d:+d} collides at threshold {j}"
                )
            return var_lev(name, j1 + d)
    raise InvariantError(f"not a polymorphic term: {t!r}")


def kset(j: int, t: Term) -> frozenset[Term]:
    """Critical subterms of t below threshold j, re-levelled to sit one
    collapse outside the comparison root."""
    _check_system(t)
    _check_level(j)
    return _kset(j, t)


def _kset(j: int, t: Term) -> frozenset[Term]:
    memo_key = (j, t.serial)
    cached = _K.get(memo_key)
    if cached is not None:
        return cached
    match t:
        case Sum(children):
            out = frozenset().union(*(_kset(j, c) for c in children))
        case OmegaPow(e):
            out = _kset(j, e)
        case OmegaLev(j1):
            out = frozenset({omega_lev(j1 - (j - 1))}) if j1 < j else frozenset()
        case Theta(body):
            if _fc_bar0(t) < j:
                try:
                    out = frozenset({_shift(t, 0, 1 - j)})
                except ShiftError as exc:  # pragma: no cover
                    raise InvariantError(f"bound collapse failed to re-level: {exc}")
            else:
                out = _kset(j - 1, body)
        case VarLev(name, j1):
            out = frozenset({var_lev(name, j1 - (j - 1))}) if j1 < j else frozenset()
        case _:
            raise InvariantError(f"not a polymorphic term: {t!r}")
    _K[memo_key] = out
    return out


def _fc_bar0(t: Term):
    values = _fc_set(0, t)
    return max(values) if values else NEG_INF


def _check_pair(a: Term, b: Term):
    if not a.mask & b.mask & SYS_POLY:
        _check_system(a)
        _check_system(b)


def _head_lt(a: Term, b: Term) -> bool:
    """a < b for strongly critical a and b (heads Omega^(J), theta, x^(J))."""
    ta, tb = type(a), type(b)
    if ta is Theta:
        if tb is Theta:
            alpha, beta = a.body, b.body
            if _lt(alpha, beta):
                for g in _kset(0, alpha):
                    if not _lt(g, b):
                        return False
                return True
            if _lt(beta, alpha):
                for g in _kset(0, beta):
                    if a is g or _lt(a, g):
                        return True
            return False
        if tb is OmegaLev:
            for g in _kset(0, a.body):
                if not _lt(g, b):
                    return False
            return True
        return False  # left incomparable to a variable: a vacuous bound is not stable
    if tb is Theta:  # a cardinal or a variable
        for g in _kset(0, b.body):
            if a is g or _lt(a, g):
                return True
        return False
    if tb is OmegaLev:
        return a.level < b.level if ta is OmegaLev else a.level <= b.level
    return False  # distinct variables are incomparable, as is Omega^(J) to x^(K)


compare, _lt, _leq, _LT = make_order(_head_lt, _check_pair)


def ground(t: Term):
    """Least formal cardinality occurring free in t (-inf if none)."""
    values = _fc_set(0, t)
    return min(values) if values else NEG_INF


def star(t: Term) -> Term:
    """t re-levelled so its greatest free level is 0 (identity when none)."""
    top = _fc_bar0(t)
    return t if top == NEG_INF else _shift(t, 0, -top)


def class_of(t: Term):
    """Class index of a star-normalized term: -ground, or -inf if cardinal-free."""
    g = ground(t)
    return NEG_INF if g == NEG_INF else -g


class NormalizationResult(NamedTuple):
    star: Term
    ground: float
    class_index: float
    m_member: bool


def normalize(t: Term) -> NormalizationResult:
    """Ground, star form, class index, and structural class membership."""
    _check_system(t)
    if not t.closed:
        raise PreconditionError("normalize requires a closed term")
    s = star(t)
    n = class_of(s)
    return NormalizationResult(
        star=s, ground=ground(t), class_index=n, m_member=m_member(s, n)
    )


def m_member(t: Term, n) -> bool:
    """Structural membership of t in the class-n set: top cardinality 0 (or
    none at all), ground within -n, and every critical subterm's star a
    member of a strictly smaller class.  The well-foundedness half of the
    construction is evidenced globally by the order-axiom checks.
    """
    _check_system(t)
    memo_key = (t.serial, n)
    cached = _M.get(memo_key)
    if cached is None:
        cached = _m_member(t, n)
        _M[memo_key] = cached
    return cached


def _m_member(t: Term, n) -> bool:
    if _fc_bar0(t) == NEG_INF:
        return True  # cardinal-free terms belong to every class
    if n == NEG_INF:
        return False
    if _fc_bar0(t) != 0:
        return False
    if ground(t) < -n:
        return False
    for beta in _kset(0, t):
        bstar = star(beta)
        c = class_of(bstar)
        if not c < n:
            return False
        if not m_member(bstar, c):
            return False
    return True


def substitutable(name: str, j: int, t: Term) -> bool:
    """A variable is substitutable at j when every occurrence sits at the
    ambient level the substitution will reach it with."""
    _check_system(t)
    return _substitutable(name, j, t)


def _substitutable(name: str, j: int, t: Term) -> bool:
    if name not in t.var_names:
        return True
    match t:
        case Sum(children):
            return all(_substitutable(name, j, c) for c in children)
        case OmegaPow(e):
            return _substitutable(name, j, e)
        case OmegaLev(_):
            return True
        case Theta(body):
            return _substitutable(name, j - 1, body)
        case VarLev(w, j1):
            return w != name or j == j1
    raise InvariantError(f"not a polymorphic term: {t!r}")


def substitute(t: Term, name: str, j: int, beta: Term) -> Term:
    """Replace the variable by beta, re-levelled to each occurrence's ambient
    level.  Requires the variable to be j-substitutable in t."""
    _check_system(t)
    _check_system(beta)
    if not _substitutable(name, j, t):
        raise PreconditionError(f"variable {name!r} is not {j}-substitutable")
    return _subst(t, name, j, beta)


def _subst(t: Term, name: str, j: int, beta: Term) -> Term:
    if name not in t.var_names:
        return t
    match t:
        case Sum(children):
            return sum_of(_subst(c, name, j, beta) for c in children)
        case OmegaPow(e):
            return omega_pow(_subst(e, name, j, beta))
        case Theta(body):
            return theta(_subst(body, name, j - 1, beta))
        case VarLev(w, _):
            return _shift(beta, 0, j) if w == name else t
    return t


def dfun(m: int, gamma: Term, beta: Term) -> Term:
    """Iterated dominance value: m+1 nested collapses around beta, with gamma
    added inside the innermost one."""
    if m < 0:
        raise PreconditionError(f"dfun iteration count must be >= 0, got {m}")
    if not fc_max(gamma) < 0:
        raise PreconditionError("dfun subscript must have negative cardinality")
    out = theta(add(omega_pow(add(omega_lev(0), beta)), gamma))
    for _ in range(m):
        out = theta(omega_pow(add(omega_lev(0), out)))
    return out


def _least_dominance_bound(chain: list, gamma: Term, beta: Term, target) -> Term:
    """D_m(beta) for the least m whose cardinality reaches target.  chain
    holds D_0, D_1, ... as built so far and is extended on demand."""
    for m in range(63):
        if m == len(chain):
            chain.append(
                theta(omega_pow(add(omega_lev(0), chain[-1])))
                if chain
                else dfun(0, gamma, beta)
            )
        if _fc_bar0(chain[m]) <= target:
            return chain[m]
    raise InvariantError("dominance iteration failed to reach the target class")


def llrel(gamma: Term, alpha: Term, beta: Term) -> bool:
    """alpha << beta relative to gamma: alpha < beta and every critical
    subterm of alpha is below the first dominance value at its class."""
    if not fc_max(gamma) < 0:
        raise PreconditionError("llrel subscript must have negative cardinality")
    if compare(alpha, beta) is not Outcome.LESS:
        return False
    chain: list[Term] = []
    bounds = {}  # target class -> least bound reaching it
    for eta in _kset(0, alpha):
        target = _fc_bar0(eta)
        bound = bounds.get(target)
        if bound is None:
            bound = bounds[target] = _least_dominance_bound(chain, gamma, beta, target)
        if not _lt(eta, bound):
            return False
    return True


# -- Key Lemma items -------------------------------------------------------

def key_lemma_1(alpha: Term, beta: Term, name: str, gamma: Term) -> bool:
    if not is_sc(gamma):
        raise PreconditionError("key lemma (1) needs a strongly critical target")
    if not (substitutable(name, 0, alpha) and substitutable(name, 0, beta)):
        raise PreconditionError("key lemma (1) needs a 0-substitutable variable")
    if not fc_max(gamma) < 0:
        raise PreconditionError("key lemma (1) needs a small substitution target")
    if compare(alpha, beta) is not Outcome.LESS:
        raise PreconditionError("key lemma (1) needs alpha < beta")
    return compare(_subst(alpha, name, 0, gamma), _subst(beta, name, 0, gamma)) is Outcome.LESS


def _vars_below_top(t: Term) -> bool:
    """Every variable occurrence sits at its matching ambient position and
    strictly below the top level (a top-level variable would be captured by
    a dominance wrapper and block its witnesses)."""
    for name in t.var_names:
        if not _substitutable(name, 0, t):
            return False
        if any(
            isinstance(s, VarLev) and s.name == name and s.level == 0
            for s in subterms(t)
        ):
            return False
    return True


def key_lemma_2(delta: Term, alpha: Term, beta: Term) -> bool:
    if not (_vars_below_top(alpha) and _vars_below_top(beta)):
        raise PreconditionError("key lemma (2) needs variables below the top level")
    if not llrel(delta, alpha, beta):
        raise PreconditionError("key lemma (2) needs alpha << beta")
    return llrel(ZERO, dfun(0, delta, alpha), dfun(0, delta, beta))


def key_lemma_3(delta: Term, alpha: Term, beta: Term, gamma: Term, name: str) -> bool:
    if not substitutable(name, 0, gamma):
        raise PreconditionError("key lemma (3) needs a 0-substitutable variable")
    if not (llrel(delta, alpha, beta) and llrel(delta, gamma, beta)):
        raise PreconditionError("key lemma (3) needs alpha, gamma << beta")
    collapse = _shift(dfun(0, delta, alpha), 0, -1)
    lhs = dfun(0, collapse, _subst(gamma, name, 0, collapse))
    return llrel(ZERO, lhs, dfun(0, delta, beta))


# -- Reference implementations ---------------------------------------------

def _ref_fc_set(j: int, t: Term) -> frozenset:
    match t:
        case Sum(children):
            return frozenset().union(*(_ref_fc_set(j, c) for c in children))
        case OmegaPow(e):
            return _ref_fc_set(j, e)
        case OmegaLev(j1) | VarLev(_, j1):
            return frozenset({j1 - j}) if j1 <= j else frozenset()
        case Theta(body):
            return _ref_fc_set(j - 1, body)
    raise InvariantError(f"not a polymorphic term: {t!r}")


def kset_reference(j: int, t: Term) -> frozenset[Term]:
    match t:
        case Sum(children):
            return frozenset().union(*(kset_reference(j, c) for c in children))
        case OmegaPow(e):
            return kset_reference(j, e)
        case OmegaLev(j1):
            return frozenset({omega_lev(j1 - (j - 1))}) if j1 < j else frozenset()
        case Theta(body):
            values = _ref_fc_set(0, t)
            top = max(values) if values else NEG_INF
            if top < j:
                return frozenset({shift(t, 0, 1 - j)})
            return kset_reference(j - 1, body)
        case VarLev(name, j1):
            return frozenset({var_lev(name, j1 - (j - 1))}) if j1 < j else frozenset()
    raise InvariantError(f"not a polymorphic term: {t!r}")


def _ref_head_lt(a: Term, b: Term) -> bool:
    match a, b:
        case (OmegaLev(j), OmegaLev(j1)):
            return j < j1
        case (OmegaLev(_) | VarLev(_, _), Theta(beta)):
            return any(_ref_leq(a, g) for g in kset_reference(0, beta))
        case (Theta(alpha), OmegaLev(_)):
            return all(_ref_lt(g, b) for g in kset_reference(0, alpha))
        case (Theta(_), VarLev(_, _)):
            return False
        case (Theta(alpha), Theta(beta)):
            if _ref_lt(alpha, beta):
                return all(_ref_lt(g, b) for g in kset_reference(0, alpha))
            if _ref_lt(beta, alpha):
                return any(_ref_leq(a, g) for g in kset_reference(0, beta))
            return False
        case (VarLev(_, j), OmegaLev(j1)):
            return j <= j1
        case (VarLev(_, _), VarLev(_, _)):
            return False
    return False


compare_reference, _ref_lt, _ref_leq = make_reference(_ref_head_lt)
