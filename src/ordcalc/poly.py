"""The polymorphic system: one cardinal symbol at de Bruijn-style levels
J <= 0, one collapse, level shifting, critical subterms, ground/star
normalization with a structural class-membership predicate, variables and
substitution.

Level bookkeeping: formal cardinality at a level J <= 0 is read off one
threshold-free profile per term, and the critical-subterm walk carries a
threshold J that decrements every time it enters a collapse body.
Values live in {-inf} union {..., -2, -1, 0}.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    CACHES,
    NEG_INF,
    InvariantError,
    OmegaLev,
    PreconditionError,
    ShiftError,
    Term,
    Theta,
    VarLev,
    check_level,
    make_level_walk,
    make_order,
    make_substitution,
    make_walk,
    omega_lev,
    reference_attr,
    system_checks,
    var_lev,
)

__all__ = [
    "fc",
    "fc_max",
    "shift",
    "kset",
    "compare",
    "NormalizationResult",
    "normalize",
    "ground",
    "star",
    "m_member",
    "class_of",
    "substitutable",
    "substitute",
]

_M = CACHES["poly._M"] = {}  # (serial, n) -> `m_member(t, n)`


_check_system, _check_pair = system_checks("poly")


def fc(j: int, t: Term):
    """Formal cardinalities of t relative to threshold j, with their max."""
    _check_system(t)
    check_level(j)
    values = frozenset(e - j for e in _fc_set(None, t) if e <= j)
    return values, max(values, default=NEG_INF)


def fc_max(t: Term):
    _check_system(t)
    return max(_fc_set(None, t), default=NEG_INF)


def _fc_head(_, t: Term):
    """The profile of t: its formal cardinalities at level 0."""
    match t:
        case OmegaLev(j1) | VarLev(_, j1):
            # variables count at the level of the cardinal they track
            return frozenset({j1})
        case Theta(body):
            # the body's profile read at level -1
            return None, body, lambda values: frozenset(e + 1 for e in values if e <= -1)
    raise InvariantError(f"not a polymorphic term: {t!r}")


_fc_set = make_walk(_fc_head, "poly._fc_set")  # threshold-free: arg is None


def shift(t: Term, j: int, d: int) -> Term:
    """Re-level free occurrences at or below threshold j by d.

    Upward shifts collide when a shifted occurrence would cross its
    threshold; that raises ShiftError.
    """
    _check_system(t)
    check_level(j)
    return _shift(t, j, d)


def _shift_head(t: Term, j: int, d: int):
    if d == 0:
        return t
    tt = type(t)
    if tt is OmegaLev or tt is VarLev:
        j1 = t.level
        if j1 > j:
            return t
        if j1 + d > j:
            what = "level" if tt is OmegaLev else "variable level"
            raise ShiftError(f"shifting {what} {j1} by {d:+d} collides at threshold {j}")
        return omega_lev(j1 + d) if tt is OmegaLev else var_lev(t.name, j1 + d)
    return None


_shift = make_level_walk(_shift_head, memoize="poly._shift")


def kset(j: int, t: Term) -> frozenset[Term]:
    """Critical subterms of t below threshold j, re-levelled to sit one
    collapse outside the comparison root."""
    _check_system(t)
    check_level(j)
    return _kset(j, t)


def _kset_head(j: int, t: Term):
    match t:
        case OmegaLev(j1):
            return frozenset({omega_lev(j1 - (j - 1))}) if j1 < j else frozenset()
        case Theta(body):
            if fc_max(t) < j:
                try:
                    return frozenset({_shift(t, 0, 1 - j)})
                except ShiftError as exc:  # pragma: no cover
                    raise InvariantError(f"bound collapse failed to re-level: {exc}")
            return j - 1, body
        case VarLev(name, j1):
            return frozenset({var_lev(name, j1 - (j - 1))}) if j1 < j else frozenset()
    raise InvariantError(f"not a polymorphic term: {t!r}")


_kset = make_walk(_kset_head, "poly._kset")


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


compare, _lt = make_order(_head_lt, _check_pair, "poly.compare")


def ground(t: Term):
    """Least formal cardinality occurring free in t (-inf if none)."""
    return min(_fc_set(None, t), default=NEG_INF)


def star(t: Term) -> Term:
    """t re-levelled so its greatest free level is 0 (identity when none)."""
    top = fc_max(t)
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
    if fc_max(t) == NEG_INF:
        return True  # cardinal-free terms belong to every class
    if n == NEG_INF:
        return False
    if fc_max(t) != 0:
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


substitutable, substitute, _subst = make_substitution(
    _check_system, lambda beta, j: _shift(beta, 0, j)
)


# The oracle and the dominance machinery moved out; their old names resolve there.
def __getattr__(name):
    return reference_attr("poly", name)
