"""The stratified system: indexed cardinals Omega_n, collapses theta_n,
critical subterms K_n, formal cardinality, ordering, variables v_n and
substitution.

Formal cardinalities live in {-inf} union {1, 2, ...}; -inf is the class of
countable (closed-below-Omega_1) terms.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    NEG_INF,
    InvariantError,
    OmegaIdx,
    OmegaPow,
    PreconditionError,
    Sum,
    Term,
    ThetaIdx,
    VarIdx,
    make_level_walk,
    make_order,
    make_walk,
    reference_attr,
    system_checks,
)

__all__ = [
    "Classification",
    "classify",
    "fc",
    "fc_max",
    "kset",
    "compare",
    "substitute",
]

_check_system, _check_pair = system_checks("buchholz")


class Classification(NamedTuple):
    is_h: bool
    is_sc: bool
    is_closed: bool
    is_valid: bool


def classify(t: Term) -> Classification:
    """is_h: not a sum; is_sc: in H and not an omega power; is_valid: the
    collapse variable-scope rule holds hereditarily."""
    _check_system(t)
    return Classification(
        is_h=not isinstance(t, Sum),
        is_sc=not isinstance(t, (Sum, OmegaPow)),
        is_closed=t.closed,
        is_valid=t.valid,
    )


def fc(t: Term):
    """Formal cardinalities occurring in t, and their maximum (-inf if none)."""
    _check_system(t)
    values = _fc_set(None, t)
    return values, (max(values) if values else NEG_INF)


def fc_max(t: Term):
    return fc(t)[1]


def _fc_head(_, t: Term):
    match t:
        case OmegaIdx() | VarIdx():
            return frozenset({t.index})
        case ThetaIdx():
            n = t.index
            return None, t.body, lambda values: frozenset(m for m in values if m < n)
    raise InvariantError(f"not a stratified term: {t!r}")


_fc_set = make_walk(_fc_head, "buchholz._fc_set")  # threshold-free, as everywhere: arg None


def kset(n: int, t: Term) -> frozenset[Term]:
    """Critical subterms of t below the cardinality class n."""
    _check_system(t)
    if n < 0:
        raise PreconditionError(f"kset index must be >= 0, got {n}")
    return _kset(n, t)


def _kset_head(n: int, t: Term):
    match t:
        case OmegaIdx() | VarIdx():
            return frozenset({t}) if t.index < n else frozenset()
        case ThetaIdx():
            return (n, t.body) if n < t.index else frozenset({t})
    raise InvariantError(f"not a stratified term: {t!r}")


_kset = make_walk(_kset_head, "buchholz._kset")


def _head_lt(a: Term, b: Term) -> bool:
    """a < b for strongly critical a and b (heads Omega_n, theta_n, x_n)."""
    ta, tb = type(a), type(b)
    if ta is ThetaIdx:
        if tb is ThetaIdx:
            for g in _kset(b.index, b.body):
                if a is g or _lt(a, g):
                    return True
            m, n = a.index, b.index
            for g in _kset(m, a.body):
                if not _lt(g, b):
                    return False
            return m < n or (m == n and _lt(a.body, b.body))
        if tb is OmegaIdx:
            for g in _kset(a.index, a.body):
                if not _lt(g, b):
                    return False
            return True
        return False  # left incomparable to a variable: a vacuous bound is not stable
    if tb is ThetaIdx:  # a cardinal or a variable
        for g in _kset(b.index, b.body):
            if a is g or _lt(a, g):
                return True
        return False
    if tb is OmegaIdx:
        return a.index < b.index if ta is OmegaIdx else a.index <= b.index
    return False  # distinct variables are incomparable, as is Omega_n to x_m


compare, _lt = make_order(_head_lt, _check_pair, "buchholz.compare")


def substitute(t: Term, name: str, n: int, gamma: Term) -> Term:
    """Replace every occurrence of the variable (name, n) by gamma.

    Requires gamma's maximal formal cardinality to be below n, which keeps
    the collapse variable-scope rule intact.
    """
    _check_system(t)
    _check_system(gamma)
    if n < 1:
        raise PreconditionError(f"variable subscript must be >= 1, got {n}")
    if not fc_max(gamma) < n:
        raise PreconditionError(
            f"substitution target must have formal cardinality < {n}"
        )
    return _subst(t, n, name, gamma)


def _subst_head(t: Term, n: int, name: str, gamma: Term):
    if not t.var_names:
        return t
    if type(t) is VarIdx and t.name == name and t.index == n:
        return gamma
    return None


# The kernel's level stays n throughout: th_m keeps it.
_subst = make_level_walk(_subst_head)


# The oracle and the dominance machinery moved out; their old names resolve there.
def __getattr__(name):
    return reference_attr("buchholz", name)
