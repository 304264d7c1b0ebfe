"""The stratified system: indexed cardinals Omega_n, collapses theta_n,
critical subterms K_n, formal cardinality, ordering, variables v_n,
substitution, the relativized dominance function D and relation <<.

Formal cardinalities live in {-inf} union {1, 2, ...}; -inf is the class of
countable (closed-below-Omega_1) terms.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    NEG_INF,
    SYS_BUCHHOLZ,
    InvariantError,
    Outcome,
    OmegaIdx,
    OmegaPow,
    PreconditionError,
    Sum,
    Term,
    ThetaIdx,
    VarIdx,
    add,
    is_sc,
    make_order,
    make_reference,
    omega_idx,
    omega_pow,
    sum_of,
    theta_idx,
    ZERO,
)

__all__ = [
    "Classification",
    "classify",
    "fc",
    "fc_max",
    "kset",
    "compare",
    "compare_reference",
    "kset_reference",
    "substitute",
    "dfun",
    "llrel",
    "key_lemma_1",
    "key_lemma_2",
    "key_lemma_3",
]

_FC: dict[int, frozenset] = {}
_K: dict[tuple[int, int], frozenset] = {}


def _check_system(t: Term):
    if not t.in_system("buchholz"):
        raise PreconditionError(f"term {t!r} is not a stratified-system term")


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
    values = _fc_set(t)
    return values, (max(values) if values else NEG_INF)


def fc_max(t: Term):
    return fc(t)[1]


def _fc_set(t: Term) -> frozenset:
    cached = _FC.get(t.serial)
    if cached is not None:
        return cached
    match t:
        case Sum(children):
            out = frozenset().union(*(_fc_set(c) for c in children))
        case OmegaPow(e):
            out = _fc_set(e)
        case OmegaIdx(n):
            out = frozenset({n})
        case ThetaIdx(n, body):
            out = frozenset(m for m in _fc_set(body) if m < n)
        case VarIdx(_, n):
            out = frozenset({n})
        case _:
            raise InvariantError(f"not a stratified term: {t!r}")
    _FC[t.serial] = out
    return out


def kset(n: int, t: Term) -> frozenset[Term]:
    """Critical subterms of t below the cardinality class n."""
    _check_system(t)
    if n < 0:
        raise PreconditionError(f"kset index must be >= 0, got {n}")
    return _kset(n, t)


def _kset(n: int, t: Term) -> frozenset[Term]:
    memo_key = (n, t.serial)
    cached = _K.get(memo_key)
    if cached is not None:
        return cached
    match t:
        case Sum(children):
            out = frozenset().union(*(_kset(n, c) for c in children))
        case OmegaPow(e):
            out = _kset(n, e)
        case OmegaIdx(m):
            out = frozenset({t}) if m < n else frozenset()
        case ThetaIdx(m, body):
            out = _kset(n, body) if n < m else frozenset({t})
        case VarIdx(_, m):
            out = frozenset({t}) if m < n else frozenset()
        case _:
            raise InvariantError(f"not a stratified term: {t!r}")
    _K[memo_key] = out
    return out


def _check_pair(a: Term, b: Term):
    if not (a.mask & b.mask & SYS_BUCHHOLZ and a.valid and b.valid):
        _check_system(a)
        _check_system(b)
        raise PreconditionError("comparison requires valid terms")


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


compare, _lt, _leq, _LT = make_order(_head_lt, _check_pair)


def substitute(t: Term, name: str, n: int, gamma: Term) -> Term:
    """Replace every occurrence of the variable (name, n) by gamma.

    Requires gamma's maximal formal cardinality to be below n, which keeps
    the collapse variable-scope rule intact.
    """
    _check_system(t)
    _check_system(gamma)
    if not fc_max(gamma) < n:
        raise PreconditionError(
            f"substitution target must have formal cardinality < {n}"
        )
    return _subst(t, name, n, gamma)


def _subst(t: Term, name: str, n: int, gamma: Term) -> Term:
    if t.closed:
        return t
    match t:
        case Sum(children):
            return sum_of(_subst(c, name, n, gamma) for c in children)
        case OmegaPow(e):
            return omega_pow(_subst(e, name, n, gamma))
        case ThetaIdx(m, body):
            return theta_idx(m, _subst(body, name, n, gamma))
        case VarIdx(v, m):
            return gamma if (v, m) == (name, n) else t
    return t


def dfun(m: int, n: int, gamma: Term, beta: Term) -> Term:
    """Iterated dominance value: the collapse chain from level n down to m,
    with gamma added at the top level n."""
    if not (1 <= m <= n):
        raise PreconditionError(f"dfun needs 1 <= m <= n, got m={m}, n={n}")
    if not fc_max(gamma) < n:
        raise PreconditionError(f"dfun subscript must have cardinality < {n}")
    out = theta_idx(n, add(omega_pow(add(omega_idx(n), beta)), gamma))
    for k in range(n - 1, m - 1, -1):
        out = theta_idx(k, omega_pow(add(omega_idx(k), out)))
    return out


def llrel(n: int, gamma: Term, alpha: Term, beta: Term, relativized: bool = True) -> bool:
    """alpha << beta at level n relative to gamma: alpha < beta and every
    critical subterm of alpha at each level m <= n stays below the dominance
    value at m.  With relativized=False the bounds drop the gamma summand
    (the alternative reading of the dominance bound).
    """
    if n < 0:
        raise PreconditionError(f"llrel level must be >= 0, got {n}")
    if not fc_max(gamma) < n:
        raise PreconditionError(f"llrel subscript must have cardinality < {n}")
    if compare(alpha, beta) is not Outcome.LESS:
        return False
    sub = gamma if relativized else ZERO
    for m in range(1, n + 1):
        bound = dfun(m, n, sub, beta)
        for eta in _kset(m, alpha):
            if not _lt(eta, bound):
                return False
    return True


# -- Key Lemma items -------------------------------------------------------
#
# Each item takes a hypothesis-satisfying instance and returns whether the
# conclusion holds.  Hypothesis checks are repeated here so that a bad
# sampler cannot silently weaken the suite.

def key_lemma_1(alpha: Term, beta: Term, name: str, n: int, gamma: Term) -> bool:
    if not is_sc(gamma):
        # A variable stands for a strongly critical value; substituting a sum
        # or an omega power breaks its fixed-point behaviour.
        raise PreconditionError("key lemma (1) needs a strongly critical target")
    if compare(alpha, beta) is not Outcome.LESS:
        raise PreconditionError("key lemma (1) needs alpha < beta")
    a1 = substitute(alpha, name, n, gamma)
    b1 = substitute(beta, name, n, gamma)
    return compare(a1, b1) is Outcome.LESS


def key_lemma_2(n: int, delta: Term, alpha: Term, beta: Term) -> bool:
    if alpha.vmax >= n or beta.vmax >= n:
        raise PreconditionError("key lemma (2) forbids variables at level >= n")
    if not llrel(n, delta, alpha, beta):
        raise PreconditionError("key lemma (2) needs alpha << beta")
    lhs = dfun(n, n, delta, alpha)
    rhs = dfun(n, n, delta, beta)
    return llrel(n - 1, ZERO, lhs, rhs)


def key_lemma_3(
    n: int, delta: Term, alpha: Term, beta: Term, gamma: Term, name: str
) -> bool:
    if alpha.vmax >= n or beta.vmax >= n or gamma.vmax > n:
        raise PreconditionError("key lemma (3) variable-scope hypothesis fails")
    if not (llrel(n, delta, alpha, beta) and llrel(n, delta, gamma, beta)):
        raise PreconditionError("key lemma (3) needs alpha, gamma << beta")
    collapse = dfun(n, n, delta, alpha)
    gamma1 = substitute(gamma, name, n, collapse)
    lhs = dfun(n, n, collapse, gamma1)
    rhs = dfun(n, n, delta, beta)
    # The relativized conclusion needs delta's cardinality below n - 1 for its
    # own dominance chain to be defined; samplers enforce that.
    return llrel(n - 1, delta, lhs, rhs)


# -- Reference implementations ---------------------------------------------
#
# Plain direct recursion with no caching, kept deliberately separate from the
# memoized paths above; the harness cross-checks the two.

def kset_reference(n: int, t: Term) -> frozenset[Term]:
    match t:
        case Sum(children):
            return frozenset().union(*(kset_reference(n, c) for c in children))
        case OmegaPow(e):
            return kset_reference(n, e)
        case OmegaIdx(m):
            return frozenset({t}) if m < n else frozenset()
        case ThetaIdx(m, body):
            if n < m:
                return kset_reference(n, body)
            return frozenset({t})
        case VarIdx(_, m):
            return frozenset({t}) if m < n else frozenset()
    raise InvariantError(f"not a stratified term: {t!r}")


def _ref_head_lt(a: Term, b: Term) -> bool:
    match a, b:
        case (OmegaIdx(m), OmegaIdx(n)):
            return m < n
        case (OmegaIdx(_) | VarIdx(_, _), ThetaIdx(n, beta)):
            return any(_ref_leq(a, g) for g in kset_reference(n, beta))
        case (ThetaIdx(m, alpha), OmegaIdx(_)):
            return all(_ref_lt(g, b) for g in kset_reference(m, alpha))
        case (ThetaIdx(_, _), VarIdx(_, _)):
            return False
        case (ThetaIdx(m, alpha), ThetaIdx(n, beta)):
            if any(_ref_leq(a, g) for g in kset_reference(n, beta)):
                return True
            return all(
                _ref_lt(g, b) for g in kset_reference(m, alpha)
            ) and (m < n or (m == n and _ref_lt(alpha, beta)))
        case (VarIdx(_, n), OmegaIdx(m)):
            return n <= m
        case (VarIdx(_, _), VarIdx(_, _)):
            return False
    return False


compare_reference, _ref_lt, _ref_leq = make_reference(_ref_head_lt)
