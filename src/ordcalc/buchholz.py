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
    make_level_walk,
    make_order,
    make_walk,
    omega_idx,
    omega_pow,
    reference_attr,
    system_checks,
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
    "substitute",
    "dfun",
    "llrel",
    "key_lemma_1",
    "key_lemma_2",
    "key_lemma_3",
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
        case OmegaIdx(n) | VarIdx(_, n):
            return frozenset({n})
        case ThetaIdx(n, body):
            return None, body, lambda values: frozenset(m for m in values if m < n)
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
        case OmegaIdx(m) | VarIdx(_, m):
            return frozenset({t}) if m < n else frozenset()
        case ThetaIdx(m, body):
            return (n, body) if n < m else frozenset({t})
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


def llrel(n: int, gamma: Term, alpha: Term, beta: Term) -> bool:
    """alpha << beta at level n relative to gamma: alpha < beta and every
    critical subterm of alpha at each level m <= n stays below the dominance
    value at m."""
    if n < 0:
        raise PreconditionError(f"llrel level must be >= 0, got {n}")
    if not fc_max(gamma) < n:
        raise PreconditionError(f"llrel subscript must have cardinality < {n}")
    if compare(alpha, beta) is not Outcome.LESS:
        return False
    for m in range(1, n + 1):
        bound = dfun(m, n, gamma, beta)
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
    # Both order hypotheses first: an instance they reject builds no D_m.
    if not (
        compare(alpha, beta) is Outcome.LESS
        and compare(gamma, beta) is Outcome.LESS
        and llrel(n, delta, alpha, beta)
        and llrel(n, delta, gamma, beta)
    ):
        raise PreconditionError("key lemma (3) needs alpha, gamma << beta")
    collapse = dfun(n, n, delta, alpha)
    gamma1 = substitute(gamma, name, n, collapse)
    lhs = dfun(n, n, collapse, gamma1)
    rhs = dfun(n, n, delta, beta)
    # The relativized conclusion needs delta's cardinality below n - 1 for its
    # own dominance chain to be defined; samplers enforce that.
    return llrel(n - 1, delta, lhs, rhs)


# The oracle lives in `reference`; its old `*_reference` names resolve there.
def __getattr__(name):
    return reference_attr("buchholz", name)
