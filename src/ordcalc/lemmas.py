"""The dominance machinery and the sampled Key Lemma items: each system's
dominance value `dfun`, its relation `llrel` (alpha << beta) and its items
`key_lemma_<i>`, named with the system as a prefix.  Only the harness's
Key Lemma runs and fixtures, the `d` and `ll` commands and a forwarded name
(`core.reference_attr`) load it; each section reads its system's module.

poly's and xi's dominance chains are one shape, a `_Chain` row: a start D_0
and a step D_m -> D_{m+1} that wraps D_m in one more collapse.  `dfun(m)`
is m steps from the start, and `llrel`'s loop over the critical entries is
written once, with one cap: each entry walks the chain until the row's stop
rule settles it.  buchholz is not such a row: its chain steps down through
the levels k < n, and its `llrel` checks the critical subterms at every
level m <= n against that level's value.

Each item returns whether its conclusion holds on an instance, and checks
the hypotheses itself, so that a bad sampler cannot weaken the suite.
"""

from __future__ import annotations

from types import ModuleType
from typing import Callable, NamedTuple

from . import buchholz, poly, xi
from .core import (
    NEG_INF, ONE, ZERO, InvariantError, KItem, Outcome, PreconditionError, Term, VarLev, add,
    is_sc, omega_idx, omega_lev, omega_pow, substitutable, subterms, theta, theta_idx,
    xi as mk_xi,
)


def vars_below_top(t: Term) -> bool:
    """Every variable of t is 0-substitutable and none sits at the top level,
    where a dominance wrapper would capture it and block its witnesses."""
    if not t.var_names:
        return True
    for name in t.var_names:
        if not substitutable(t, 0, name):
            return False
    return not any(type(s) is VarLev and s.level == 0 for s in subterms(t))


# -- buchholz --------------------------------------------------------------------

def buchholz_dfun(m: int, n: int, gamma: Term, beta: Term) -> Term:
    """Iterated dominance value: the collapse chain from level n down to m,
    with gamma added at the top level n."""
    if not (1 <= m <= n):
        raise PreconditionError(f"dfun needs 1 <= m <= n, got m={m}, n={n}")
    if not buchholz.fc_max(gamma) < n:
        raise PreconditionError(f"dfun subscript must have cardinality < {n}")
    out = theta_idx(n, add(omega_pow(add(omega_idx(n), beta)), gamma))
    for k in range(n - 1, m - 1, -1):
        out = theta_idx(k, omega_pow(add(omega_idx(k), out)))
    return out


def buchholz_llrel(n: int, gamma: Term, alpha: Term, beta: Term) -> bool:
    """alpha << beta at level n relative to gamma: alpha < beta and every
    critical subterm of alpha at each level m <= n stays below the dominance
    value at m."""
    if n < 0:
        raise PreconditionError(f"llrel level must be >= 0, got {n}")
    if not buchholz.fc_max(gamma) < n:
        raise PreconditionError(f"llrel subscript must have cardinality < {n}")
    if buchholz.compare(alpha, beta) is not Outcome.LESS:
        return False
    for m in range(1, n + 1):
        bound = buchholz_dfun(m, n, gamma, beta)
        for eta in buchholz._kset(m, alpha):
            if not buchholz._lt(eta, bound):
                return False
    return True


def buchholz_key_lemma_1(alpha: Term, beta: Term, name: str, n: int, gamma: Term) -> bool:
    if not is_sc(gamma):
        # A variable stands for a strongly critical value; substituting a sum
        # or an omega power breaks its fixed-point behaviour.
        raise PreconditionError("key lemma (1) needs a strongly critical target")
    if buchholz.compare(alpha, beta) is not Outcome.LESS:
        raise PreconditionError("key lemma (1) needs alpha < beta")
    lhs, rhs = buchholz.substitute(alpha, name, n, gamma), buchholz.substitute(beta, name, n, gamma)
    return buchholz.compare(lhs, rhs) is Outcome.LESS


def buchholz_key_lemma_2(n: int, delta: Term, alpha: Term, beta: Term) -> bool:
    if alpha.vmax >= n or beta.vmax >= n:
        raise PreconditionError("key lemma (2) forbids variables at level >= n")
    if not buchholz_llrel(n, delta, alpha, beta):
        raise PreconditionError("key lemma (2) needs alpha << beta")
    lhs = buchholz_dfun(n, n, delta, alpha)
    rhs = buchholz_dfun(n, n, delta, beta)
    return buchholz_llrel(n - 1, ZERO, lhs, rhs)


def buchholz_key_lemma_3(
    n: int, delta: Term, alpha: Term, beta: Term, gamma: Term, name: str
) -> bool:
    if alpha.vmax >= n or beta.vmax >= n or gamma.vmax > n:
        raise PreconditionError("key lemma (3) variable-scope hypothesis fails")
    # Both order hypotheses first: an instance they reject builds no D_m.
    if not (
        buchholz.compare(alpha, beta) is Outcome.LESS
        and buchholz.compare(gamma, beta) is Outcome.LESS
        and buchholz_llrel(n, delta, alpha, beta)
        and buchholz_llrel(n, delta, gamma, beta)
    ):
        raise PreconditionError("key lemma (3) needs alpha, gamma << beta")
    collapse = buchholz_dfun(n, n, delta, alpha)
    gamma1 = buchholz.substitute(gamma, name, n, collapse)
    lhs = buchholz_dfun(n, n, collapse, gamma1)
    rhs = buchholz_dfun(n, n, delta, beta)
    # The relativized conclusion needs delta's cardinality below n - 1 for its
    # own dominance chain to be defined; samplers enforce that.
    return buchholz_llrel(n - 1, delta, lhs, rhs)


# -- the dominance chain of poly and xi ------------------------------------------

class _Chain(NamedTuple):
    """One system's dominance chain: D_0 = `start(gamma, beta, var)`, D_{m+1} =
    `step(D_m)`, alpha's critical `entries(gamma, alpha, beta)`, and the stop rule
    `settle(entry, D_m)`: True (dominated), False (fails) or None (step on)."""

    system: ModuleType
    start: Callable
    step: Callable
    entries: Callable
    settle: Callable


def _dfun(chain: _Chain, m: int, gamma: Term, beta: Term, var: str | None) -> Term:
    if m < 0:
        raise PreconditionError(f"dfun iteration count must be >= 0, got {m}")
    if not chain.system.fc_max(gamma) < 0:
        raise PreconditionError("dfun subscript must have negative cardinality")
    out = chain.start(gamma, beta, var)
    for _ in range(m):
        out = chain.step(out)
    return out


def _llrel(chain: _Chain, gamma: Term, alpha: Term, beta: Term, var: str | None) -> bool:
    if not chain.system.fc_max(gamma) < 0:
        raise PreconditionError("llrel subscript must have negative cardinality")
    if chain.system.compare(alpha, beta) is not Outcome.LESS:
        return False
    entries = chain.entries(gamma, alpha, beta)
    if not entries:
        return True
    start, step, settle = chain.start(gamma, beta, var), chain.step, chain.settle
    for entry in entries:
        bound = start
        for _ in range(64):
            verdict = settle(entry, bound)
            if verdict is not None:
                break
            bound = step(bound)
        else:
            raise InvariantError("dominance chain failed to settle a critical entry")
        if not verdict:
            return False
    return True


# -- poly ----------------------------------------------------------------------------

_POLY = _Chain(
    poly,
    start=lambda gamma, beta, _: theta(add(omega_pow(add(omega_lev(0), beta)), gamma)),
    step=lambda bound: theta(omega_pow(add(omega_lev(0), bound))),
    entries=lambda gamma, alpha, beta: poly._kset(0, alpha),
    # the first D_m whose class reaches the entry's decides
    settle=lambda eta, d: poly._lt(eta, d) if poly.fc_max(d) <= poly.fc_max(eta) else None,
)


def poly_dfun(m: int, gamma: Term, beta: Term) -> Term:
    """D_m: m+1 nested collapses around beta, gamma added in the innermost."""
    return _dfun(_POLY, m, gamma, beta, None)


def poly_llrel(gamma: Term, alpha: Term, beta: Term) -> bool:
    """alpha << beta relative to gamma, each critical subterm below the first D_m of its class."""
    return _llrel(_POLY, gamma, alpha, beta, None)


def poly_key_lemma_1(alpha: Term, beta: Term, name: str, gamma: Term) -> bool:
    if not is_sc(gamma):
        raise PreconditionError("key lemma (1) needs a strongly critical target")
    if not (poly.substitutable(name, 0, alpha) and poly.substitutable(name, 0, beta)):
        raise PreconditionError("key lemma (1) needs a 0-substitutable variable")
    if not poly.fc_max(gamma) < 0:
        raise PreconditionError("key lemma (1) needs a small substitution target")
    if poly.compare(alpha, beta) is not Outcome.LESS:
        raise PreconditionError("key lemma (1) needs alpha < beta")
    lhs, rhs = poly._subst(alpha, 0, name, gamma), poly._subst(beta, 0, name, gamma)
    return poly.compare(lhs, rhs) is Outcome.LESS


def poly_key_lemma_2(delta: Term, alpha: Term, beta: Term) -> bool:
    if not (vars_below_top(alpha) and vars_below_top(beta)):
        raise PreconditionError("key lemma (2) needs variables below the top level")
    if not poly_llrel(delta, alpha, beta):
        raise PreconditionError("key lemma (2) needs alpha << beta")
    return poly_llrel(ZERO, poly_dfun(0, delta, alpha), poly_dfun(0, delta, beta))


def poly_key_lemma_3(delta: Term, alpha: Term, beta: Term, gamma: Term, name: str) -> bool:
    if not poly.substitutable(name, 0, gamma):
        raise PreconditionError("key lemma (3) needs a 0-substitutable variable")
    # Both order hypotheses first: an instance they reject builds no D_m.
    if not (
        poly.compare(alpha, beta) is Outcome.LESS
        and poly.compare(gamma, beta) is Outcome.LESS
        and poly_llrel(delta, alpha, beta)
        and poly_llrel(delta, gamma, beta)
    ):
        raise PreconditionError("key lemma (3) needs alpha, gamma << beta")
    collapse = poly._shift(poly_dfun(0, delta, alpha), 0, -1)
    lhs = poly_dfun(0, collapse, poly._subst(gamma, 0, name, collapse))
    return poly_llrel(ZERO, lhs, poly_dfun(0, delta, beta))


# -- xi ------------------------------------------------------------------------------

def _xi_entries(gamma: Term, alpha: Term, beta: Term):
    """The strict critical set, whose items are plain terms: a bound collapse is
    collected only below the threshold, where its abstraction finds no parameter."""
    items = xi._kset_strict(0, alpha)
    if items and (beta.has_fvar or gamma.has_fvar):
        # A dominance value wraps its argument in a collapse, which cannot
        # hold a function variable.
        raise PreconditionError("dominance bounds are undefined for function-variable operands")
    return [item.term for item in items]


def _xi_start(gamma: Term, beta: Term, var: str | None) -> Term:
    seed = xi.instantiate(KItem(gamma, var), mk_xi(0, ZERO))  # gamma may be a function
    return theta(add(omega_pow(add(mk_xi(0, ONE), beta)), seed))


_XI = _Chain(
    xi,
    start=_xi_start,
    step=lambda bound: theta(omega_pow(add(mk_xi(0, ONE), bound))),
    entries=_xi_entries,
    # Any D_m above the entry dominates it, up to the first cardinal-free one:
    # the classes of D_0, D_1, ... are not monotone, so none is singled out.
    settle=lambda eta, d: xi._lt(eta, d) or (False if xi._fc_bar0(d) == NEG_INF else None),
)


def xi_dfun(m: int, gamma: Term, beta: Term, var: str | None = None) -> Term:
    """Iterated dominance value; gamma may be a function given by `var`."""
    return _dfun(_XI, m, gamma, beta, var)


def xi_llrel(gamma: Term, alpha: Term, beta: Term, var: str | None = None) -> bool:
    """alpha << beta relative to gamma, for alpha's strict critical set."""
    return _llrel(_XI, gamma, alpha, beta, var)


def xi_key_lemma_1(alpha: Term, beta: Term, gamma: Term, name: str) -> bool:
    if not (is_sc(alpha) and is_sc(beta)):
        raise PreconditionError("key lemma (1) needs strongly critical values")
    if not xi.substitutable(name, 0, gamma):
        raise PreconditionError("key lemma (1) needs a 0-substitutable variable")
    if name not in gamma.var_names:
        raise PreconditionError("key lemma (1) needs the variable to occur")
    if xi.compare(alpha, beta) is not Outcome.LESS:
        raise PreconditionError("key lemma (1) needs alpha < beta")
    lhs, rhs = xi._subst(gamma, 0, name, alpha), xi._subst(gamma, 0, name, beta)
    return xi.compare(lhs, rhs) is Outcome.LESS


def xi_key_lemma_2(delta: Term, alpha: Term, beta: Term, gamma: Term, vname: str, w: str) -> bool:
    # alpha < beta, the first test of alpha << beta below, rejects most
    # instances, so it comes before the walks.
    if xi.compare(alpha, beta) is not Outcome.LESS:
        raise PreconditionError("key lemma (2) needs alpha << beta")
    if not (xi.fsubstitutable(vname, 0, alpha) and xi.fsubstitutable(vname, 0, beta)):
        raise PreconditionError("key lemma (2) needs a 0-substitutable function variable")
    if not (xi.fc_max(gamma) < 0 and xi.substitutable(w, 0, gamma)):
        raise PreconditionError("key lemma (2) needs a small function body")
    if not is_sc(gamma) or isinstance(gamma, VarLev):
        # The applied value must keep a strongly critical head: a bare
        # variable (the identity function) neither majorizes its argument
        # nor absorbs omega powers.
        raise PreconditionError("key lemma (2) needs a head-stable function body")
    if w not in gamma.var_names or not any(
        isinstance(s, VarLev) and s.name == w for s in subterms(gamma)
    ):
        # A constant body collapses distinct arguments, which can reverse
        # comparisons that relied on the argument positions.
        raise PreconditionError("key lemma (2) needs the argument variable to occur")
    if not xi_llrel(delta, alpha, beta):
        raise PreconditionError("key lemma (2) needs alpha << beta")
    lhs = xi.fsubstitute(alpha, vname, 0, gamma, w)
    rhs = xi.fsubstitute(beta, vname, 0, gamma, w)
    # Non-strict: a constant function body collapses both sides to one value.
    return xi.compare(lhs, rhs) in (Outcome.LESS, Outcome.EQUAL)


def xi_key_lemma_3(delta: Term, alpha: Term, beta: Term) -> bool:
    # a function variable would be captured by a dominance wrapper too
    if alpha.has_fvar or beta.has_fvar or not (
        vars_below_top(alpha) and vars_below_top(beta)
    ):
        raise PreconditionError("key lemma (3) needs variables below the top level")
    for t in (delta, alpha, beta):
        if not xi._fc_bar0(t) < -1:
            # Class 0 and class -1 operands re-level to critical entries
            # that no tower over the conclusion's right side can dominate;
            # concrete counterexamples exist, so the item is stated for
            # operands below the boundary class.
            raise PreconditionError("key lemma (3) needs operands below class -1")
    if not xi_llrel(delta, alpha, beta):
        raise PreconditionError("key lemma (3) needs alpha << beta")
    return xi_llrel(ZERO, xi_dfun(0, delta, alpha), xi_dfun(0, delta, beta))


def xi_key_lemma_4(delta: Term, alpha: Term, beta: Term, gamma: Term, vname: str) -> bool:
    if not xi.fsubstitutable(vname, 0, gamma):
        raise PreconditionError("key lemma (4) needs a 0-substitutable function variable")
    if xi._occurs_fvar(vname, beta):
        raise PreconditionError("key lemma (4) forbids the function variable in beta")
    # The class and order hypotheses on the given operands come first: an
    # instance they reject builds neither gamma's content nor a D_m.
    for t in (delta, alpha, beta):
        if not xi._fc_bar0(t) < -1:
            # As in item (3).
            raise PreconditionError("key lemma (4) needs operands below class -1")
    if not (xi.compare(alpha, beta) is Outcome.LESS and xi.compare(gamma, beta) is Outcome.LESS):
        raise PreconditionError("key lemma (4) needs alpha, gamma << beta")
    # A gamma actually carrying the function variable can never sit below
    # such a beta, so the verifiable instances substitute into
    # function-variable-free gamma.
    if not xi._fc_bar0(xi._fsubst(gamma, 0, vname, ZERO, "w")) < -1:
        raise PreconditionError("key lemma (4) needs operands below class -1")
    if not (xi_llrel(delta, alpha, beta) and xi_llrel(delta, gamma, beta)):
        raise PreconditionError("key lemma (4) needs alpha, gamma << beta")
    collapse = xi._shift(xi_dfun(0, delta, alpha), 0, -1)
    lhs = xi_dfun(0, collapse, xi.fsubstitute(gamma, vname, 0, collapse, "w"))
    return xi_llrel(ZERO, lhs, xi_dfun(0, delta, beta))
