"""The function-sorted system: a polymorphic cardinal Xi^(J)(arg) that takes
an ordinal argument, one collapse, and function variables.

The key novelty handled here is that critical subterms of a collapse can be
*functions*: a bound collapse is re-levelled, its level-0 cardinal arguments
are pulled out into a distinguished variable (canonical abstraction), and the
resulting body is collected.  Comparisons instantiate those bodies at the
other side's parameters.

Levels are J <= 0 throughout; a variable v^(J) sits strictly between the
cardinals at level J-1 and those at level J, which is why its formal
cardinality is one less than its written level would suggest.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .core import (
    KItem,
    NEG_INF,
    SYS_XI,
    FVar,
    InvariantError,
    Outcome,
    OmegaPow,
    PreconditionError,
    ShiftError,
    Sum,
    Term,
    Theta,
    VarLev,
    Xi,
    abstract_one,
    add,
    collect_params,
    fresh_name,
    fvar,
    is_sc,
    make_order,
    make_reference,
    omega_pow,
    params,
    replace_params,
    subterms,
    sum_of,
    theta,
    var_lev,
    xi as mk_xi,
    ONE,
    ZERO,
)

__all__ = [
    "ComparePolicy",
    "set_policy",
    "get_policy",
    "shift",
    "fc",
    "fc_max",
    "substitutable",
    "substitute",
    "Abstraction",
    "abstract",
    "apply_abstraction",
    "parameters",
    "kappa",
    "kset",
    "kset_reference",
    "instantiate",
    "compare",
    "compare_reference",
    "fsubstitutable",
    "fsubstitute",
    "dfun",
    "llrel",
    "key_lemma_1",
    "key_lemma_2",
    "key_lemma_3",
    "key_lemma_4",
]


class ComparePolicy(Enum):
    """How collected function bodies are instantiated during comparisons.

    LITERAL_ZERO is the bare reading: functions are applied to 0 only, with
    no cardinality-class guard, and the collapse-versus-collapse bullets use
    only the opposite side's parameters.  That reading admits comparison
    cycles (a collapse whose class rides inside an abstracted parameter
    looks vacuously small), so the default SYMMETRIC_PARAMS reading guards
    collapse comparisons by cardinality class and applies functions to the
    parameters of both compared bodies plus 0, which restores totality.
    """

    LITERAL_ZERO = "literal-zero"
    SYMMETRIC_PARAMS = "symmetric-params"


_POLICY = ComparePolicy.SYMMETRIC_PARAMS

_FC: dict[tuple[int, int], frozenset] = {}
_K: dict[tuple[int, int, bool], frozenset] = {}
# The per-serial top class `_fc_bar0`, read by the collapse clauses with
# the parameters of `core.params`.  The policy changes neither, so
# `set_policy` leaves them alone.
_TOP: dict[int, float] = {}


def set_policy(policy: ComparePolicy):
    global _POLICY
    if policy is not _POLICY:
        _POLICY = policy
        _LT.clear()


def get_policy() -> ComparePolicy:
    return _POLICY


def _check_system(t: Term):
    if not t.in_system("xi"):
        raise PreconditionError(f"term {t!r} is not a function-sorted-system term")


def _check_level(j: int):
    if j > 0:
        raise PreconditionError(f"threshold level must be <= 0, got {j}")


# -- shifting ---------------------------------------------------------------

def shift(t: Term, j: int, d: int) -> Term:
    """Re-level free occurrences at or below threshold j by d.

    Cardinal heads may not cross their threshold upward; a variable may sit
    one step above it (it tracks the cardinal bound there) but its written
    level must stay <= 0.
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
        case Xi(j1, arg):
            if j1 <= j:
                if j1 + d > j:
                    raise ShiftError(
                        f"shifting level {j1} by {d:+d} collides at threshold {j}"
                    )
                return mk_xi(j1 + d, arg)
            return mk_xi(j1, _shift(arg, j - j1, d))
        case Theta(body):
            return theta(_shift(body, j - 1, d))
        case VarLev(name, j1):
            if j1 > j:
                return t
            if j1 + d > j + 1 or j1 + d > 0:
                raise ShiftError(
                    f"shifting variable level {j1} by {d:+d} collides at threshold {j}"
                )
            return var_lev(name, j1 + d)
        case FVar(name, j1, arg):
            if j1 <= j:
                if j1 + d > j + 1 or j1 + d > 0:
                    raise ShiftError(
                        f"shifting function-variable level {j1} by {d:+d} "
                        f"collides at threshold {j}"
                    )
                return fvar(name, j1 + d, arg)
            return fvar(name, j1, _shift(arg, j - j1, d))
    raise InvariantError(f"not a function-sorted term: {t!r}")


# -- formal cardinality -----------------------------------------------------

def fc(j: int, t: Term):
    """Formal cardinalities relative to threshold j, and their max."""
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
        case Xi(j1, arg):
            if j1 <= j:
                rel = j1 - j
                out = frozenset({rel}) | frozenset(x + rel for x in _fc_set(0, arg))
            else:
                out = _fc_set(j - j1, arg)
        case Theta(body):
            out = _fc_set(j - 1, body)
        case VarLev(_, j1):
            out = frozenset({j1 - j - 1}) if j1 <= j else frozenset()
        case FVar(_, j1, arg):
            if j1 <= j:
                rel = j1 - j
                out = frozenset({rel - 1}) | frozenset(
                    x + rel for x in _fc_set(0, arg)
                )
            else:
                out = _fc_set(j - j1, arg)
        case _:
            raise InvariantError(f"not a function-sorted term: {t!r}")
    _FC[memo_key] = out
    return out


def _fc_bar0(t: Term):
    top = _TOP.get(t.serial)
    if top is None:
        values = _fc_set(0, t)
        top = _TOP[t.serial] = max(values) if values else NEG_INF
    return top


# -- ordinal-variable substitution ------------------------------------------

def substitutable(name: str, j: int, t: Term) -> bool:
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
        case Xi(j1, arg) | FVar(_, j1, arg):
            return j <= j1 and _substitutable(name, j - j1, arg)
        case Theta(body):
            return _substitutable(name, j - 1, body)
        case VarLev(w, j1):
            return w != name or j == j1
    raise InvariantError(f"not a function-sorted term: {t!r}")


def substitute(t: Term, name: str, j: int, beta: Term) -> Term:
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
        case Xi(j1, arg):
            return mk_xi(j1, _subst(arg, name, j - j1, beta)) if j <= j1 else t
        case Theta(body):
            return theta(_subst(body, name, j - 1, beta))
        case VarLev(w, _):
            return _shift(beta, 0, j) if w == name else t
        case FVar(f, j1, arg):
            return fvar(f, j1, _subst(arg, name, j - j1, beta)) if j <= j1 else t
    return t


# -- parameters and canonical abstraction ------------------------------------

def parameters(t: Term) -> tuple[Term, ...]:
    """All parameters of t (level-0 values of its abstraction), key-sorted."""
    _check_system(t)
    return params(t)


class Abstraction(NamedTuple):
    """body with `variables[i]` standing for `parameters[i]` at level 0;
    substituting them back reproduces the source term exactly."""

    body: Term
    variables: tuple[str, ...]
    parameters: tuple[Term, ...]


def abstract(t: Term) -> Abstraction:
    """Canonical abstraction: pull out every maximal cardinal-head occurrence
    realizable as a level-0 parameter; equal values share one variable."""
    _check_system(t)
    values = parameters(t)
    if not values:
        return Abstraction(body=t, variables=(), parameters=())
    taken = set(t.var_names)
    names: dict[Term, str] = {}
    variables = []
    for p in values:
        name = fresh_name(f"p{len(variables) + 1}", taken)
        taken.add(name)
        names[p] = name
        variables.append(name)
    body = replace_params(t, 0, names)
    if not _fc_bar0(body) < 0:
        raise InvariantError(f"abstraction body kept a level-0 cardinal: {body!r}")
    return Abstraction(body=body, variables=tuple(variables), parameters=values)


def apply_abstraction(a: Abstraction) -> Term:
    out = a.body
    for name, value in zip(a.variables, a.parameters):
        out = substitute(out, name, 0, value)
    return out


def kappa(t: Term):
    """Fine cardinality: -inf for cardinal-free terms, else the largest
    argument among the term's parameters."""
    _check_system(t)
    top = _fc_bar0(t)
    if top == NEG_INF:
        return NEG_INF
    if top != 0:
        raise PreconditionError(
            f"fine cardinality needs top cardinality 0 or none, got {top}"
        )
    args = [p.arg for p in parameters(t)]
    if not args:
        raise InvariantError(f"top cardinality 0 without parameters: {t!r}")
    best = args[0]
    for cand in sorted(args[1:], key=lambda x: x.key):
        if _lt(best, cand):
            best = cand
    return best


# -- critical subterms --------------------------------------------------------

def kset(j: int, t: Term) -> frozenset[KItem]:
    """Critical subterms below threshold j.  Entries collected from a bound
    collapse are function bodies carrying a distinguished variable."""
    _check_system(t)
    _check_level(j)
    return _kset(j, t)


def _kset(j: int, t: Term, strict: bool = False) -> frozenset[KItem]:
    """The inclusive walk collects a bound collapse of class exactly j as a
    function of its parameters, which is the ordering's closure device.  The
    strict walk (for the dominance relation) descends into such a collapse
    instead, as the other systems do."""
    memo_key = (j, t.serial, strict)
    cached = _K.get(memo_key)
    if cached is not None:
        return cached
    match t:
        case Sum(children):
            out = frozenset().union(*(_kset(j, c, strict) for c in children))
        case OmegaPow(e):
            out = _kset(j, e, strict)
        case Xi(j1, arg):
            if j1 < j:
                out = frozenset({KItem(mk_xi(j1 - (j - 1), arg))})
            else:
                out = _kset(j - j1, arg, strict)
        case Theta(body):
            fc_bar = _fc_bar0(t)
            if fc_bar < j or (fc_bar == j and not strict):
                out = frozenset({_bound_collapse_item(t, j)})
            else:
                out = _kset(j - 1, body, strict)
        case VarLev(name, j1):
            if j1 < j:
                out = frozenset({KItem(var_lev(name, j1 - (j - 1)))})
            else:
                out = frozenset()
        case FVar(name, j1, arg):
            if j1 < j:
                out = frozenset({KItem(fvar(name, j1 - (j - 1), arg))})
            else:
                out = _kset(j - j1, arg, strict)
        case _:
            raise InvariantError(f"not a function-sorted term: {t!r}")
    _K[memo_key] = out
    return out


def _bound_collapse_item(t: Term, j: int) -> KItem:
    """Re-level a bound collapse to the root, abstract out its parameters,
    and re-level the function body one step out."""
    try:
        lifted = _shift(t, 0, -j)
        body, var = abstract_one(lifted)
        body = _shift(body, 0, 1)
    except ShiftError as exc:  # pragma: no cover
        raise InvariantError(f"bound collapse failed to re-level: {exc}")
    return KItem(body, var)


def instantiate(item: KItem, value: Term) -> Term:
    """Apply a collected function body to a value (identity when plain)."""
    if item.var is None:
        return item.term
    return _subst(item.term, item.var, 0, value)


# -- ordering -----------------------------------------------------------------

def _check_pair(a: Term, b: Term):
    if not a.mask & b.mask & SYS_XI:
        _check_system(a)
        _check_system(b)


def _candidates(*bodies: Term) -> tuple[Term, ...]:
    """Arguments at which collected functions are applied: 0 together with
    every parameter of the given bodies.  Using the same candidate set for
    both comparison directions keeps the collapse clauses dual."""
    found: set = {ZERO}
    for body in bodies:
        found.update(params(body))
    return tuple(sorted(found, key=lambda p: p.key))


def _legit_candidates(bodies: tuple[Term, ...], collapses: tuple[Term, ...]):
    """Instantiation arguments for the collapses' collected functions: the
    parameters of the compared bodies, capped at the collapses' cardinality
    class (a larger-class argument would jump the comparison out of class),
    plus 0.  The test is structural, so filtering cannot re-enter the
    comparison, and it is symmetric in the two directions."""
    if _POLICY is ComparePolicy.LITERAL_ZERO:
        return (ZERO,)
    cap = min(_fc_bar0(c) for c in collapses)
    return tuple(
        w for w in _candidates(*bodies) if w is ZERO or _fc_bar0(w) <= cap
    )


def _class_split(a: Term, b: Term):
    """Cardinality-class guard for collapse comparisons (None: same class)."""
    if _POLICY is ComparePolicy.LITERAL_ZERO:
        return None
    fa, fb = _fc_bar0(a), _fc_bar0(b)
    if fa == fb:
        return None
    return fa < fb


def _head_lt(a: Term, b: Term) -> bool:
    """a < b for strongly critical a and b (heads Xi^(J)(x), theta, x^(J)
    and V^(J)(x))."""
    ta, tb = type(a), type(b)
    if ta is Theta:
        if tb is Theta:
            split = _class_split(a, b)
            if split is not None:
                return split
            alpha, beta = a.body, b.body
            if _POLICY is ComparePolicy.LITERAL_ZERO:
                # each side's functions at the other side's parameters only
                ws_alpha = params(beta) or (ZERO,)
                ws_beta = params(alpha) or (ZERO,)
            else:
                ws_alpha = ws_beta = _legit_candidates((alpha, beta), (a, b))
            if _lt(alpha, beta):
                gs = _kset(0, alpha)
                for w in ws_alpha:
                    for g in gs:
                        if not _lt(instantiate(g, w), b):
                            return False
                return True
            if _lt(beta, alpha):
                gs = _kset(0, beta)
                for w in ws_beta:
                    for g in gs:
                        x = instantiate(g, w)
                        if a is x or _lt(a, x):
                            return True
            return False
        if tb is Xi:
            split = _class_split(a, b)
            if split is not None:
                return split
            alpha = a.body
            ws = _legit_candidates((alpha,), (a,))
            gs = _kset(0, alpha)
            for w in ws:
                for g in gs:
                    if not _lt(instantiate(g, w), b):
                        return False
            return True
        return False  # left incomparable to a variable: a vacuous bound is not stable
    if tb is Theta:  # a cardinal, a variable or a function variable
        if ta is Xi:
            split = _class_split(a, b)
            if split is not None:
                return split
        beta = b.body
        ws = _legit_candidates((beta,), (b,))
        gs = _kset(0, beta)
        for w in ws:
            for g in gs:
                x = instantiate(g, w)
                if a is x or _lt(a, x):
                    return True
        return False
    if tb is Xi:
        j, j1 = a.level, b.level
        if ta is Xi:
            return j < j1 or (j == j1 and _lt(a.arg, b.arg))
        if ta is VarLev:
            return j <= j1
        return j < j1 or (j == j1 and _leq(a.arg, b.arg))  # a function variable
    if ta is FVar and tb is FVar:
        j, j1 = a.level, b.level
        return a.name == b.name and (j < j1 or (j == j1 and _lt(a.arg, b.arg)))
    return False  # distinct variables are incomparable, and x^(J) to V^(K)(y)


compare, _lt, _leq, _LT = make_order(_head_lt, _check_pair)


# -- function-variable substitution ------------------------------------------

def fsubstitutable(name: str, j: int, t: Term) -> bool:
    _check_system(t)
    return _fsubstitutable(name, j, t)


def _occurs_fvar(name: str, t: Term) -> bool:
    return (
        t.has_fvar
        and name in t.var_names
        and any(isinstance(s, FVar) and s.name == name for s in subterms(t))
    )


def _fsubstitutable(name: str, j: int, t: Term) -> bool:
    if not _occurs_fvar(name, t):
        return True
    match t:
        case Sum(children):
            return all(_fsubstitutable(name, j, c) for c in children)
        case OmegaPow(e):
            return _fsubstitutable(name, j, e)
        case Xi(j1, arg):
            return j <= j1 and _fsubstitutable(name, j - j1, arg)
        case Theta(_):
            return False  # a function variable may not occur under a collapse
        case VarLev(_, _):
            return True
        case FVar(f, j1, arg):
            if f == name:
                return j == j1 and _fsubstitutable(name, 0, arg)
            return j <= j1 and _fsubstitutable(name, j - j1, arg)
    raise InvariantError(f"not a function-sorted term: {t!r}")


def fsubstitute(t: Term, name: str, j: int, body: Term, w: str) -> Term:
    """Replace the function variable by the function `w -> body`: each
    occurrence's argument is substituted for w at level 0."""
    _check_system(t)
    _check_system(body)
    if not _substitutable(w, 0, body):
        raise PreconditionError(f"argument variable {w!r} is not 0-substitutable")
    if not _fsubstitutable(name, j, t):
        raise PreconditionError(f"function variable {name!r} is not {j}-substitutable")
    return _fsubst(t, name, j, body, w)


def _fsubst(t: Term, name: str, j: int, body: Term, w: str) -> Term:
    if not _occurs_fvar(name, t):
        return t
    match t:
        case Sum(children):
            return sum_of(_fsubst(c, name, j, body, w) for c in children)
        case OmegaPow(e):
            return omega_pow(_fsubst(e, name, j, body, w))
        case Xi(j1, arg):
            return mk_xi(j1, _fsubst(arg, name, j - j1, body, w))
        case FVar(f, j1, arg):
            if f == name:
                inner = _fsubst(arg, name, 0, body, w)
                return _subst(body, w, 0, inner)
            return fvar(f, j1, _fsubst(arg, name, j - j1, body, w))
    return t


# -- dominance ----------------------------------------------------------------

def _apply_fn(gamma: Term, var: str | None, value: Term) -> Term:
    return gamma if var is None else _subst(gamma, var, 0, value)


def dfun(m: int, gamma: Term, beta: Term, var: str | None = None) -> Term:
    """Iterated dominance value; gamma may be a function given by `var`."""
    if m < 0:
        raise PreconditionError(f"dfun iteration count must be >= 0, got {m}")
    if not fc_max(gamma) < 0:
        raise PreconditionError("dfun subscript must have negative cardinality")
    seed = _apply_fn(gamma, var, mk_xi(0, ZERO))
    out = theta(add(omega_pow(add(mk_xi(0, ONE), beta)), seed))
    for _ in range(m):
        out = theta(omega_pow(add(mk_xi(0, ONE), out)))
    return out


class _Tower:
    """The dominance tower up to its stable (cardinal-free) level.  A
    critical subterm is dominated if it falls below any level: levels of
    strictly larger class dominate outright, and the level matching the
    subterm's class carries the real comparison.  (The tower's classes are
    not monotone, so no single level can be singled out in advance.)

    Levels are built on demand and kept, so the items of one `llrel` call
    share them."""

    def __init__(self, gamma: Term, beta: Term, var: str | None):
        self._seed = (gamma, beta, var)
        self._levels: list[Term] = []

    def __iter__(self):
        levels = self._levels
        for i in range(64):
            if i == len(levels):
                if levels and _fc_bar0(levels[-1]) == NEG_INF:
                    return
                levels.append(
                    theta(omega_pow(add(mk_xi(0, ONE), levels[-1])))
                    if levels
                    else dfun(0, *self._seed)
                )
            yield levels[i]
        if _fc_bar0(levels[-1]) != NEG_INF:
            raise InvariantError("dominance tower failed to stabilize")


def llrel(gamma: Term, alpha: Term, beta: Term, var: str | None = None) -> bool:
    """alpha << beta relative to gamma.  Every item of the strict critical
    set is a plain term: a bound collapse is collected only when its class is
    below the threshold j, and lifting it by -j leaves every level-0
    cardinality negative, so its abstraction finds no parameter."""
    if not fc_max(gamma) < 0:
        raise PreconditionError("llrel subscript must have negative cardinality")
    if compare(alpha, beta) is not Outcome.LESS:
        return False
    items = _kset(0, alpha, strict=True)
    if items and (beta.has_fvar or gamma.has_fvar):
        # Dominance values wrap their argument in a collapse, which cannot
        # hold a function variable; with critical subterms to bound, the
        # relation is undefined for such operands.
        raise PreconditionError(
            "dominance bounds are undefined for function-variable operands"
        )
    tower = _Tower(gamma, beta, var)
    for item in items:
        if not any(_lt(item.term, bound) for bound in tower):
            return False
    return True


# -- Key Lemma items -----------------------------------------------------------

def key_lemma_1(alpha: Term, beta: Term, gamma: Term, name: str) -> bool:
    if not (is_sc(alpha) and is_sc(beta)):
        raise PreconditionError("key lemma (1) needs strongly critical values")
    if not substitutable(name, 0, gamma):
        raise PreconditionError("key lemma (1) needs a 0-substitutable variable")
    if name not in gamma.var_names:
        raise PreconditionError("key lemma (1) needs the variable to occur")
    if compare(alpha, beta) is not Outcome.LESS:
        raise PreconditionError("key lemma (1) needs alpha < beta")
    lhs = _subst(gamma, name, 0, alpha)
    rhs = _subst(gamma, name, 0, beta)
    return compare(lhs, rhs) is Outcome.LESS


def key_lemma_2(
    delta: Term, alpha: Term, beta: Term, gamma: Term, vname: str, w: str
) -> bool:
    if not (fsubstitutable(vname, 0, alpha) and fsubstitutable(vname, 0, beta)):
        raise PreconditionError("key lemma (2) needs a 0-substitutable function variable")
    if not (fc_max(gamma) < 0 and substitutable(w, 0, gamma)):
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
    if not llrel(delta, alpha, beta):
        raise PreconditionError("key lemma (2) needs alpha << beta")
    lhs = fsubstitute(alpha, vname, 0, gamma, w)
    rhs = fsubstitute(beta, vname, 0, gamma, w)
    # Non-strict: a constant function body collapses both sides to one value.
    return compare(lhs, rhs) in (Outcome.LESS, Outcome.EQUAL)


def _all_vars_below_top(t: Term) -> bool:
    """Every ordinal variable sits at its matching ambient position strictly
    below the top level, and no function variable is present (a top-level
    or function variable would be captured by a dominance wrapper)."""
    if t.has_fvar:
        return False
    for name in t.var_names:
        if not _substitutable(name, 0, t):
            return False
        if any(
            isinstance(s, VarLev) and s.name == name and s.level == 0
            for s in subterms(t)
        ):
            return False
    return True


def key_lemma_3(delta: Term, alpha: Term, beta: Term) -> bool:
    if not (_all_vars_below_top(alpha) and _all_vars_below_top(beta)):
        raise PreconditionError("key lemma (3) needs variables below the top level")
    for t in (delta, alpha, beta):
        if not _fc_bar0(t) < -1:
            # Class 0 and class -1 operands re-level to critical entries
            # that no tower over the conclusion's right side can dominate;
            # concrete counterexamples exist, so the item is stated for
            # operands below the boundary class.
            raise PreconditionError("key lemma (3) needs operands below class -1")
    if not llrel(delta, alpha, beta):
        raise PreconditionError("key lemma (3) needs alpha << beta")
    return llrel(ZERO, dfun(0, delta, alpha), dfun(0, delta, beta))


def key_lemma_4(
    delta: Term, alpha: Term, beta: Term, gamma: Term, vname: str
) -> bool:
    if not fsubstitutable(vname, 0, gamma):
        raise PreconditionError("key lemma (4) needs a 0-substitutable function variable")
    if _occurs_fvar(vname, beta):
        raise PreconditionError("key lemma (4) forbids the function variable in beta")
    gamma_content = _fsubst(gamma, vname, 0, ZERO, "w")
    for t in (delta, alpha, beta, gamma_content):
        if not _fc_bar0(t) < -1:
            # As in item (3); note a gamma actually carrying the function
            # variable can never sit below such a beta, so the verifiable
            # instances substitute into function-variable-free gamma.
            raise PreconditionError("key lemma (4) needs operands below class -1")
    if not (llrel(delta, alpha, beta) and llrel(delta, gamma, beta)):
        raise PreconditionError("key lemma (4) needs alpha, gamma << beta")
    collapse = _shift(dfun(0, delta, alpha), 0, -1)
    gamma1 = fsubstitute(gamma, vname, 0, collapse, "w")
    lhs = dfun(0, collapse, gamma1)
    return llrel(ZERO, lhs, dfun(0, delta, beta))


# -- Reference implementations -------------------------------------------------

def _ref_fc_set(j: int, t: Term) -> frozenset:
    match t:
        case Sum(children):
            return frozenset().union(*(_ref_fc_set(j, c) for c in children))
        case OmegaPow(e):
            return _ref_fc_set(j, e)
        case Xi(j1, arg):
            if j1 <= j:
                rel = j1 - j
                return frozenset({rel}) | frozenset(
                    x + rel for x in _ref_fc_set(0, arg)
                )
            return _ref_fc_set(j - j1, arg)
        case Theta(body):
            return _ref_fc_set(j - 1, body)
        case VarLev(_, j1):
            return frozenset({j1 - j - 1}) if j1 <= j else frozenset()
        case FVar(_, j1, arg):
            if j1 <= j:
                rel = j1 - j
                return frozenset({rel - 1}) | frozenset(
                    x + rel for x in _ref_fc_set(0, arg)
                )
            return _ref_fc_set(j - j1, arg)
    raise InvariantError(f"not a function-sorted term: {t!r}")


def kset_reference(j: int, t: Term) -> frozenset[KItem]:
    match t:
        case Sum(children):
            return frozenset().union(*(kset_reference(j, c) for c in children))
        case OmegaPow(e):
            return kset_reference(j, e)
        case Xi(j1, arg):
            if j1 < j:
                return frozenset({KItem(mk_xi(j1 - (j - 1), arg))})
            return kset_reference(j - j1, arg)
        case Theta(body):
            values = _ref_fc_set(0, t)
            top = max(values) if values else NEG_INF
            if top <= j:
                return frozenset({_bound_collapse_item(t, j)})
            return kset_reference(j - 1, body)
        case VarLev(name, j1):
            if j1 < j:
                return frozenset({KItem(var_lev(name, j1 - (j - 1)))})
            return frozenset()
        case FVar(name, j1, arg):
            if j1 < j:
                return frozenset({KItem(fvar(name, j1 - (j - 1), arg))})
            return kset_reference(j - j1, arg)
    raise InvariantError(f"not a function-sorted term: {t!r}")


def _ref_params(body: Term) -> set:
    found: set = set()
    collect_params(body, 0, found)
    return found


def _ref_candidates(*bodies: Term) -> list[Term]:
    if _POLICY is ComparePolicy.LITERAL_ZERO:
        return [ZERO]
    found: set = {ZERO}
    for body in bodies:
        found |= _ref_params(body)
    return sorted(found, key=lambda p: p.key)


def _ref_cross_candidates(own: Term, other: Term) -> list[Term]:
    if _POLICY is ComparePolicy.LITERAL_ZERO:
        return sorted(_ref_params(other), key=lambda p: p.key) or [ZERO]
    return _ref_candidates(own, other)


def _ref_legit_candidates(bodies, collapses):
    if _POLICY is ComparePolicy.LITERAL_ZERO:
        return [ZERO]
    cap = min(max(_ref_fc_set(0, c), default=NEG_INF) for c in collapses)
    return [
        w
        for w in _ref_candidates(*bodies)
        if w is ZERO or max(_ref_fc_set(0, w), default=NEG_INF) <= cap
    ]


def _ref_class_split(a: Term, b: Term):
    if _POLICY is ComparePolicy.LITERAL_ZERO:
        return None
    fa = max(_ref_fc_set(0, a), default=NEG_INF)
    fb = max(_ref_fc_set(0, b), default=NEG_INF)
    if fa == fb:
        return None
    return fa < fb


def _ref_head_lt(a: Term, b: Term) -> bool:
    match a, b:
        case (Xi(j, x), Xi(j1, y)):
            return j < j1 or (j == j1 and _ref_lt(x, y))
        case (Xi(_, _), Theta(beta)):
            split = _ref_class_split(a, b)
            if split is not None:
                return split
            return any(
                _ref_leq(a, instantiate(g, w))
                for w in _ref_legit_candidates((beta,), (b,))
                for g in kset_reference(0, beta)
            )
        case (Theta(alpha), Xi(_, _)):
            split = _ref_class_split(a, b)
            if split is not None:
                return split
            return all(
                _ref_lt(instantiate(g, w), b)
                for w in _ref_legit_candidates((alpha,), (a,))
                for g in kset_reference(0, alpha)
            )
        case (Theta(alpha), Theta(beta)):
            split = _ref_class_split(a, b)
            if split is not None:
                return split
            if _POLICY is ComparePolicy.LITERAL_ZERO:
                if _ref_lt(alpha, beta):
                    return all(
                        _ref_lt(instantiate(g, w), b)
                        for w in _ref_cross_candidates(alpha, beta)
                        for g in kset_reference(0, alpha)
                    )
                if _ref_lt(beta, alpha):
                    return any(
                        _ref_leq(a, instantiate(g, w))
                        for w in _ref_cross_candidates(beta, alpha)
                        for g in kset_reference(0, beta)
                    )
                return False
            ws = _ref_legit_candidates((alpha, beta), (a, b))
            if _ref_lt(alpha, beta):
                return all(
                    _ref_lt(instantiate(g, w), b)
                    for w in ws
                    for g in kset_reference(0, alpha)
                )
            if _ref_lt(beta, alpha):
                return any(
                    _ref_leq(a, instantiate(g, w))
                    for w in ws
                    for g in kset_reference(0, beta)
                )
            return False
        case (VarLev(_, j), Xi(j1, _)):
            return j <= j1
        case (VarLev(_, _), VarLev(_, _)):
            return False
        case (VarLev(_, _) | FVar(_, _, _), Theta(beta)):
            return any(
                _ref_leq(a, instantiate(g, w))
                for w in _ref_legit_candidates((beta,), (b,))
                for g in kset_reference(0, beta)
            )
        case (Theta(_), VarLev(_, _) | FVar(_, _, _)):
            return False
        case (FVar(_, j, x), Xi(j1, y)):
            return j < j1 or (j == j1 and _ref_leq(x, y))
        case (FVar(f, j, x), FVar(g, j1, y)):
            return f == g and (j < j1 or (j == j1 and _ref_lt(x, y)))
    return False


compare_reference, _ref_lt, _ref_leq = make_reference(_ref_head_lt)
