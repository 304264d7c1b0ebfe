"""The function-sorted system: a polymorphic cardinal Xi^(J)(arg) that takes
an ordinal argument, one collapse, and function variables.

The key novelty handled here is that critical subterms of a collapse can be
*functions*: a bound collapse is re-levelled, its level-0 cardinal arguments
are pulled out into a distinguished variable (canonical abstraction), and the
resulting body is collected.  Comparisons instantiate those bodies at the
other side's parameters.

Levels are J <= 0 throughout; a variable v^(J) sits strictly between the
cardinals at level J-1 and those at level J, which is why its formal
cardinality is one less than its written level would suggest.  Formal
cardinality at a level J is read off one threshold-free profile per term.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    CACHES,
    KItem,
    NEG_INF,
    FVar,
    InvariantError,
    PreconditionError,
    ShiftError,
    Term,
    Theta,
    VarLev,
    Xi,
    abstract_one,
    check_level,
    fresh_name,
    fvar,
    make_level_walk,
    make_order,
    make_substitution,
    make_walk,
    params,
    reference_attr,
    replace_params,
    substitutable as _substitutable,
    subterms,
    system_checks,
    var_lev,
    xi as mk_xi,
    ZERO,
)

__all__ = [
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
    "instantiate",
    "compare",
    "fsubstitutable",
    "fsubstitute",
]


_check_system, _check_pair = system_checks("xi")


# -- shifting ---------------------------------------------------------------

def shift(t: Term, j: int, d: int) -> Term:
    """Re-level free occurrences at or below threshold j by d.

    Cardinal heads may not cross their threshold upward; a variable may sit
    one step above it (it tracks the cardinal bound there) but its written
    level must stay <= 0.
    """
    _check_system(t)
    check_level(j)
    return _shift(t, j, d)


def _shift_head(t: Term, j: int, d: int):
    if d == 0:
        return t
    tt = type(t)
    if tt is Xi:
        j1 = t.level
        if j1 <= j:
            if j1 + d > j:
                raise ShiftError(f"shifting level {j1} by {d:+d} collides at threshold {j}")
            return mk_xi(j1 + d, t.arg)
    elif tt is VarLev or tt is FVar:
        j1 = t.level
        if j1 <= j:
            if j1 + d > j + 1 or j1 + d > 0:
                what = "variable" if tt is VarLev else "function-variable"
                raise ShiftError(
                    f"shifting {what} level {j1} by {d:+d} collides at threshold {j}"
                )
            return var_lev(t.name, j1 + d) if tt is VarLev else fvar(t.name, j1 + d, t.arg)
    return None


_shift = make_level_walk(_shift_head, memoize="xi._shift")


# -- formal cardinality -----------------------------------------------------

def fc(j: int, t: Term):
    """Formal cardinalities relative to threshold j, and their max."""
    _check_system(t)
    check_level(j)
    values = frozenset(e - j for e, g in _fc_set(None, t) if g <= j)
    return values, max(values, default=NEG_INF)


def fc_max(t: Term):
    _check_system(t)
    return _fc_bar0(t)


def _fc_head(_, t: Term):
    """The profile of t: pairs (e, g), each a formal cardinality e at level 0
    that counts at every level J >= g, as e - J."""
    match t:
        case Xi() | FVar():
            j1 = t.level
            # a function variable sits one class below its cardinal
            own = {(j1 if type(t) is Xi else j1 - 1, j1)}
            return None, t.arg, lambda ps: frozenset((e + j1, g + j1) for e, g in ps) | own
        case Theta():  # the body's profile read at level -1
            return None, t.body, lambda ps: frozenset((e + 1, g + 1) for e, g in ps if g <= -1)
        case VarLev():
            return frozenset({(t.level - 1, t.level)})
    raise InvariantError(f"not a function-sorted term: {t!r}")


_fc_set = make_walk(_fc_head, "xi._fc_set")  # threshold-free: arg is None
_TOP = CACHES["xi._TOP"] = {}  # per serial: the profile's top class, read by collapse clauses


def _fc_bar0(t: Term):
    top = _TOP.get(t.serial)
    if top is None:
        pairs = _fc_set(None, t)
        top = _TOP[t.serial] = max(pairs)[0] if pairs else NEG_INF
    return top


# -- ordinal-variable substitution ------------------------------------------

substitutable, substitute, _subst = make_substitution(
    _check_system, lambda beta, j: _shift(beta, 0, j)
)


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
    check_level(j)
    return _kset(j, t)


def _kset_head(strict: bool):
    """The head clauses of the inclusive and the strict walk.  The inclusive
    walk collects a bound collapse of class exactly j as a function of its
    parameters, which is the ordering's closure device.  The strict walk
    (for the dominance relation) descends into such a collapse instead, as
    the other systems do."""

    def head(j: int, t: Term):
        match t:
            case Xi():
                if t.level < j:
                    return frozenset({KItem(mk_xi(t.level - (j - 1), t.arg))})
                return j - t.level, t.arg
            case Theta():
                fc_bar = _fc_bar0(t)
                if fc_bar < j or (fc_bar == j and not strict):
                    return frozenset({_bound_collapse_item(t, j, _shift)})
                return j - 1, t.body
            case VarLev():
                if t.level < j:
                    return frozenset({KItem(var_lev(t.name, t.level - (j - 1)))})
                return frozenset()
            case FVar():
                if t.level < j:
                    return frozenset({KItem(fvar(t.name, t.level - (j - 1), t.arg))})
                return j - t.level, t.arg
        raise InvariantError(f"not a function-sorted term: {t!r}")

    return head


_kset = make_walk(_kset_head(False), "xi._kset")
_kset_strict = make_walk(_kset_head(True), "xi._kset_strict")


def _bound_collapse_item(t: Term, j: int, shift) -> KItem:
    """Re-level a bound collapse to the root through `shift`, abstract out
    its parameters, and re-level the function body one step out."""
    try:
        lifted = shift(t, 0, -j)
        body, var = abstract_one(lifted)
        body = shift(body, 0, 1)
    except ShiftError as exc:  # pragma: no cover
        raise InvariantError(f"bound collapse failed to re-level: {exc}")
    return KItem(body, var)


def instantiate(item: KItem, value: Term) -> Term:
    """Apply a collected function body to a value (identity when plain)."""
    if item.var is None:
        return item.term
    return _subst(item.term, 0, item.var, value)


# -- ordering -----------------------------------------------------------------

def _legit_candidates(bodies: tuple[Term, ...], collapses: tuple[Term, ...]):
    """Instantiation arguments for the collapses' collected functions: the
    parameters of the compared bodies, capped at the collapses' cardinality
    class (a larger-class argument would jump the comparison out of class),
    plus 0, in `key` order.  The test is structural, so filtering cannot
    re-enter the comparison, and it is symmetric in the two directions, which
    keeps the collapse clauses dual."""
    cap = min(_fc_bar0(c) for c in collapses)
    found: set = {ZERO}
    for body in bodies:
        found.update(params(body))
    return tuple(
        w
        for w in sorted(found, key=lambda p: p.key)
        if w is ZERO or _fc_bar0(w) <= cap
    )


def _class_split(a: Term, b: Term):
    """Cardinality-class guard for collapse comparisons (None: same class).
    Without it, and with functions applied to 0 only, the order has cycles:
    a collapse whose class rides inside an abstracted parameter looks
    vacuously small."""
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
            ws = _legit_candidates((alpha, beta), (a, b))
            if _lt(alpha, beta):
                gs = _kset(0, alpha)
                for w in ws:
                    for g in gs:
                        if not _lt(instantiate(g, w), b):
                            return False
                return True
            if _lt(beta, alpha):
                gs = _kset(0, beta)
                for w in ws:
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
        x, y = a.arg, b.arg  # a function variable
        return j < j1 or (j == j1 and (x is y or _lt(x, y)))
    if ta is FVar and tb is FVar:
        j, j1 = a.level, b.level
        return a.name == b.name and (j < j1 or (j == j1 and _lt(a.arg, b.arg)))
    return False  # distinct variables are incomparable, and x^(J) to V^(K)(y)


compare, _lt = make_order(_head_lt, _check_pair, "xi.compare")


# -- function-variable substitution ------------------------------------------

def fsubstitutable(name: str, j: int, t: Term) -> bool:
    _check_system(t)
    check_level(j, "substitution")
    return _fsubstitutable(t, j, name)


def _occurs_fvar(name: str, t: Term) -> bool:
    return (
        t.has_fvar
        and name in t.var_names
        and any(isinstance(s, FVar) and s.name == name for s in subterms(t))
    )


def _fsubstitutable_head(t: Term, j: int, name: str):
    # A cheap superset test walks down; an ordinal variable may share the
    # name, so a clause that fails first scans for a real occurrence.  No
    # collapse body holds a function variable, so none is entered.
    if not (t.has_fvar and name in t.var_names):
        return True
    tt = type(t)
    if tt is FVar and t.name == name:
        return None if j == t.level else False
    if (tt is Xi or tt is FVar) and j > t.level:
        return not _occurs_fvar(name, t)
    return None


_fsubstitutable = make_level_walk(_fsubstitutable_head, test=True, memoize="xi._fsubstitutable")


def fsubstitute(t: Term, name: str, j: int, body: Term, w: str) -> Term:
    """Replace the function variable by the function `w -> body`: each
    occurrence's argument is substituted for w at level 0."""
    _check_system(t)
    _check_system(body)
    check_level(j, "substitution")
    if not _substitutable(body, 0, w):
        raise PreconditionError(f"argument variable {w!r} is not 0-substitutable")
    if not _fsubstitutable(t, j, name):
        raise PreconditionError(f"function variable {name!r} is not {j}-substitutable")
    return _fsubst(t, j, name, body, w)


def _fsubst_head(t: Term, j: int, name: str, body: Term, w: str):
    # Runs only where `_fsubstitutable` holds, so every occurrence is reached
    # at its own level and its argument at level 0; the kernel maps the
    # argument, nested occurrences included, before `body` takes it.
    if not (t.has_fvar and name in t.var_names):
        return t
    if type(t) is FVar and t.name == name:
        return 0, t.arg, lambda out: _subst(body, 0, w, out)
    return None


_fsubst = make_level_walk(_fsubst_head)


# The oracle and the dominance machinery moved out; their old names resolve there.
def __getattr__(name):
    return reference_attr("xi", name)
