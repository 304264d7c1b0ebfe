"""The mixed system: a ladder of plain cardinals Omega_n below a polymorphic
function-sorted cardinal Xi, with a second tier of polymorphic cardinals
Omega_(Omega+n) caught in Xi's level loop, and one collapse per cardinal
family.

Formal cardinalities form the lattice

    -inf < 1 < 2 < ... < (J,0) < (J,1) < ... < (J,inf) < (J+1,0) < ... < (0,inf)

where (J,0) is the class of Xi^(J), (J,n) that of the upper cardinal with
index n at level J, and (J,inf) the gap state between level J and J+1.
Thresholds for shifting and critical-subterm collection are "large"
(pair-shaped) values of this lattice.  Formal cardinality below such a
threshold is read off one threshold-free profile per term.
"""

from __future__ import annotations

import math

from .core import (
    CACHES,
    KItem,
    InvariantError,
    Outcome,
    OmegaHigh,
    OmegaIdx,
    OmegaPow,
    PreconditionError,
    ShiftError,
    Sum,
    Term,
    ThetaHigh,
    ThetaLow,
    ThetaXi,
    VarLev,
    Xi,
    abstract_one,
    make_level_walk,
    make_order,
    make_substitution,
    make_walk,
    omega_high,
    params,
    reference_attr,
    system_checks,
    var_lev,
    xi as mk_xi,
    ZERO,
)

__all__ = [
    "INF",
    "MCard",
    "CARD_NEG_INF",
    "FULL",
    "fin",
    "large",
    "card_compare",
    "card_minus_level",
    "card_min_nat",
    "level_minus_card",
    "parse_card",
    "shift",
    "fc",
    "fc_max",
    "substitutable",
    "substitute",
    "parameters",
    "kset_low",
    "kset_high",
    "kset_xi",
    "instantiate",
    "critical_sets",
    "compare",
]

INF = math.inf


class MCard:
    """A formal cardinality of the mixed system, ordered via its rank."""

    __slots__ = ("rank",)

    def __init__(self, rank: tuple):
        object.__setattr__(self, "rank", rank)

    @property
    def is_large(self) -> bool:
        return self.rank[0] == 2

    @property
    def j(self) -> int:
        if not self.is_large:
            raise PreconditionError(f"{self} has no level component")
        return self.rank[1]

    @property
    def m(self):
        if not self.is_large:
            raise PreconditionError(f"{self} has no second component")
        return self.rank[2]

    def __eq__(self, other):
        return isinstance(other, MCard) and self.rank == other.rank

    def __lt__(self, other):
        return self.rank < other.rank

    def __le__(self, other):
        return self.rank <= other.rank

    def __gt__(self, other):
        return self.rank > other.rank

    def __ge__(self, other):
        return self.rank >= other.rank

    def __hash__(self):
        return hash(self.rank)

    def __repr__(self):
        return f"MCard({self})"

    def __str__(self):
        kind = self.rank[0]
        if kind == 0:
            return "-inf"
        if kind == 1:
            return str(self.rank[1])
        m = self.rank[2]
        return f"({self.rank[1]},{'inf' if m == INF else m})"


CARD_NEG_INF = MCard((0,))


def fin(n: int) -> MCard:
    if n < 1:
        raise PreconditionError(f"finite cardinality must be >= 1, got {n}")
    return MCard((1, n))


def large(j: int, m) -> MCard:
    # Levels above 0 cannot head a term but do arise as recursion thresholds
    # (descending into a function cardinal's argument raises the threshold).
    if m != INF and (not isinstance(m, int) or m < 0):
        raise PreconditionError(f"large cardinality index must be >= 0 or inf, got {m}")
    return MCard((2, j, m))


FULL = large(0, INF)


def card_compare(a: MCard, b: MCard) -> Outcome:
    if a == b:
        return Outcome.EQUAL
    return Outcome.LESS if a < b else Outcome.GREATER


def card_minus_level(c: MCard, j: int) -> MCard:
    """(J', n) - J = (J' - J, inf)."""
    return large(c.j - j, INF)


def card_min_nat(c: MCard, n: int) -> MCard:
    """min{(J, m), n} = (J, min{m, n})."""
    return large(c.j, n if n < c.m else c.m)


def level_minus_card(j1: int, c: MCard) -> int:
    """J' - (J, n) = J' - J."""
    return j1 - c.j


def parse_card(text: str) -> MCard:
    """Read "-inf", a natural number, or "(J,m)" with m a natural or "inf"."""
    s = text.strip()
    if s == "-inf":
        return CARD_NEG_INF
    try:
        if s.startswith("(") and s.endswith(")"):
            j, m = s[1:-1].split(",")
            return large(int(j), INF if m.strip() == "inf" else int(m))
        return fin(int(s))
    except ValueError:
        raise PreconditionError(f"malformed cardinality {text!r}") from None


# A collapse's own critical set, per serial: plain terms for thO and thOO,
# KItems for thXi.  A thXi entry's instantiation depends on the other
# side's parameters, so it is made per call and never stored.
_FAMILY = CACHES["mixed._FAMILY"] = {}


_check_system, _check_pair = system_checks("mixed")


def _check_large(c: MCard):
    if not isinstance(c, MCard) or not c.is_large:
        raise PreconditionError(f"threshold must be a large cardinality, got {c}")


# -- shifting ---------------------------------------------------------------

def shift(t: Term, c: MCard, d: int) -> Term:
    """Re-level polymorphic heads whose cardinality lies below c by d.

    Plain cardinals and everything inside their collapses stay put.
    """
    _check_system(t)
    _check_large(c)
    return _shift(t, c, d, False)


def _shift_head(t: Term, c: MCard, d: int, var_slack: bool):
    """`_shift`'s head clause.  Its threshold is a cardinality, so every
    descent but a sum's and an omega power's, which keep it, is its own."""
    if d == 0:
        return t
    match t:
        case Sum() | OmegaPow():
            return None
        case OmegaIdx(_) | ThetaLow(_, _):
            return t
        case OmegaHigh(j1, n):
            if large(j1, n) < c:
                new = j1 + d
                if new > 0 or large(new, n) >= c:
                    raise ShiftError(
                        f"shifting upper cardinal ({j1},{n}) by {d:+d} collides at {c}"
                    )
                return omega_high(new, n)
            return t
        case Xi(j1, arg):
            if not large(j1, 0) < c:
                return card_minus_level(c, j1), arg
            new = j1 + d
            if new > 0 or large(new, 0) >= c:
                raise ShiftError(
                    f"shifting function cardinal level {j1} by {d:+d} collides at {c}"
                )
            return mk_xi(new, arg)
        case ThetaHigh(n, body):
            return card_min_nat(c, n), body
        case ThetaXi(body):
            return card_minus_level(c, 1), body
        case VarLev(name, j1):
            if large(j1, 0) < c:
                new = j1 + d
                limit_ok = (new <= c.j + 1) if var_slack else (large(new, 0) < c)
                if new > 0 or not limit_ok:
                    raise ShiftError(
                        f"shifting variable level {j1} by {d:+d} collides at {c}"
                    )
                return var_lev(name, new)
            return t
    raise InvariantError(f"not a mixed-system term: {t!r}")


# `_shift(t, c, d, var_slack)`: `shift`; with `var_slack` a variable may land
# up to one level above c's, as the critical-set walks need.
_shift = make_level_walk(_shift_head)


# -- formal cardinality -------------------------------------------------------

def fc(c: MCard, t: Term):
    """Formal cardinalities of t restricted below c, and their max."""
    _check_system(t)
    _check_large(c)
    _, j, m = c.rank
    values = frozenset(
        x if type(x) is MCard else large(x[0] - j, x[1])
        for x in _fc_set(None, t)
        if type(x) is MCard or (x[0], x[2]) < (j, m)
    )
    return values, max(values, default=CARD_NEG_INF)


def fc_max(t: Term) -> MCard:
    return fc(FULL, t)[1]


def _fc_head(_, t: Term):
    """The profile of t: its plain cardinalities, and each large one as
    (v, k, g), which counts below (J, m) as (v - J, k) when (v, g) < (J, m)."""
    match t:
        case OmegaIdx(n):
            return frozenset({fin(n)})
        case OmegaHigh(j1, n):
            return frozenset({(j1, n, n)})
        case Xi(j1, arg):
            return None, arg, lambda items: _fc_lift(items, j1) | {(j1, 0, 0)}
        case ThetaLow(_, body):
            return None, body
        case ThetaHigh(n, body):
            # read below (J, min(m, n)): a gate index from n up never counts at J
            return None, body, lambda items: frozenset(
                x if type(x) is MCard or x[2] < n else (x[0], x[1], INF) for x in items
            )
        case ThetaXi(body):
            return None, body, lambda items: _fc_lift(items, 1)
        case VarLev(_, j1):
            return frozenset({(j1, 0, 0)})
    raise InvariantError(f"not a mixed-system term: {t!r}")


def _fc_lift(items: frozenset, d: int) -> frozenset:
    """A profile read below (J - d, inf), as read below J: finite gate indices become -1."""
    return frozenset(
        x if type(x) is MCard else (x[0] + d, x[1], INF if x[2] == INF else -1)
        for x in items
    )


_fc_set = make_walk(_fc_head, "mixed._fc_set")  # threshold-free: arg is None


# -- substitution -------------------------------------------------------------

# The walk stops at a plain collapse thO and keeps every subterm without the
# variable whole, an upper cardinal OO_n^(J) among them.
substitutable, substitute, _subst = make_substitution(
    _check_system, lambda beta, j: _shift(beta, FULL, j, False)
)


# -- parameters ---------------------------------------------------------------

def parameters(t: Term) -> tuple[Term, ...]:
    _check_system(t)
    return params(t)


# -- critical subterms ----------------------------------------------------------

def kset_low(n: int, t: Term) -> frozenset[Term]:
    """Critical subterms for a plain cardinal class n."""
    _check_system(t)
    if n < 1:
        raise PreconditionError(f"kset index must be >= 1, got {n}")
    return _kset_low(n, t)


def _kset_low_head(n: int, t: Term):
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


_kset_low = make_walk(_kset_low_head, "mixed._kset_low")


def kset_high(c: MCard, n: int, t: Term) -> frozenset[Term]:
    """Critical subterms for the upper cardinal with index n, below c."""
    _check_system(t)
    _check_large(c)
    if n < 1:
        raise PreconditionError(f"kset index must be >= 1, got {n}")
    return _kset_high((c, n), t)


def _kset_high_head(cn: tuple[MCard, int], t: Term):
    c, n = cn
    match t:
        case OmegaIdx(_) | ThetaLow(_, _):
            return frozenset({t})
        case OmegaHigh(j1, m):
            if large(j1, m) < c:
                return frozenset({omega_high(level_minus_card(j1, c), m)})
            return frozenset()
        case Xi(j1, arg):
            if large(j1, 0) < c:
                return frozenset({mk_xi(level_minus_card(j1, c), arg)})
            return (card_minus_level(c, j1), n), arg
        case ThetaHigh(_, body) | ThetaXi(body):
            # A collapse whose re-levelling would collide with its own held
            # tier cannot be collected whole; descend instead.
            if fc_max(t) < card_min_nat(c, n):
                try:
                    return frozenset({_shift(t, FULL, -c.j, True)})
                except ShiftError:
                    pass
            if type(t) is ThetaHigh:
                return (card_min_nat(c, n), n), body
            return (card_minus_level(c, 1), n), body
        case VarLev(name, j1):
            if large(j1, 0) < card_min_nat(c, n):
                return frozenset({var_lev(name, level_minus_card(j1, c))})
            return frozenset()
    raise InvariantError(f"not a mixed-system term: {t!r}")


_kset_high = make_walk(_kset_high_head, "mixed._kset_high")  # arg (c, n)


def kset_xi(c: MCard, t: Term) -> frozenset[KItem]:
    """Critical subterms for the function cardinal, below c; entries from a
    bound function collapse carry a distinguished variable."""
    _check_system(t)
    _check_large(c)
    return _kset_xi(c, t)


def _kset_xi_head(c: MCard, t: Term):
    match t:
        case OmegaIdx(_) | ThetaLow(_, _):
            return frozenset({KItem(t)})
        case OmegaHigh(j1, m):
            if large(j1, m) < c:
                return frozenset({KItem(omega_high(level_minus_card(j1, c), m))})
            return frozenset()
        case Xi(j1, arg):
            if large(j1, 0) < c:
                try:
                    return frozenset({KItem(_shift(t, FULL, -c.j, True))})
                except ShiftError:
                    pass
            return card_minus_level(c, j1), arg
        case ThetaHigh(n, body):
            if fc_max(t) < card_minus_level(c, 1):
                try:
                    return frozenset({KItem(_shift(t, FULL, 1 - c.j, True))})
                except ShiftError:
                    pass
            return card_min_nat(c, n), body
        case ThetaXi(body):
            if fc_max(t) < c:
                try:
                    return frozenset({_bound_collapse_item(t, c)})
                except ShiftError:
                    pass
            return card_minus_level(c, 1), body
        case VarLev(name, j1):
            if large(j1, 0) < c:
                return frozenset({KItem(var_lev(name, level_minus_card(j1, c)))})
            return frozenset()
    raise InvariantError(f"not a mixed-system term: {t!r}")


_kset_xi = make_walk(_kset_xi_head, "mixed._kset_xi")


def _bound_collapse_item(t: Term, c: MCard) -> KItem:
    """Shift a bound function collapse to the root, abstract its parameters
    into one distinguished variable, and re-level the body one step out.
    Raises ShiftError when the collapse cannot be re-levelled; callers then
    descend into the body instead."""
    body, var = abstract_one(_shift(t, FULL, -c.j, True))
    return KItem(_shift(body, FULL, 1, True), var)


def instantiate(item: KItem, value: Term) -> Term:
    if item.var is None:
        return item.term
    return _subst(item.term, 0, item.var, value)


# -- ordering -------------------------------------------------------------------

_COLLAPSES = (ThetaLow, ThetaHigh, ThetaXi)


def _rank(t: Term) -> tuple:
    """Collapse heads ranked by the cardinal family they collapse."""
    match t:
        case ThetaLow(n, _):
            return (0, n)
        case ThetaXi(_):
            return (1, 0)
        case ThetaHigh(n, _):
            return (2, n)
    raise InvariantError(f"not a collapse: {t!r}")


def critical_sets(a: Term, b: Term) -> tuple[frozenset[Term], frozenset[Term]]:
    """The sets C (from a) and D (from b) mediating a collapse comparison;
    function-collapse entries are instantiated at the other side's parameters
    (at 0 when it has none)."""
    _check_system(a)
    _check_system(b)
    if not isinstance(a, _COLLAPSES) or not isinstance(b, _COLLAPSES):
        raise PreconditionError("critical sets need collapse-headed terms")
    return _instantiated_kset(a, params(b.body)), _instantiated_kset(b, params(a.body))


def _instantiated_kset(s: Term, values: tuple[Term, ...]) -> frozenset[Term]:
    """The collapse's own critical set, taken at the cardinal it collapses,
    as plain terms: thXi entries are instantiated at `values`, or at 0 when
    `values` is empty."""
    family = _FAMILY.get(s.serial)
    if family is None:
        match s:
            case ThetaLow(n, body):
                family = _kset_low(n, body)
            case ThetaHigh(n, body):
                family = _kset_high((large(0, n), n), body)
            case ThetaXi(body):
                family = _kset_xi(large(0, 0), body)
            case _:
                raise InvariantError(f"not a collapse: {s!r}")
        _FAMILY[s.serial] = family
    if type(s) is ThetaXi:
        values = values or (ZERO,)
        return frozenset(instantiate(g, v) for g in family for v in values)
    return family


def _head_lt(a: Term, b: Term) -> bool:
    """a < b for strongly critical a and b.

    The collapse clauses come first, so the cardinal ladder at the end is
    reached only for two cardinal-like heads (O_n, OO^(J)_n, Xi^(J)(x), x^(J)).
    """
    ta, tb = type(a), type(b)
    if ta in _COLLAPSES:
        if tb in _COLLAPSES:
            csl = _instantiated_kset(a, params(b.body))
            dsl = _instantiated_kset(b, params(a.body))
            for d0 in dsl:
                if a is d0 or _lt(a, d0):
                    return True
            for c0 in csl:
                if b is c0 or _lt(b, c0):
                    return False
            ra, rb = _rank(a), _rank(b)
            return ra < rb or (ra == rb and _lt(a.body, b.body))
        if tb is VarLev:
            # The added direction stops at cardinal heads; a collapse stays
            # incomparable to a bare variable (a vacuous bound is not stable).
            return False
        for g in _instantiated_kset(a, ()):
            if not _lt(g, b):
                return False
        return True
    if tb in _COLLAPSES:
        for g in _instantiated_kset(b, ()):
            if a is g or _lt(a, g):
                return True
        return False
    # cardinal ladder
    if ta is OmegaIdx:
        if tb is OmegaIdx:
            return a.index < b.index
        return True
    if tb is OmegaIdx:
        return False
    if ta is VarLev:  # distinct variables are incomparable
        return tb is not VarLev and a.level <= b.level
    if tb is VarLev:
        return False
    j, j1 = a.level, b.level
    if ta is Xi:
        if tb is Xi:
            return j < j1 or (j == j1 and _lt(a.arg, b.arg))
        return j <= j1
    if tb is Xi:
        return j < j1
    return j < j1 or (j == j1 and a.index < b.index)


compare, _lt = make_order(_head_lt, _check_pair, "mixed.compare")


# The oracle lives in `reference`; its old `*_reference` names resolve there.
def __getattr__(name):
    return reference_attr("mixed", name)
