"""The mixed system: a ladder of plain cardinals Omega_n below a polymorphic
function-sorted cardinal Xi, with a second tier of polymorphic cardinals
Omega_(Omega+n) caught in Xi's level loop, and one collapse per cardinal
family.

Formal cardinalities form the lattice

    -inf < 1 < 2 < ... < (J,0) < (J,1) < ... < (J,inf) < (J+1,0) < ... < (0,inf)

where (J,0) is the class of Xi^(J), (J,n) that of the upper cardinal with
index n at level J, and (J,inf) the gap state between level J and J+1.
Thresholds for shifting and cardinality collection are "large" (pair-shaped)
values of this lattice.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import (
    KItem,
    InvariantError,
    Outcome,
    OmegaHigh,
    OmegaIdx,
    OmegaPow,
    PreconditionError,
    SYS_MIXED,
    ShiftError,
    Sum,
    Term,
    ThetaHigh,
    ThetaLow,
    ThetaXi,
    VarLev,
    Xi,
    abstract_one,
    collect_params,
    make_order,
    make_reference,
    omega_high,
    omega_idx,
    omega_pow,
    params,
    sum_of,
    theta_high,
    theta_xi,
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
    "Variants",
    "set_variants",
    "get_variants",
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
    "compare_reference",
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


class Variants(NamedTuple):
    """Alternate clause readings, switchable for differential runs.

    The defaults are the corrected readings; turning a flag off runs the
    executable literal clause instead (see docs/clause_variants.json).
    """

    omega_low_ladder: bool = True  # order the plain cardinals by index
    theta_below_cardinal: bool = True  # allow a collapse below a cardinal head
    high_substitution_identity: bool = True  # substitution keeps upper cardinals


_VARIANTS = Variants()

_FC: dict[tuple[MCard, int], frozenset] = {}
_KLOW: dict[tuple[int, int], frozenset] = {}
_KHIGH: dict[tuple[MCard, int, int], frozenset] = {}
_KXI: dict[tuple[MCard, int], frozenset] = {}
# A collapse's own critical set, per serial: plain terms for thO and thOO,
# KItems for thXi.  No variant changes it, so `set_variants` leaves it
# alone: a thXi entry's instantiation, which reads a variant, is made per
# call and never stored.
_FAMILY: dict[int, frozenset] = {}


def set_variants(v: Variants):
    global _VARIANTS
    if v != _VARIANTS:
        _VARIANTS = v
        _LT.clear()


def get_variants() -> Variants:
    return _VARIANTS


def _check_system(t: Term):
    if not t.in_system("mixed"):
        raise PreconditionError(f"term {t!r} is not a mixed-system term")


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


def _shift(t: Term, c: MCard, d: int, var_slack: bool) -> Term:
    if d == 0:
        return t
    match t:
        case Sum(children):
            return sum_of(_shift(x, c, d, var_slack) for x in children)
        case OmegaPow(e):
            return omega_pow(_shift(e, c, d, var_slack))
        case OmegaIdx(_):
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
            if large(j1, 0) < c:
                new = j1 + d
                if new > 0 or large(new, 0) >= c:
                    raise ShiftError(
                        f"shifting function cardinal level {j1} by {d:+d} collides at {c}"
                    )
                return mk_xi(new, arg)
            return mk_xi(j1, _shift(arg, card_minus_level(c, j1), d, var_slack))
        case ThetaLow(_, _):
            return t
        case ThetaHigh(n, body):
            return theta_high(n, _shift(body, card_min_nat(c, n), d, var_slack))
        case ThetaXi(body):
            return theta_xi(_shift(body, card_minus_level(c, 1), d, var_slack))
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


# -- formal cardinality -------------------------------------------------------

def fc(c: MCard, t: Term):
    """Formal cardinalities of t restricted below c, and their max."""
    _check_system(t)
    _check_large(c)
    values = _fc_set(c, t)
    return values, (max(values) if values else CARD_NEG_INF)


def fc_max(t: Term, c: MCard = FULL) -> MCard:
    return fc(c, t)[1]


def _fc_set(c: MCard, t: Term) -> frozenset:
    memo_key = (c, t.serial)
    cached = _FC.get(memo_key)
    if cached is not None:
        return cached
    match t:
        case Sum(children):
            out = frozenset().union(*(_fc_set(c, x) for x in children))
        case OmegaPow(e):
            out = _fc_set(c, e)
        case OmegaIdx(n):
            out = frozenset({fin(n)})
        case OmegaHigh(j1, n):
            if large(j1, n) < c:
                out = frozenset({large(level_minus_card(j1, c), n)})
            else:
                out = frozenset()
        case Xi(j1, arg):
            out = _fc_set(card_minus_level(c, j1), arg)
            if large(j1, 0) < c:
                out = out | frozenset({large(level_minus_card(j1, c), 0)})
        case ThetaLow(_, body):
            out = _fc_set(c, body)
        case ThetaHigh(n, body):
            out = _fc_set(card_min_nat(c, n), body)
        case ThetaXi(body):
            out = _fc_set(card_minus_level(c, 1), body)
        case VarLev(_, j1):
            if large(j1, 0) < c:
                out = frozenset({large(level_minus_card(j1, c), 0)})
            else:
                out = frozenset()
        case _:
            raise InvariantError(f"not a mixed-system term: {t!r}")
    _FC[memo_key] = out
    return out


def _fc_bar(t: Term) -> MCard:
    values = _fc_set(FULL, t)
    return max(values) if values else CARD_NEG_INF


# -- substitution -------------------------------------------------------------

def substitutable(name: str, j: int, t: Term) -> bool:
    _check_system(t)
    if j > 0:
        raise PreconditionError(f"substitution level must be <= 0, got {j}")
    return _substitutable(name, j, t)


def _substitutable(name: str, j: int, t: Term) -> bool:
    if name not in t.var_names:
        return True
    match t:
        case Sum(children):
            return all(_substitutable(name, j, x) for x in children)
        case OmegaPow(e):
            return _substitutable(name, j, e)
        case OmegaIdx(_) | OmegaHigh(_, _):
            return True
        case Xi(j1, arg):
            return j <= j1 and _substitutable(name, j - j1, arg)
        case ThetaLow(_, _):
            return True  # substitution does not reach below a plain collapse
        case ThetaHigh(_, body):
            return _substitutable(name, j, body)
        case ThetaXi(body):
            return _substitutable(name, j - 1, body)
        case VarLev(w, j1):
            return w != name or j == j1
    raise InvariantError(f"not a mixed-system term: {t!r}")


def substitute(t: Term, name: str, j: int, beta: Term) -> Term:
    _check_system(t)
    _check_system(beta)
    if j > 0:
        raise PreconditionError(f"substitution level must be <= 0, got {j}")
    if not _substitutable(name, j, t):
        raise PreconditionError(f"variable {name!r} is not {j}-substitutable")
    return _subst(t, name, j, beta)


def _subst(t: Term, name: str, j: int, beta: Term) -> Term:
    if _VARIANTS.high_substitution_identity and name not in t.var_names:
        return t
    match t:
        case Sum(children):
            return sum_of(_subst(x, name, j, beta) for x in children)
        case OmegaPow(e):
            return omega_pow(_subst(e, name, j, beta))
        case OmegaHigh(j1, n):
            if _VARIANTS.high_substitution_identity:
                return t
            return omega_idx(n)  # the literal clause erases the upper tier
        case Xi(j1, arg):
            return mk_xi(j1, _subst(arg, name, j - j1, beta)) if j <= j1 else t
        case ThetaLow(_, _):
            return t
        case ThetaHigh(n, body):
            return theta_high(n, _subst(body, name, j, beta))
        case ThetaXi(body):
            return theta_xi(_subst(body, name, j - 1, beta))
        case VarLev(w, _):
            return _shift(beta, FULL, j, False) if w == name else t
    return t


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


def _kset_low(n: int, t: Term) -> frozenset[Term]:
    memo_key = (n, t.serial)
    cached = _KLOW.get(memo_key)
    if cached is not None:
        return cached
    match t:
        case Sum(children):
            out = frozenset().union(*(_kset_low(n, x) for x in children))
        case OmegaPow(e):
            out = _kset_low(n, e)
        case OmegaIdx(m):
            out = frozenset({t}) if m < n else frozenset()
        case OmegaHigh(_, _) | Xi(_, _) | VarLev(_, _):
            out = frozenset()
        case ThetaLow(m, body):
            out = frozenset({t}) if m <= n else _kset_low(n, body)
        case ThetaHigh(_, body) | ThetaXi(body):
            out = _kset_low(n, body)
        case _:
            raise InvariantError(f"not a mixed-system term: {t!r}")
    _KLOW[memo_key] = out
    return out


def kset_high(c: MCard, n: int, t: Term) -> frozenset[Term]:
    """Critical subterms for the upper cardinal with index n, below c."""
    _check_system(t)
    _check_large(c)
    if n < 1:
        raise PreconditionError(f"kset index must be >= 1, got {n}")
    return _kset_high(c, n, t)


def _kset_high(c: MCard, n: int, t: Term) -> frozenset[Term]:
    memo_key = (c, n, t.serial)
    cached = _KHIGH.get(memo_key)
    if cached is not None:
        return cached
    match t:
        case Sum(children):
            out = frozenset().union(*(_kset_high(c, n, x) for x in children))
        case OmegaPow(e):
            out = _kset_high(c, n, e)
        case OmegaIdx(_):
            out = frozenset({t})
        case OmegaHigh(j1, m):
            if large(j1, m) < c:
                out = frozenset({omega_high(level_minus_card(j1, c), m)})
            else:
                out = frozenset()
        case Xi(j1, arg):
            if large(j1, 0) < c:
                out = frozenset({mk_xi(level_minus_card(j1, c), arg)})
            else:
                out = _kset_high(card_minus_level(c, j1), n, arg)
        case ThetaLow(_, _):
            out = frozenset({t})
        case ThetaHigh(_, body):
            # A collapse whose re-levelling would collide with its own held
            # tier cannot be collected whole; descend instead.
            out = None
            if _fc_bar(t) < card_min_nat(c, n):
                try:
                    out = frozenset({_shift(t, FULL, -c.j, True)})
                except ShiftError:
                    out = None
            if out is None:
                out = _kset_high(card_min_nat(c, n), n, body)
        case ThetaXi(body):
            out = None
            if _fc_bar(t) < card_min_nat(c, n):
                try:
                    out = frozenset({_shift(t, FULL, -c.j, True)})
                except ShiftError:
                    out = None
            if out is None:
                out = _kset_high(card_minus_level(c, 1), n, body)
        case VarLev(name, j1):
            if large(j1, 0) < card_min_nat(c, n):
                out = frozenset({var_lev(name, level_minus_card(j1, c))})
            else:
                out = frozenset()
        case _:
            raise InvariantError(f"not a mixed-system term: {t!r}")
    _KHIGH[memo_key] = out
    return out


def kset_xi(c: MCard, t: Term) -> frozenset[KItem]:
    """Critical subterms for the function cardinal, below c; entries from a
    bound function collapse carry a distinguished variable."""
    _check_system(t)
    _check_large(c)
    return _kset_xi(c, t)


def _kset_xi(c: MCard, t: Term) -> frozenset[KItem]:
    memo_key = (c, t.serial)
    cached = _KXI.get(memo_key)
    if cached is not None:
        return cached
    match t:
        case Sum(children):
            out = frozenset().union(*(_kset_xi(c, x) for x in children))
        case OmegaPow(e):
            out = _kset_xi(c, e)
        case OmegaIdx(_):
            out = frozenset({KItem(t)})
        case OmegaHigh(j1, m):
            if large(j1, m) < c:
                out = frozenset({KItem(omega_high(level_minus_card(j1, c), m))})
            else:
                out = frozenset()
        case Xi(j1, arg):
            out = None
            if large(j1, 0) < c:
                try:
                    out = frozenset({KItem(_shift(t, FULL, -c.j, True))})
                except ShiftError:
                    out = None
            if out is None:
                out = _kset_xi(card_minus_level(c, j1), arg)
        case ThetaLow(_, _):
            out = frozenset({KItem(t)})
        case ThetaHigh(n, body):
            out = None
            if _fc_bar(t) < card_minus_level(c, 1):
                try:
                    out = frozenset({KItem(_shift(t, FULL, 1 - c.j, True))})
                except ShiftError:
                    out = None
            if out is None:
                out = _kset_xi(card_min_nat(c, n), body)
        case ThetaXi(body):
            out = None
            if _fc_bar(t) < c:
                try:
                    out = frozenset({_bound_collapse_item(t, c)})
                except ShiftError:
                    out = None
            if out is None:
                out = _kset_xi(card_minus_level(c, 1), body)
        case VarLev(name, j1):
            if large(j1, 0) < c:
                out = frozenset({KItem(var_lev(name, level_minus_card(j1, c)))})
            else:
                out = frozenset()
        case _:
            raise InvariantError(f"not a mixed-system term: {t!r}")
    _KXI[memo_key] = out
    return out


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
    return _subst(item.term, item.var, 0, value)


# -- ordering -------------------------------------------------------------------

_COLLAPSES = (ThetaLow, ThetaHigh, ThetaXi)
_COLLAPSE_TYPES = frozenset(_COLLAPSES)


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
                family = _kset_high(large(0, n), n, body)
            case ThetaXi(body):
                family = _kset_xi(large(0, 0), body)
            case _:
                raise InvariantError(f"not a collapse: {s!r}")
        _FAMILY[s.serial] = family
    if type(s) is ThetaXi:
        values = values or (ZERO,)
        return frozenset(instantiate(g, v) for g in family for v in values)
    return family


def _check_pair(a: Term, b: Term):
    if not a.mask & b.mask & SYS_MIXED:
        _check_system(a)
        _check_system(b)


def _head_lt(a: Term, b: Term) -> bool:
    """a < b for strongly critical a and b.

    The collapse clauses come first, so the cardinal ladder at the end is
    reached only for two cardinal-like heads (O_n, OO^(J)_n, Xi^(J)(x), x^(J)).
    """
    ta, tb = type(a), type(b)
    if ta in _COLLAPSE_TYPES:
        if tb in _COLLAPSE_TYPES:
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
        if tb is VarLev or not _VARIANTS.theta_below_cardinal:
            # The added direction stops at cardinal heads; a collapse stays
            # incomparable to a bare variable (a vacuous bound is not stable).
            return False
        for g in _instantiated_kset(a, ()):
            if not _lt(g, b):
                return False
        return True
    if tb in _COLLAPSE_TYPES:
        for g in _instantiated_kset(b, ()):
            if a is g or _lt(a, g):
                return True
        return False
    # cardinal ladder
    if ta is OmegaIdx:
        if tb is OmegaIdx:
            return _VARIANTS.omega_low_ladder and a.index < b.index
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


compare, _lt, _leq, _LT = make_order(_head_lt, _check_pair)


# -- reference implementations ---------------------------------------------------

def _ref_fc_set(c: MCard, t: Term) -> frozenset:
    match t:
        case Sum(children):
            return frozenset().union(*(_ref_fc_set(c, x) for x in children))
        case OmegaPow(e):
            return _ref_fc_set(c, e)
        case OmegaIdx(n):
            return frozenset({fin(n)})
        case OmegaHigh(j1, n):
            if large(j1, n) < c:
                return frozenset({large(level_minus_card(j1, c), n)})
            return frozenset()
        case Xi(j1, arg):
            out = _ref_fc_set(card_minus_level(c, j1), arg)
            if large(j1, 0) < c:
                out = out | frozenset({large(level_minus_card(j1, c), 0)})
            return out
        case ThetaLow(_, body):
            return _ref_fc_set(c, body)
        case ThetaHigh(n, body):
            return _ref_fc_set(card_min_nat(c, n), body)
        case ThetaXi(body):
            return _ref_fc_set(card_minus_level(c, 1), body)
        case VarLev(_, j1):
            if large(j1, 0) < c:
                return frozenset({large(level_minus_card(j1, c), 0)})
            return frozenset()
    raise InvariantError(f"not a mixed-system term: {t!r}")


def _ref_fc_bar(t: Term) -> MCard:
    values = _ref_fc_set(FULL, t)
    return max(values) if values else CARD_NEG_INF


def kset_low_reference(n: int, t: Term) -> frozenset[Term]:
    match t:
        case Sum(children):
            return frozenset().union(*(kset_low_reference(n, x) for x in children))
        case OmegaPow(e):
            return kset_low_reference(n, e)
        case OmegaIdx(m):
            return frozenset({t}) if m < n else frozenset()
        case OmegaHigh(_, _) | Xi(_, _) | VarLev(_, _):
            return frozenset()
        case ThetaLow(m, body):
            return frozenset({t}) if m <= n else kset_low_reference(n, body)
        case ThetaHigh(_, body) | ThetaXi(body):
            return kset_low_reference(n, body)
    raise InvariantError(f"not a mixed-system term: {t!r}")


def kset_high_reference(c: MCard, n: int, t: Term) -> frozenset[Term]:
    match t:
        case Sum(children):
            return frozenset().union(
                *(kset_high_reference(c, n, x) for x in children)
            )
        case OmegaPow(e):
            return kset_high_reference(c, n, e)
        case OmegaIdx(_):
            return frozenset({t})
        case OmegaHigh(j1, m):
            if large(j1, m) < c:
                return frozenset({omega_high(level_minus_card(j1, c), m)})
            return frozenset()
        case Xi(j1, arg):
            if large(j1, 0) < c:
                return frozenset({mk_xi(level_minus_card(j1, c), arg)})
            return kset_high_reference(card_minus_level(c, j1), n, arg)
        case ThetaLow(_, _):
            return frozenset({t})
        case ThetaHigh(_, body):
            if _ref_fc_bar(t) < card_min_nat(c, n):
                try:
                    return frozenset({_shift(t, FULL, -c.j, True)})
                except ShiftError:
                    pass
            return kset_high_reference(card_min_nat(c, n), n, body)
        case ThetaXi(body):
            if _ref_fc_bar(t) < card_min_nat(c, n):
                try:
                    return frozenset({_shift(t, FULL, -c.j, True)})
                except ShiftError:
                    pass
            return kset_high_reference(card_minus_level(c, 1), n, body)
        case VarLev(name, j1):
            if large(j1, 0) < card_min_nat(c, n):
                return frozenset({var_lev(name, level_minus_card(j1, c))})
            return frozenset()
    raise InvariantError(f"not a mixed-system term: {t!r}")


def kset_xi_reference(c: MCard, t: Term) -> frozenset[KItem]:
    match t:
        case Sum(children):
            return frozenset().union(*(kset_xi_reference(c, x) for x in children))
        case OmegaPow(e):
            return kset_xi_reference(c, e)
        case OmegaIdx(_):
            return frozenset({KItem(t)})
        case OmegaHigh(j1, m):
            if large(j1, m) < c:
                return frozenset({KItem(omega_high(level_minus_card(j1, c), m))})
            return frozenset()
        case Xi(j1, _):
            if large(j1, 0) < c:
                try:
                    return frozenset({KItem(_shift(t, FULL, -c.j, True))})
                except ShiftError:
                    pass
            return kset_xi_reference(card_minus_level(c, j1), t.arg)
        case ThetaLow(_, _):
            return frozenset({KItem(t)})
        case ThetaHigh(n, body):
            if _ref_fc_bar(t) < card_minus_level(c, 1):
                try:
                    return frozenset({KItem(_shift(t, FULL, 1 - c.j, True))})
                except ShiftError:
                    pass
            return kset_xi_reference(card_min_nat(c, n), body)
        case ThetaXi(body):
            if _ref_fc_bar(t) < c:
                try:
                    return frozenset({_bound_collapse_item(t, c)})
                except ShiftError:
                    pass
            return kset_xi_reference(card_minus_level(c, 1), body)
        case VarLev(name, j1):
            if large(j1, 0) < c:
                return frozenset({KItem(var_lev(name, level_minus_card(j1, c)))})
            return frozenset()
    raise InvariantError(f"not a mixed-system term: {t!r}")


def _ref_family_kset(t: Term) -> tuple[KItem, ...]:
    match t:
        case ThetaLow(n, body):
            return tuple(KItem(x) for x in kset_low_reference(n, body))
        case ThetaHigh(n, body):
            return tuple(KItem(x) for x in kset_high_reference(large(0, n), n, body))
    return tuple(kset_xi_reference(large(0, 0), t.body))


def _ref_card_side_kset(s: Term) -> tuple[Term, ...]:
    if isinstance(s, ThetaXi):
        return tuple(
            instantiate(g, ZERO) for g in kset_xi_reference(large(0, 0), s.body)
        )
    return tuple(g.term for g in _ref_family_kset(s))


def _ref_params(t: Term) -> tuple[Term, ...]:
    found: set = set()
    collect_params(t, 0, found)
    return tuple(sorted(found, key=lambda p: p.key))


def _ref_instantiated_kset(s: Term, other: Term) -> frozenset[Term]:
    items = _ref_family_kset(s)
    if isinstance(s, ThetaXi):
        values = _ref_params(other.body) or (ZERO,)
        return frozenset(instantiate(g, v) for g in items for v in values)
    return frozenset(g.term for g in items)


def _ref_head_lt(a: Term, b: Term) -> bool:
    match a, b:
        case (OmegaIdx(m), OmegaIdx(n)):
            return _VARIANTS.omega_low_ladder and m < n
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
            return j < j1 or (j == j1 and _ref_lt(x, y))
        case (VarLev(_, j), Xi(j1, _) | OmegaHigh(j1, _)):
            return j <= j1
        case (Xi(_, _) | OmegaHigh(_, _), VarLev(_, _)):
            return False
        case (VarLev(_, _), VarLev(_, _)):
            return False
    a_card = isinstance(a, (OmegaIdx, OmegaHigh, Xi, VarLev))
    if a_card and isinstance(b, _COLLAPSES):
        return any(_ref_leq(a, g) for g in _ref_card_side_kset(b))
    if isinstance(a, _COLLAPSES) and isinstance(b, (OmegaIdx, OmegaHigh, Xi)):
        if not _VARIANTS.theta_below_cardinal:
            return False
        return all(_ref_lt(g, b) for g in _ref_card_side_kset(a))
    if isinstance(a, _COLLAPSES) and isinstance(b, _COLLAPSES):
        csl = _ref_instantiated_kset(a, b)
        dsl = _ref_instantiated_kset(b, a)
        if any(_ref_leq(a, d0) for d0 in dsl):
            return True
        if any(_ref_leq(b, c0) for c0 in csl):
            return False
        ra, rb = _rank(a), _rank(b)
        return ra < rb or (ra == rb and _ref_lt(a.body, b.body))
    return False


compare_reference, _ref_lt, _ref_leq = make_reference(_ref_head_lt)
