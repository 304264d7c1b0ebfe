"""Shared term algebra for the four ordinal notation systems.

Terms are immutable, interned values.  A term is either a sum over a finite
multiset of additively-indecomposable terms ("H-terms"), an omega power, a
cardinal-like head, a collapsing head, or a variable.  Zero is the empty sum.

Canonical form: nested sums are flattened, a singleton sum collapses to its
sole component, and sum components are kept sorted by structural key.  Two
terms are syntactically identical iff they are the same interned object.

Interning is hash-consing on a shallow key: each constructor looks its term
up by (tag, scalar fields, child serials), which costs O(arity) because the
children are already interned; a sum's child serials are sorted as ints,
so any order or grouping of its summands finds it.  Only on a miss is the
deep `key` tuple built (a one-child term's in `_intern_over`, from its
shallow key; a sum then sorts its children by it), which stays the
deterministic order token for sum order, enumeration and printing.
Equality is identity, and `hash(t)` is `t.serial`: process-local and
dependent on construction order, so a hash must never be persisted or used
for ordering (use `key`).  Facts needed on hot paths -- size, `var_names`
(empty on a closed term) and the like -- are slots filled at construction.
Equal frozensets share one object, through one table: the variable-name
sets and every set the set walks store.

Terms are immutable, and the intern table is lock-protected.  Every memo
and per-serial table is a process global, registered in `CACHES` under the
name of the module attribute that holds it; `cache_sizes()` counts their
entries and `clear_caches()` empties them; terms and their name sets stay.

The ordering kernel (`make_order`) is shared by all four systems: it owns
the comparison memo, the cycle guard and the sum and omega-power clauses,
and each system supplies only the rule for two strongly critical heads.
The oracle it is checked against, each system's reference order, lives
apart in `reference`, which only the harness loads.

The set-walk kernel (`make_walk`) makes the same cut for the
formal-cardinality and critical-subterm walks: one kernel owns every walk's
memo and the sum and omega-power clauses, each system supplies only its
other heads' clauses, and only the critical-subterm walks take a threshold.

The level-walk kernel (`make_level_walk`) makes the cut once more for the
maps and tests that carry an ambient level: substitution and its test,
shifting, function substitution, and the parameter walks of canonical
abstraction, with which xi and mixed collect functions.  One descent table
moves the level for every head; each walk supplies only its head clause.
The walks whose inputs repeat often -- the substitutability tests and the
poly and xi shifts -- keep a memo, one row per level and arguments; the
substitutions, whose targets are fresh terms, the parameter walks, which
carry an accumulator, and mixed's shift, which runs too rarely to gain,
do not.  Both walk kernels share one head contract: a head returns its
answer or a descent, `(level, child)` or `(level, child, then)`, which the
kernel follows in a loop without reading the level, so mixed's cardinality
thresholds ride the same kernel as the integer levels.

The system surface is written here once too.  `system_checks` gives each
system its operand checks, worded from one table, and `make_substitution`
gives poly, xi and mixed their ordinal-variable substitution: the checked
`substitutable` and `substitute` and the walk under them, one head clause
that re-levels the value through the system's own `lift`.
`reference_attr` is the one forwarder: it lets a system module still
answer the names that moved out of it, the oracle's `*_reference` names
from `reference` and the dominance and Key Lemma names from `lemmas`, for
readers outside the package that look them up there.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from enum import Enum
from typing import NamedTuple

NEG_INF = float("-inf")

# System membership is tracked as a bitmask so that shared shapes (sums,
# omega powers, 0) can belong to several systems at once.
SYS_BUCHHOLZ = 1
SYS_POLY = 2
SYS_XI = 4
SYS_MIXED = 8
SYS_ALL = SYS_BUCHHOLZ | SYS_POLY | SYS_XI | SYS_MIXED

SYSTEM_NAMES = {
    "buchholz": SYS_BUCHHOLZ,
    "poly": SYS_POLY,
    "xi": SYS_XI,
    "mixed": SYS_MIXED,
}


class TermError(Exception):
    """Raised when a construction request violates a term-formation rule."""


class PreconditionError(Exception):
    """Raised when an operation's precondition does not hold."""


class ShiftError(PreconditionError):
    """Raised when an upward level shift would collide with a bound level."""


class InvariantError(Exception):
    """Raised when an internal invariant that should be unreachable fails."""


class Outcome(Enum):
    """Result of comparing two terms; Incomparable only occurs on open terms."""

    LESS = "LT"
    EQUAL = "EQ"
    GREATER = "GT"
    INCOMPARABLE = "NC"


# Tag ranks give structural keys a global total order across all heads.
TAG_SUM = 0
TAG_OMEGA_POW = 1
TAG_OMEGA_IDX = 2
TAG_OMEGA_LEV = 3
TAG_OMEGA_HIGH = 4
TAG_XI = 5
TAG_THETA_IDX = 6
TAG_THETA = 7
TAG_THETA_LOW = 8
TAG_THETA_HIGH = 9
TAG_THETA_XI = 10
TAG_VAR_IDX = 11
TAG_VAR_LEV = 12
TAG_FVAR = 13


class Term:
    """Base class; concrete instances come from the constructor functions.

    Equality is object identity (the default); `hash(t)` is `t.serial`.
    """

    __slots__ = (
        "key",
        "serial",
        "mask",
        "size",
        "has_fvar",
        "vmax",
        "valid",
        "var_names",
    )

    key: tuple
    serial: int
    mask: int
    size: int  # node count; a level superscript is one more node; 0 has size 1
    has_fvar: bool
    vmax: int  # largest subscript of an indexed variable anywhere, -1 if none
    valid: bool  # indexed-collapse variable-scope rule holds hereditarily
    var_names: frozenset  # names of all ordinal and function variables in t

    def __hash__(self):
        return self.serial

    @property
    def closed(self) -> bool:
        return not self.var_names

    def __repr__(self):
        from .syntax import render

        return f"<{type(self).__name__} {render(self)}>"

    def in_system(self, system: str) -> bool:
        return bool(self.mask & SYSTEM_NAMES[system])


class Sum(Term):
    __slots__ = ("children",)
    __match_args__ = ("children",)


class OmegaPow(Term):
    __slots__ = ("exponent",)
    __match_args__ = ("exponent",)


class OmegaIdx(Term):
    """Indexed cardinal Omega_n (stratified and mixed systems)."""

    __slots__ = ("index",)
    __match_args__ = ("index",)


class OmegaLev(Term):
    """Level-polymorphic cardinal Omega^(J), J <= 0."""

    __slots__ = ("level",)
    __match_args__ = ("level",)


class OmegaHigh(Term):
    """Upper-tier cardinal of the mixed system, with level J <= 0 and index n >= 1."""

    __slots__ = ("level", "index")
    __match_args__ = ("level", "index")


class Xi(Term):
    """Function-sorted cardinal Xi^(J)(arg), J <= 0."""

    __slots__ = ("level", "arg")
    __match_args__ = ("level", "arg")


class ThetaIdx(Term):
    """Indexed collapse theta_n (stratified system)."""

    __slots__ = ("index", "body")
    __match_args__ = ("index", "body")


class Theta(Term):
    """Unindexed collapse theta (polymorphic and function-sorted systems)."""

    __slots__ = ("body",)
    __match_args__ = ("body",)


class ThetaLow(Term):
    __slots__ = ("index", "body")
    __match_args__ = ("index", "body")


class ThetaHigh(Term):
    __slots__ = ("index", "body")
    __match_args__ = ("index", "body")


class ThetaXi(Term):
    __slots__ = ("body",)
    __match_args__ = ("body",)


class VarIdx(Term):
    """Variable with a cardinality subscript n >= 1 (stratified system)."""

    __slots__ = ("name", "index")
    __match_args__ = ("name", "index")


class VarLev(Term):
    """Variable at a polymorphic level J <= 0."""

    __slots__ = ("name", "level")
    __match_args__ = ("name", "level")


class FVar(Term):
    """Function variable V^(J)(arg): a function-sorted placeholder below Xi^(J)(arg)."""

    __slots__ = ("name", "level", "arg")
    __match_args__ = ("name", "level", "arg")


CACHES: dict[str, dict] = {}  # every memo and per-serial table, by name
# The intern table maps a shallow key -- (tag, scalar fields, child serials)
# -- to the one term with that shape.  Interned children make it unique.
_INTERN = CACHES["core._INTERN"] = {}
_INTERN_LOCK = threading.Lock()
_SERIAL = itertools.count()

# One shared object per distinct frozenset: the variable-name sets of terms
# and every set a set walk stores.
_NO_NAMES: frozenset[str] = frozenset()
_SHARED_SETS = CACHES["core._SHARED_SETS"] = {_NO_NAMES: _NO_NAMES}


def cache_sizes() -> dict[str, int]:
    """Entries in each registered cache; a table of rows counts its rows' entries."""
    return {
        name: sum(len(row) if type(row) is dict else 1 for row in table.values())
        for name, table in CACHES.items()
    }


def clear_caches():
    """Empty every registered cache in place, but for the terms: the intern
    table stays, and so do the shared sets of the terms' variable names.
    No other thread may build or compare terms meanwhile."""
    with _INTERN_LOCK:
        for table in CACHES.values():
            if table is not _INTERN:
                table.clear()
        _SHARED_SETS.update((t.var_names, t.var_names) for t in _INTERN.values())


def _shared(s: frozenset) -> frozenset:
    return _SHARED_SETS.setdefault(s, s)


def _intern(cls, shallow, key, values, *, mask, size, has_fvar, vmax, valid, names):
    """Build and register a term the caller's lookup on `shallow` missed;
    `values` fills its fields in `__match_args__` order."""
    t = object.__new__(cls)
    for slot, value in zip(cls.__match_args__, values):
        setattr(t, slot, value)
    t.key = key
    t.mask = mask
    t.size = size
    t.has_fvar = has_fvar
    t.vmax = vmax
    t.valid = valid
    t.var_names = names
    with _INTERN_LOCK:
        existing = _INTERN.get(shallow)
        if existing is not None:
            return existing
        t.serial = next(_SERIAL)
        _INTERN[shallow] = t
    return t


def _intern_over(cls, shallow, child, systems, nodes, valid=None):
    """The one-child term whose shallow key is `shallow`: its tag, its scalar
    fields and then `child`'s serial.  On a miss the deep key swaps the
    serial for the child's key; the term belongs to those of `systems` the
    child belongs to, adds `nodes` nodes to the child's, and inherits its
    function variables, `vmax`, validity (unless `valid` overrides it) and
    names."""
    cached = _INTERN.get(shallow)
    if cached is not None:
        return cached
    return _intern(
        cls,
        shallow,
        (*shallow[:-1], child.key),
        (*shallow[1:-1], child),
        # `_join_masks` runs only to raise its error on an empty mask.
        mask=child.mask & systems or _join_masks((child,), systems),
        size=nodes + child.size,
        has_fvar=child.has_fvar,
        vmax=child.vmax,
        valid=child.valid if valid is None else valid,
        names=child.var_names,
    )


def _join_masks(parts, extra=SYS_ALL):
    mask = extra
    for p in parts:
        mask &= p.mask
    if mask == 0:
        raise TermError(
            "mixed-system components: "
            + ", ".join(sorted({_mask_desc(p.mask) for p in parts}))
        )
    return mask


def _mask_desc(mask: int) -> str:
    return "|".join(name for name, bit in SYSTEM_NAMES.items() if mask & bit) or "none"


def _key_of(t: Term) -> tuple:
    return t.key


def sum_of(components) -> Term:
    """Canonical sum: flatten nested sums, sort by key, collapse singletons.

    The empty sum is 0; the component count of a stored sum is never 1.
    """
    flat: list[Term] = []
    for c in components:
        if type(c) is Sum:
            flat.extend(c.children)
        else:
            flat.append(c)
    if len(flat) == 1:
        return flat[0]
    serials = [t.serial for t in flat]
    serials.sort()
    shallow = (TAG_SUM, *serials)
    cached = _INTERN.get(shallow)
    if cached is not None:
        return cached
    flat.sort(key=_key_of)
    children = tuple(flat)
    keys = [TAG_SUM, len(children)]
    size, has_fvar, vmax, valid, names = 1, False, -1, True, _NO_NAMES
    for t in children:
        keys.append(t.key)
        size += t.size
        has_fvar |= t.has_fvar
        vmax = t.vmax if t.vmax > vmax else vmax
        valid &= t.valid
        if t.var_names and t.var_names is not names:
            names = names | t.var_names if names else t.var_names
    return _intern(
        Sum,
        shallow,
        tuple(keys),
        (children,),
        mask=_join_masks(children),
        size=size,
        has_fvar=has_fvar,
        vmax=vmax,
        valid=valid,
        names=_shared(names),
    )


ZERO = sum_of(())


def omega_pow(exponent: Term) -> Term:
    return _intern_over(OmegaPow, (TAG_OMEGA_POW, exponent.serial), exponent, SYS_ALL, 1)


ONE = omega_pow(ZERO)


def _leaf(cls, key, *, mask, size, var=None, vmax=-1):
    """Intern a term without children (a variable when `var` names it); its
    shallow and deep keys coincide, and its fields follow the tag."""
    cached = _INTERN.get(key)
    if cached is not None:
        return cached
    return _intern(
        cls,
        key,
        key,
        key[1:],
        mask=mask,
        size=size,
        has_fvar=False,
        vmax=vmax,
        valid=True,
        names=_NO_NAMES if var is None else _shared(frozenset((var,))),
    )


def _check_level(j: int):
    if j > 0:
        raise TermError(f"level must be <= 0, got {j}")


def _check_subscript(n: int, what: str):
    if n < 1:
        raise TermError(f"{what} subscript must be >= 1, got {n}")


def omega_idx(n: int) -> Term:
    _check_subscript(n, "cardinal")
    return _leaf(OmegaIdx, (TAG_OMEGA_IDX, n), mask=SYS_BUCHHOLZ | SYS_MIXED, size=1)


def omega_lev(j: int) -> Term:
    _check_level(j)
    return _leaf(OmegaLev, (TAG_OMEGA_LEV, j), mask=SYS_POLY, size=2)


def omega_high(j: int, n: int) -> Term:
    _check_level(j)
    _check_subscript(n, "cardinal")
    return _leaf(OmegaHigh, (TAG_OMEGA_HIGH, j, n), mask=SYS_MIXED, size=2)


def xi(j: int, arg: Term) -> Term:
    _check_level(j)
    return _intern_over(Xi, (TAG_XI, j, arg.serial), arg, SYS_XI | SYS_MIXED, 2)


def theta_idx(n: int, body: Term) -> Term:
    _check_subscript(n, "collapse")
    # The variable-scope rule (no variable subscript >= n inside) is recorded
    # in `valid` rather than enforced, so invalid terms can be classified.
    valid = body.valid and body.vmax < n
    return _intern_over(ThetaIdx, (TAG_THETA_IDX, n, body.serial), body, SYS_BUCHHOLZ, 1, valid)


def theta(body: Term) -> Term:
    if body.has_fvar:
        raise TermError("function variables may not occur inside a collapse body")
    return _intern_over(Theta, (TAG_THETA, body.serial), body, SYS_POLY | SYS_XI, 1)


def theta_low(n: int, body: Term) -> Term:
    _check_subscript(n, "collapse")
    return _intern_over(ThetaLow, (TAG_THETA_LOW, n, body.serial), body, SYS_MIXED, 1)


def theta_high(n: int, body: Term) -> Term:
    _check_subscript(n, "collapse")
    return _intern_over(ThetaHigh, (TAG_THETA_HIGH, n, body.serial), body, SYS_MIXED, 1)


def theta_xi(body: Term) -> Term:
    return _intern_over(ThetaXi, (TAG_THETA_XI, body.serial), body, SYS_MIXED, 1)


def var_idx(name: str, n: int) -> Term:
    _check_subscript(n, "variable")
    return _leaf(
        VarIdx, (TAG_VAR_IDX, name, n), mask=SYS_BUCHHOLZ, size=1, var=name, vmax=n
    )


def var_lev(name: str, j: int) -> Term:
    _check_level(j)
    return _leaf(
        VarLev, (TAG_VAR_LEV, name, j), mask=SYS_POLY | SYS_XI | SYS_MIXED, size=2, var=name
    )


def fvar(name: str, j: int, arg: Term) -> Term:
    _check_level(j)
    shallow = (TAG_FVAR, name, j, arg.serial)
    cached = _INTERN.get(shallow)
    if cached is not None:
        return cached
    return _intern(
        FVar,
        shallow,
        (TAG_FVAR, name, j, arg.key),
        (name, j, arg),
        mask=_join_masks((arg,), SYS_XI),
        size=2 + arg.size,
        has_fvar=True,
        vmax=arg.vmax,
        valid=arg.valid,
        names=_shared(arg.var_names | {name}),
    )


def summands(t: Term) -> tuple[Term, ...]:
    """The multiset of H-components of t (a singleton for H-terms)."""
    return t.children if isinstance(t, Sum) else (t,)


def add(*terms: Term) -> Term:
    return sum_of(terms)


def is_h(t: Term) -> bool:
    return not isinstance(t, Sum)


def is_sc(t: Term) -> bool:
    """Strongly critical: additively indecomposable and not an omega power."""
    return not isinstance(t, (Sum, OmegaPow))


def var_names(t: Term) -> frozenset[str]:
    """Names of all ordinal and function variables occurring in t."""
    return t.var_names


def fresh_name(stem: str, taken) -> str:
    """First name in stem, stem1, stem2, ... not in `taken` (deterministic)."""
    if stem not in taken:
        return stem
    for i in itertools.count(1):
        cand = f"{stem}{i}"
        if cand not in taken:
            return cand
    raise InvariantError("unreachable")


class KItem(NamedTuple):
    """A critical-subterm entry: a term plus an optional distinguished
    variable marking where a collapsed function expects its argument."""

    term: Term
    var: str | None = None

    def __hash__(self):
        # The serial alone: on CPython 3.11 hash(None) comes from its address,
        # so hashing var too would vary set iteration order between runs.
        return self.term.serial

    def __repr__(self):
        suffix = f" [{self.var}]" if self.var else ""
        return f"<KItem {self.term!r}{suffix}>"


def subterms(t: Term):
    """All subterm occurrences of t, including t itself (pre-order).  The
    walk keeps its own stack, so an item costs O(1) at any depth."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        tt = type(t)
        if tt is Sum:
            stack.extend(reversed(t.children))
        elif tt is OmegaPow:
            stack.append(t.exponent)
        elif tt is Xi or tt is FVar:
            stack.append(t.arg)
        elif isinstance(t, (ThetaIdx, Theta, ThetaLow, ThetaHigh, ThetaXi)):
            stack.append(t.body)


# -- the level-walk kernel --------------------------------------------------------


def _rebuild(t: Term, child: Term) -> Term:
    """t with its one child replaced.  The constructors are called through
    their module names, so whoever rebinds one is seen here too."""
    tt = type(t)
    if tt is OmegaPow:
        return omega_pow(child)
    if tt is Theta:
        return theta(child)
    if tt is ThetaXi:
        return theta_xi(child)
    if tt is ThetaHigh:
        return theta_high(t.index, child)
    if tt is ThetaIdx:
        return theta_idx(t.index, child)
    if tt is Xi:
        return xi(t.level, child)
    return fvar(t.name, t.level, child)


def make_level_walk(head, test=False, memoize=None):
    """Build one level-carrying walk from its head clause: a term map -- a
    substitution, a shift, a parameter walk -- or, with `test`, a predicate.

    `walk(t, j, *args)` takes t at the ambient level j.  `head(t, j, *args)`
    runs first at every term and returns the answer there, None to let the
    kernel descend, or a descent of its own, as `make_walk`'s heads do:
    `(j1, child)`, whose answer is t rebuilt over `walk(child, j1, *args)`
    (a predicate's is that answer itself), or `(j1, child, then)`, whose
    answer is `then(walk(child, j1, *args))`.  The kernel passes j1 on and
    never reads it, so a level may be any value the head understands.
    Early exits such as `name not in t.var_names` belong in the head.

    The kernel owns the rest.  A sum maps to the sum of its children's
    images, or holds when every child does, and an omega power passes its
    exponent the same level.  Every other head passes its one child a level,
    by one table for all systems: th and thXi one level down, thOO and th_n
    the same level, Xi^(J1) and V^(J1) the level j - J1 when j <= J1.  Where
    the walk stops, a map keeps the term; a predicate fails at an Xi or a
    function variable above j (blocked) and holds at thO and the leaves
    (opaque).

    Single-child descents run in a loop, and a map rebuilds the heads it
    passed on the way up, keeping each one whose child came back unchanged.
    Only a sum's children cost a stack frame each, so a collapse or argument
    nest is walked to any depth.

    With `memoize`, a name, the walk keeps one memo row per ambient level
    and arguments, `memo[(j, *args)][t.serial]`, registered under that
    name.  It reads the row at each entry -- the top call and each sum
    child -- and stores an entry's answer only when the walk returns, so an
    error such as `ShiftError` is never stored and raises again on the same
    call; the descent loop stays frame-free.
    """

    memo: dict[tuple, dict[int, object]] | None = None
    if memoize:
        memo = CACHES[memoize] = {}

    def walk(t: Term, j, *args):
        if memo is not None:
            row = memo.get(key := (j, *args))
            if row is None:
                row = memo[key] = {}
            out = row.get(serial := t.serial)
            if out is not None:  # False is a stored answer
                return out
        passed = []  # each single-child head passed, or (head, then)
        while True:
            out = head(t, j, *args)
            if out is not None:
                if type(out) is not tuple:
                    break
                j, child = out[0], out[1]
                if len(out) == 3:
                    passed.append((t, out[2]))
                    t = child
                    continue
            elif (tt := type(t)) is Sum:
                if test:
                    out = all(walk(c, j, *args) for c in t.children)
                    break
                parts = []
                changed = False
                for c in t.children:
                    p = walk(c, j, *args)
                    if p is not c:
                        changed = True
                    parts.append(p)
                out = sum_of(parts) if changed else t
                break
            elif tt is OmegaPow:
                child = t.exponent
            elif tt is Theta or tt is ThetaXi:
                child, j = t.body, j - 1
            elif tt is ThetaHigh or tt is ThetaIdx:
                child = t.body
            elif (tt is Xi or tt is FVar) and j <= t.level:
                child, j = t.arg, j - t.level
            elif test:
                out = tt is not Xi and tt is not FVar
                break
            else:
                out = t
                break
            if not test:
                passed.append(t)
            t = child
        if passed:
            # On the way up, outermost last: a `then` takes the answer below
            # it, and a map rebuilds a head only where its child changed.
            for p in reversed(passed):
                if type(p) is tuple:
                    p, then = p
                    out = then(out)
                else:
                    out = p if out is t else _rebuild(p, out)
                t = p
        if memo is not None:
            row[serial] = out
        return out

    return walk


def check_level(j: int, what: str = "threshold"):
    """Reject a threshold or substitution level above 0, alike in every system."""
    if j > 0:
        raise PreconditionError(f"{what} level must be <= 0, got {j}")


def _substitutable_head(t: Term, j: int, name: str):
    if name not in t.var_names:
        return True
    if type(t) is VarLev:
        return j == t.level
    return None


# `substitutable(t, j, name)`: every occurrence of the variable sits at the
# level a substitution from j reaches it with (poly, xi and mixed alike).
substitutable = make_level_walk(_substitutable_head, test=True, memoize="core.substitutable")


# -- the system surface -----------------------------------------------------------

_WORDING = dict(buchholz="stratified", poly="polymorphic", xi="function-sorted", mixed="mixed")


def system_checks(system: str):
    """One system's operand checks `(check, check_pair)`: `check(t)` refuses
    a term of another system; `check_pair(a, b)`, `compare`'s, refuses either
    operand of another system, then an invalid one (only th_n makes one)."""
    bit = SYSTEM_NAMES[system]
    what = f"a {_WORDING[system]}-system term"

    def check(t: Term):
        if not t.mask & bit:
            raise PreconditionError(f"term {t!r} is not {what}")

    def check_pair(a: Term, b: Term):
        if not (a.mask & b.mask & bit and a.valid and b.valid):
            check(a)
            check(b)
            raise PreconditionError("comparison requires valid terms")

    return check, check_pair


# The dominance and Key Lemma names each system module forwards to `lemmas`.
_LEMMA_NAMES = {
    system: ("dfun", "llrel", *(f"key_lemma_{i}" for i in range(1, items + 1)))
    for system, items in (("buchholz", 3), ("poly", 3), ("xi", 4))
}


def reference_attr(system: str, name: str):
    """A system module's `__getattr__` for the names moved out of it:
    `<stem>_reference` is `reference.<system>_<stem>` and a `_LEMMA_NAMES`
    name is `lemmas.<system>_<name>`; any other raises, loading neither."""
    if name.endswith("_reference"):
        from . import reference as home
        name = name.removesuffix("_reference")
    elif name in _LEMMA_NAMES.get(system, ()):
        from . import lemmas as home
    else:
        raise AttributeError(f"module 'ordcalc.{system}' has no attribute {name!r}")
    return getattr(home, f"{system}_{name}")


def make_substitution(check, lift):
    """A level system's ordinal-variable substitution, `(substitutable,
    substitute, subst)`: the two checked entry points, and the unchecked
    walk `subst(t, j, name, beta)`.  `check` is the system's operand check
    and `lift(beta, j)` re-levels the value to an occurrence's level j."""

    def head(t: Term, j: int, name: str, beta: Term):
        if name not in t.var_names:
            return t
        if type(t) is VarLev:
            return lift(beta, j)
        return None

    subst = make_level_walk(head)

    def checked_substitutable(name: str, j: int, t: Term) -> bool:
        """A variable is substitutable at j when every occurrence sits at the
        ambient level the substitution will reach it with."""
        check(t)
        check_level(j, "substitution")
        return substitutable(t, j, name)

    def substitute(t: Term, name: str, j: int, beta: Term) -> Term:
        """Replace the variable by beta, re-levelled to each occurrence's
        ambient level.  Requires the variable to be j-substitutable in t."""
        check(t)
        check(beta)
        check_level(j, "substitution")
        if not substitutable(t, j, name):
            raise PreconditionError(f"variable {name!r} is not {j}-substitutable")
        return subst(t, j, name, beta)

    return checked_substitutable, substitute, subst


# -- canonical abstraction --------------------------------------------------------

_PARAMS = CACHES["core._PARAMS"] = {}  # per serial: the parameters of xi and mixed terms


def _collect_head(t: Term, j: int, out: set):
    if type(t) is Xi and t.level == j:
        out.add(xi(0, t.arg))
        return t
    return None


def _replace_head(t: Term, j: int, names: dict):
    if type(t) is Xi and t.level == j:
        name = names.get(xi(0, t.arg))
        if name is not None:
            return var_lev(name, j)
    return None


# `collect_params(t, ambient, out)` adds to `out` the parameters Xi^(0)(arg)
# of t: its Xi heads met at their own level.  It returns t unchanged.
collect_params = make_level_walk(_collect_head)
# `replace_params(t, ambient, names)`: t with each parameter occurrence that
# `names` maps replaced by the variable of that name.
replace_params = make_level_walk(_replace_head)


def params(t: Term) -> tuple[Term, ...]:
    """The parameters of t, key-sorted; memoized per serial."""
    cached = _PARAMS.get(t.serial)
    if cached is None:
        found: set = set()
        collect_params(t, 0, found)
        cached = _PARAMS[t.serial] = tuple(sorted(found, key=_key_of))
    return cached


def abstract_one(t: Term) -> tuple[Term, str | None]:
    """Canonical abstraction with a single distinguished variable standing
    for every parameter occurrence, as collapsed functions are collected:
    `(body, name)`, or `(t, None)` when t has no parameter.  The reference
    walks collect through here too, so the parameters are walked afresh,
    not read from the table."""
    found: set = set()
    collect_params(t, 0, found)
    if not found:
        return t, None
    name = fresh_name("k", t.var_names)
    return replace_params(t, 0, dict.fromkeys(found, name)), name


# -- the ordering kernel --------------------------------------------------------

_IN_PROGRESS = object()  # memo marker of a comparison still being decided


def _sum_rests(xs, ys):
    """The children tuples xs and ys with their common elements cancelled,
    each rest in its own order.  Equal terms are identical, so `in` and
    `remove` test identity and no term is hashed."""
    for x in xs:
        if x in ys:
            break
    else:
        return xs, ys  # disjoint, the common case
    rest_a = []
    rest_b = list(ys)
    for x in xs:
        if x in rest_b:
            rest_b.remove(x)
        else:
            rest_a.append(x)
    return rest_a, rest_b


def make_order(head, check, name):
    """Build one system's memoized strict order from its head rule.

    The sum and omega-power clauses are the same in every system and are
    decided here; `head(a, b)` decides a < b only for two strongly critical
    terms and returns a bool.  `check(a, b)` validates the operands of a
    `compare` call and raises on a bad pair.  Returns `(compare, lt)`.
    The memo, registered as `name`, keeps one row per left operand, keyed by
    the serial ints the terms hold, so a lookup builds and hashes no tuple.
    A comparison that needs its own answer raises InvariantError instead of
    recursing without end.

    An entry `memo[a.serial][b.serial]` holds the bool `lt(a, b)` wrote, or
    the `Outcome` that `compare(a, b)` put in its place once `check(a, b)`
    passed; `check` reads only immutable facts, so a warm `compare` is one
    row lookup with no `check` call, and a bool never skips it.  `lt` reads
    an `Outcome` as `entry is LESS`; a miss or the in-progress marker goes
    through `lt`, so a cycle met through `compare` still raises.  The
    sum-versus-sum clause cancels common children with `_sum_rests`.

    `lt` and the four memoized head rules pick a clause by `type(x) is C`
    and decide it with explicit `for` loops: no tuple `match`, no
    `any`/`all` over a generator, and `leq` inlined as `x is y or lt(x, y)`.
    Each clause runs the same sub-comparisons, in the same order and with
    the same short cuts, as the reference's coding of it.  The reference
    (`reference.make_reference` and every head rule there) keeps tuple
    `match` and `any`/`all` on purpose, so the oracle check compares two
    codings of the clauses.
    """
    memo = CACHES[name] = {}
    # Closure locals: `compare` and `lt` read these far faster than Enum members.
    LESS, GREATER = Outcome.LESS, Outcome.GREATER
    EQUAL, INCOMPARABLE = Outcome.EQUAL, Outcome.INCOMPARABLE

    def compare(a: Term, b: Term) -> Outcome:
        """Decide the ordering; Incomparable only occurs on open terms."""
        row = memo.get(a.serial)
        cached = None if row is None else row.get(b.serial)
        # An Outcome was stored after `check` passed on this very pair.
        if cached.__class__ is Outcome:
            return cached
        check(a, b)
        if a is b:
            return EQUAL
        # A bool in the entry is used; a miss or the in-progress marker goes
        # through `lt`, which decides it or raises on the cycle.
        if cached is True or (cached is not False and lt(a, b)):
            cached = LESS
        else:
            row = memo.get(b.serial)
            back = None if row is None else row.get(a.serial)
            if back is None or back is _IN_PROGRESS:
                back = lt(b, a)
            cached = GREATER if back is True or back is LESS else INCOMPARABLE
        memo[a.serial][b.serial] = cached
        return cached

    def lt(a: Term, b: Term) -> bool:
        if a is b:
            return False
        row = memo.get(a.serial)
        if row is None:
            row = memo[a.serial] = {}
        key = b.serial
        cached = row.get(key)
        if cached is None:
            row[key] = _IN_PROGRESS
            # The shared clauses stay inline and loop without generators: a
            # nested sum or omega power then costs one stack frame per
            # level, so deep terms compare.
            try:
                ta, tb = type(a), type(b)
                if ta is Sum:
                    cached = False
                    if tb is Sum:
                        # some rest_b entry is above every rest_a entry
                        rest_a, rest_b = _sum_rests(a.children, b.children)
                        for y in rest_b:
                            for x in rest_a:
                                if not lt(x, y):
                                    break
                            else:
                                cached = True
                                break
                    else:
                        for x in a.children:
                            if not lt(x, b):
                                break
                        else:
                            cached = True
                elif tb is Sum:
                    cached = False
                    for y in b.children:
                        if a is y or lt(a, y):
                            cached = True
                            break
                elif ta is OmegaPow:
                    if tb is OmegaPow:
                        cached = lt(a.exponent, b.exponent)
                    else:
                        x = a.exponent
                        cached = x is b or lt(x, b)
                elif tb is OmegaPow:
                    cached = lt(a, b.exponent)
                else:  # both strongly critical
                    cached = head(a, b)
            except BaseException:
                row.pop(key, None)
                raise
            row[key] = cached
            return cached
        if cached is True or cached is False:
            return cached
        if cached is _IN_PROGRESS:
            raise InvariantError(f"comparison cycle on {a!r} vs {b!r}")
        return cached is LESS  # an Outcome that `compare` stored

    return compare, lt


# -- the set-walk kernel ----------------------------------------------------------


def make_walk(head, name):
    """Build one memoized set walk -- a formal-cardinality or critical-subterm
    walk -- from its head clauses.

    `walk(arg, t)` owns the memo `name` registers, one row per `arg` (a
    `kset*` walk's threshold; None in the threshold-free `fc` walks),
    `memo[arg][t.serial]` (no tuple key; a descent that moves `arg` switches
    rows), and the clauses every system shares: a sum's set is the union of
    its children's sets and an omega power's its exponent's, at the same `arg`.
    `head(arg, t)` decides every other term and returns either the set or a
    descent: `(arg1, child)`, whose set is `walk(arg1, child)`, or
    `(arg1, child, then)`, whose set is `then(walk(arg1, child))`.  This is
    the head contract `make_level_walk` shares; the kernel uses `arg1` only
    as the key of its next memo row.

    The walk follows descents and omega powers in a loop, after `head` has
    returned, and memoizes every level it passed once the innermost set is
    known.  Only a sum's children cost a stack frame each, so a collapse or
    omega-power nest is walked to any depth.
    """
    memo = CACHES[name] = defaultdict(dict)

    def walk(arg, t: Term) -> frozenset:
        row = memo[arg]
        out = row.get(t.serial)
        if out is not None:
            return out
        pending = []  # (row, serial, then or None) of each level passed
        while True:
            tt = type(t)
            if tt is Sum:
                parts = []
                for c in t.children:
                    parts.append(walk(arg, c))
                out = row[t.serial] = _shared(frozenset().union(*parts))
                break
            if tt is OmegaPow:
                pending.append((row, t.serial, None))
                t = t.exponent
            else:
                out = head(arg, t)
                if type(out) is not tuple:
                    out = row[t.serial] = _shared(out)
                    break
                pending.append((row, t.serial, out[2] if len(out) == 3 else None))
                if out[0] is not arg:
                    arg = out[0]
                    row = memo[arg]
                t = out[1]
            out = row.get(t.serial)
            if out is not None:
                break
        for row, serial, then in reversed(pending):
            if then is not None:
                out = _shared(then(out))
            row[serial] = out
        return out

    return walk

