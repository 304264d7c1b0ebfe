"""Verification harness: exhaustive term enumeration under a budget,
order-axiom checks, Key-Lemma sampling, pinned fixtures, and cross-checks of
the memoized operation paths against the plain reference paths.

Reports are line-delimited JSON records; a report is reproducible from its
budget and seed (timing excluded).
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cmp_to_key

from . import buchholz, mixed, poly, syntax, xi
from .core import (
    NEG_INF,
    FVar,
    Outcome,
    PreconditionError,
    ShiftError,
    Term,
    Theta,
    VarIdx,
    VarLev,
    fvar,
    is_sc,
    omega_high,
    omega_idx,
    omega_lev,
    omega_pow,
    subterms,
    sum_of,
    summands,
    theta,
    theta_high,
    theta_idx,
    theta_low,
    theta_xi,
    var_idx,
    var_lev,
    xi as mk_xi,
    ZERO,
)
from .syntax import render

SYSTEMS = ("buchholz", "poly", "xi", "mixed")

_COMPARE = {
    "buchholz": buchholz.compare,
    "poly": poly.compare,
    "xi": xi.compare,
    "mixed": mixed.compare,
}
_COMPARE_REFERENCE = {
    "buchholz": buchholz.compare_reference,
    "poly": poly.compare_reference,
    "xi": xi.compare_reference,
    "mixed": mixed.compare_reference,
}


@dataclass(frozen=True)
class EnumBudget:
    """Bounds that keep a term universe finite: node-count cap, level floor,
    subscript ceiling, and whether variables are admitted."""

    system: str
    max_size: int
    min_level: int = -2
    max_subscript: int = 2
    closed_only: bool = True
    var_names: tuple[str, ...] = ("x",)
    include_fvars: bool = False
    hard_cap: int = 500_000


# A report keeps the first MAX_VIOLATIONS violations (fixtures keep all).
MAX_VIOLATIONS = 25


@dataclass
class CheckReport:
    check: str
    system: str
    checked: int
    violations: list = field(default_factory=list)
    seed: int = 0
    elapsed_ms: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def note(self, kind: str, **fields):
        """Record one violation; those past the first MAX_VIOLATIONS are dropped."""
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append({"kind": kind, **fields})

    def to_json(self, timing: bool = True) -> str:
        record = {
            "check": self.check,
            "system": self.system,
            "checked": self.checked,
            "violations": self.violations,
            "seed": self.seed,
            "elapsed_ms": round(self.elapsed_ms, 3) if timing else None,
            "details": self.details,
        }
        return json.dumps(record, sort_keys=True)


def _derive_seed(seed: int, label: str) -> int:
    return (seed ^ zlib.crc32(label.encode())) & 0xFFFFFFFFFFFFFFFF


@contextmanager
def _checking(check: str, system: str, seed: int):
    """A fresh report whose elapsed_ms is the time spent in the block."""
    report = CheckReport(check=check, system=system, checked=0, seed=seed)
    start = time.perf_counter()
    yield report
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0


# -- enumeration ----------------------------------------------------------------

class _Enumerator:
    def __init__(self, budget: EnumBudget):
        if budget.system not in SYSTEMS:
            raise PreconditionError(f"unknown system {budget.system!r}")
        if budget.max_size < 1:
            raise PreconditionError("max_size must be >= 1")
        if budget.min_level > 0:
            raise PreconditionError("min_level must be <= 0")
        self.b = budget
        self._h: dict[int, list[Term]] = {}
        self._t: dict[int, list[Term]] = {}
        self.count = 0

    def _bump(self, n: int = 1):
        self.count += n
        if self.count > self.b.hard_cap:
            raise PreconditionError(
                f"enumeration exceeded the hard cap of {self.b.hard_cap} terms"
            )

    def levels(self):
        return range(self.b.min_level, 1)

    def subscripts(self):
        return range(1, self.b.max_subscript + 1)

    def h_terms(self, s: int) -> list[Term]:
        if s in self._h:
            return self._h[s]
        out: list[Term] = []
        b = self.b
        if s >= 2:
            for e in self.terms(s - 1):
                out.append(omega_pow(e))
        if b.system == "buchholz":
            if s == 1:
                out.extend(omega_idx(n) for n in self.subscripts())
                if not b.closed_only:
                    out.extend(
                        var_idx(v, n) for v in b.var_names for n in self.subscripts()
                    )
            if s >= 2:
                for body in self.terms(s - 1):
                    for n in self.subscripts():
                        if body.vmax < n:
                            out.append(theta_idx(n, body))
        elif b.system == "poly":
            if s == 2:
                out.extend(omega_lev(j) for j in self.levels())
                if not b.closed_only:
                    out.extend(var_lev(v, j) for v in b.var_names for j in self.levels())
            if s >= 2:
                out.extend(theta(body) for body in self.terms(s - 1))
        elif b.system == "xi":
            if s == 2 and not b.closed_only:
                out.extend(var_lev(v, j) for v in b.var_names for j in self.levels())
            if s >= 2:
                for body in self.terms(s - 1):
                    if not body.has_fvar:
                        out.append(theta(body))
            if s >= 3:
                for arg in self.terms(s - 2):
                    out.extend(mk_xi(j, arg) for j in self.levels())
                    if not b.closed_only and b.include_fvars:
                        out.extend(
                            fvar(v.upper(), j, arg)
                            for v in b.var_names
                            for j in self.levels()
                        )
        elif b.system == "mixed":
            if s == 1:
                out.extend(omega_idx(n) for n in self.subscripts())
            if s == 2:
                out.extend(
                    omega_high(j, n)
                    for j in self.levels()
                    for n in self.subscripts()
                )
                if not b.closed_only:
                    out.extend(var_lev(v, j) for v in b.var_names for j in self.levels())
            if s >= 2:
                for body in self.terms(s - 1):
                    for n in self.subscripts():
                        out.append(theta_low(n, body))
                        out.append(theta_high(n, body))
                    out.append(theta_xi(body))
            if s >= 3:
                for arg in self.terms(s - 2):
                    out.extend(mk_xi(j, arg) for j in self.levels())
        self._bump(len(out))
        out.sort(key=lambda t: t.key)
        self._h[s] = out
        return out

    def terms(self, s: int) -> list[Term]:
        if s in self._t:
            return self._t[s]
        out = list(self.h_terms(s))
        if s == 1:
            out.append(ZERO)
        out.extend(self._sums(s))
        self._bump()
        out.sort(key=lambda t: t.key)
        self._t[s] = out
        return out

    def _sums(self, s: int):
        # multisets of >= 2 H-components whose sizes total s - 1
        child_budget = s - 2  # largest size any single component may have
        if child_budget < 1:
            return
        pool: list[Term] = []
        for k in range(1, child_budget + 1):
            pool.extend(self.h_terms(k))
        pool.sort(key=lambda t: (t.size, t.key))

        def rec(start: int, remaining: int, picked: list[Term]):
            if len(picked) >= 2 and remaining == 0:
                yield sum_of(picked)
            for i in range(start, len(pool)):
                t = pool[i]
                if t.size > remaining:
                    break
                picked.append(t)
                yield from rec(i, remaining - t.size, picked)
                picked.pop()

        yield from rec(0, s - 1, [])


def enumerate_terms(budget: EnumBudget) -> tuple[Term, ...]:
    """Every canonical, valid term within the budget, once each, key-sorted."""
    enum = _Enumerator(budget)
    out: list[Term] = []
    for s in range(1, budget.max_size + 1):
        out.extend(enum.terms(s))
    out.sort(key=lambda t: t.key)
    return tuple(out)


# -- order axioms -----------------------------------------------------------------

def check_order_axioms(
    system: str,
    terms,
    sample_triples: int = 100_000,
    seed: int = 0,
    pair_cap: int = 250_000,
    sort_sample: int = 20_000,
) -> CheckReport:
    """Totality + irreflexivity over all pairs (or a declared sample above
    pair_cap), transitivity over sampled triples, and sort consistency."""
    cmp = _COMPARE[system]
    terms = list(terms)
    n = len(terms)
    rng = random.Random(_derive_seed(seed, f"order:{system}"))
    with _checking("order_axioms", system, seed) as report:
        for t in terms:
            report.checked += 1
            if cmp(t, t) is not Outcome.EQUAL:
                report.note("irreflexivity", term=render(t))

        total_pairs = n * (n - 1) // 2
        if total_pairs <= pair_cap:
            pairs = itertools.combinations(range(n), 2)
            report.details["pairs_mode"] = "all"
            report.details["pairs"] = total_pairs
        else:
            pairs = (
                tuple(sorted(rng.sample(range(n), 2))) for _ in range(pair_cap)
            )
            report.details["pairs_mode"] = "sampled"
            report.details["pairs"] = pair_cap
        for i, j in pairs:
            a, b = terms[i], terms[j]
            ab, ba = cmp(a, b), cmp(b, a)
            report.checked += 1
            if ab is Outcome.INCOMPARABLE or ab is Outcome.EQUAL:
                report.note("totality", left=render(a), right=render(b), got=ab.value)
            elif (ab is Outcome.LESS) == (ba is Outcome.LESS):
                report.note("asymmetry", left=render(a), right=render(b))

        for _ in range(sample_triples):
            i, j, k = (rng.randrange(n) for _ in range(3))
            a, b, c = terms[i], terms[j], terms[k]
            report.checked += 1
            if cmp(a, b) is Outcome.LESS and cmp(b, c) is Outcome.LESS:
                if cmp(a, c) is not Outcome.LESS:
                    report.note(
                        "transitivity",
                        a=render(a),
                        b=render(b),
                        c=render(c),
                    )

        def as_cmp(x, y):
            o = cmp(x, y)
            if o is Outcome.LESS:
                return -1
            if o is Outcome.GREATER:
                return 1
            if o is Outcome.EQUAL:
                return 0
            report.note("sort_incomparable", left=render(x), right=render(y))
            return 0

        ordered = sorted(terms, key=cmp_to_key(as_cmp))
        for a, b in zip(ordered, ordered[1:]):
            report.checked += 1
            if cmp(a, b) is not Outcome.LESS:
                report.note("sort_adjacent", left=render(a), right=render(b))
        for _ in range(min(sort_sample, n * n)):
            i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
            if i != j:
                report.checked += 1
                if cmp(ordered[i], ordered[j]) is not Outcome.LESS:
                    report.note(
                        "sort_sampled",
                        left=render(ordered[i]),
                        right=render(ordered[j]),
                    )
    report.details["terms"] = n
    return report


# -- oracle cross-check ------------------------------------------------------------

def check_oracle_equivalence(
    system: str, terms, pairs: int = 100_000, seed: int = 0
) -> CheckReport:
    """Memoized comparator versus the plain direct-recursion reference."""
    cmp = _COMPARE[system]
    ref = _COMPARE_REFERENCE[system]
    terms = list(terms)
    n = len(terms)
    rng = random.Random(_derive_seed(seed, f"oracle:{system}"))
    with _checking("oracle_equivalence", system, seed) as report:
        for _ in range(pairs):
            a = terms[rng.randrange(n)]
            b = terms[rng.randrange(n)]
            report.checked += 1
            fast, slow = cmp(a, b), ref(a, b)
            if fast is not slow:
                report.note(
                    "comparator_disagreement",
                    left=render(a),
                    right=render(b),
                    memoized=fast.value,
                    reference=slow.value,
                )
    report.details["terms"] = n
    return report


def check_kset_oracle(system: str, terms, seed: int = 0) -> CheckReport:
    """Memoized critical-subterm computation versus the reference path."""
    with _checking("kset_oracle", system, seed) as report:
        for t in terms:
            if system == "buchholz":
                for n in (1, 2, 3):
                    report.checked += 1
                    if buchholz.kset(n, t) != buchholz.kset_reference(n, t):
                        report.note("kset_disagreement", term=render(t), at=f"n={n}")
            elif system == "poly":
                for j in (0, -1):
                    report.checked += 1
                    if poly.kset(j, t) != poly.kset_reference(j, t):
                        report.note("kset_disagreement", term=render(t), at=f"j={j}")
            elif system == "xi":
                for j in (0, -1):
                    report.checked += 1
                    if xi.kset(j, t) != xi.kset_reference(j, t):
                        report.note("kset_disagreement", term=render(t), at=f"j={j}")
            else:
                for n in (1, 2):
                    report.checked += 1
                    if mixed.kset_low(n, t) != mixed.kset_low_reference(n, t):
                        report.note("kset_disagreement", term=render(t), at=f"low n={n}")
                    report.checked += 1
                    c = mixed.large(0, n)
                    if mixed.kset_high(c, n, t) != mixed.kset_high_reference(c, n, t):
                        report.note("kset_disagreement", term=render(t), at=f"high c=(0,{n})")
                report.checked += 1
                c = mixed.large(0, 0)
                if mixed.kset_xi(c, t) != mixed.kset_xi_reference(c, t):
                    report.note("kset_disagreement", term=render(t), at="xi c=(0,0)")
    return report


# -- parser round trip ---------------------------------------------------------------

def check_roundtrip(system: str, terms, seed: int = 0) -> CheckReport:
    with _checking("parse_render_roundtrip", system, seed) as report:
        for t in terms:
            report.checked += 1
            back = syntax.parse(system, render(t))
            if back is not t:
                report.note("roundtrip", term=render(t), reparsed=render(back))
    return report


# -- pinned fixtures -------------------------------------------------------------
#
# Each fixture is an independently derived expected value: ladder facts,
# cardinality readings, critical-subterm sets, and cardinal arithmetic.

def _expect_equal(got, want):
    return got == want, f"got {got!r}, want {want!r}"


def _expect_outcome(got: Outcome, want: Outcome):
    return got is want, f"got {got.value}, want {want.value}"


def _fixture_table():
    pb = lambda s: syntax.parse("buchholz", s)
    pp = lambda s: syntax.parse("poly", s)
    px = lambda s: syntax.parse("xi", s)
    pm = lambda s: syntax.parse("mixed", s)
    L, G = Outcome.LESS, Outcome.GREATER

    def ladder(cmp, a, b):
        return lambda: _expect_outcome(cmp(a, b), L)

    fixtures = [
        # stratified ladder and cardinality
        ("buchholz/omega_ladder", ladder(buchholz.compare, pb("O_2"), pb("O_3"))),
        (
            "buchholz/fc_top_class",
            lambda: _expect_equal(buchholz.fc(pb("O_3 # O_2 # w^(O_1)"))[1], 3),
        ),
        (
            "buchholz/variable_scope_invalid",
            lambda: _expect_equal(
                buchholz.classify(theta_idx(1, var_idx("x", 1))).is_valid, False
            ),
        ),
        (
            "buchholz/parser_rejects_scope_violation",
            lambda: _expect_equal(_raises(syntax.ParseError, lambda: pb("th_1(v.x_1)")), True),
        ),
        (
            "buchholz/substitution_needs_small_target",
            lambda: _expect_equal(
                _raises(
                    PreconditionError,
                    lambda: buchholz.substitute(
                        theta_idx(2, var_idx("x", 1)), "x", 1, omega_idx(1)
                    )
                ),
                True,
            ),
        ),
        (
            "buchholz/dominance_at_level_zero_is_lt",
            lambda: _expect_equal(buchholz.llrel(0, ZERO, ZERO, omega_pow(ZERO)), True),
        ),
        # polymorphic cardinality and critical subterms
        (
            "poly/fc_relative_max",
            lambda: _expect_equal(poly.fc(0, pp("O^(-1) # O^(-2) # O^(-2)"))[1], -1),
        ),
        (
            "poly/fc_collapse_keeps_free_level",
            lambda: _expect_equal(poly.fc(0, pp("th(O^(0) # O^(-1))"))[1], 0),
        ),
        (
            "poly/shift_collision",
            lambda: _expect_equal(
                _raises(ShiftError, lambda: poly.shift(pp("th(O^(-1))"), 0, 1)), True
            ),
        ),
        (
            "poly/kset_bound_pair_empty",
            lambda: _expect_equal(poly.kset(0, pp("th(O^(0) # O^(-1))")), frozenset()),
        ),
        (
            "poly/kset_self_critical",
            lambda: _expect_equal(
                poly.kset(0, pp("th(O^(0))")), frozenset({pp("th(O^(0))")})
            ),
        ),
        ("poly/level_ladder", ladder(poly.compare, pp("O^(-2)"), pp("O^(-1)"))),
        # function-sorted system
        (
            "xi/kset_collects_function",
            lambda: _expect_equal(
                {(render(i.term), i.var is not None) for i in xi.kset(0, px("th(Xi^(-1)(0))"))},
                {("th(v.k^(0))", True)},
            ),
        ),
        ("xi/head_argument_order", ladder(xi.compare, px("Xi^(0)(0)"), px("Xi^(0)(w^(0))"))),
        ("xi/head_level_order", ladder(xi.compare, px("Xi^(-1)(w^(0))"), px("Xi^(0)(0)"))),
        # mixed cardinal arithmetic and ladder
        (
            "mixed/card_subtract_level",
            lambda: _expect_equal(
                mixed.card_minus_level(mixed.large(-1, 2), -1), mixed.large(0, mixed.INF)
            ),
        ),
        (
            "mixed/card_min_with_nat",
            lambda: _expect_equal(
                mixed.card_min_nat(mixed.large(0, 3), 1), mixed.large(0, 1)
            ),
        ),
        (
            "mixed/card_ladder",
            lambda: _expect_outcome(
                mixed.card_compare(mixed.large(-1, mixed.INF), mixed.large(0, 0)), L
            ),
        ),
        (
            "mixed/shift_fixes_plain_cardinals",
            lambda: _expect_equal(mixed.shift(pm("O_3"), mixed.FULL, 1), pm("O_3")),
        ),
        (
            "mixed/fc_plain_cardinal",
            lambda: _expect_equal(
                mixed.fc(mixed.FULL, pm("O_3"))[0], frozenset({mixed.fin(3)})
            ),
        ),
        (
            "mixed/kset_ignores_function_head",
            lambda: _expect_equal(mixed.kset_low(1, pm("Xi^(0)(0)")), frozenset()),
        ),
        ("mixed/plain_below_upper", ladder(mixed.compare, pm("O_5"), pm("OO_1^(0)"))),
        ("mixed/upper_below_function", ladder(mixed.compare, pm("OO_2^(-1)"), pm("Xi^(0)(0)"))),
        ("mixed/function_below_upper_same_level", ladder(mixed.compare, pm("Xi^(0)(0)"), pm("OO_1^(0)"))),
        # critical-subterm set in the CLI wire format
        (
            "poly/cli_kset",
            lambda: _expect_equal(
                syntax.render_set(poly.kset(0, pp("th(O^(0))"))), "{th(O^(0))}"
            ),
        ),
    ]
    return fixtures


def _raises(exc_type, thunk) -> bool:
    try:
        thunk()
    except exc_type:
        return True
    return False


def check_fixtures(seed: int = 0) -> CheckReport:
    """Run every pinned fixture; each must match exactly."""
    with _checking("fixtures", "all", seed) as report:
        for name, thunk in _fixture_table():
            report.checked += 1
            try:
                ok, detail = thunk()
            except Exception as exc:  # a crashing fixture is a failure
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            if not ok:
                report.violations.append({"kind": "fixture", "name": name, "detail": detail})
    report.details["fixtures"] = report.checked
    return report


# -- class membership and closure (polymorphic system) ----------------------------

def check_m_membership(terms, seed: int = 0) -> CheckReport:
    """Every closed term's star form passes the structural class predicate at
    its own class index."""
    with _checking("m_membership", "poly", seed) as report:
        for t in terms:
            report.checked += 1
            r = poly.normalize(t)
            if not r.m_member:
                report.note(
                    "m_membership",
                    term=render(t),
                    star=render(r.star),
                    class_index=repr(r.class_index),
                )
    return report


def check_m_closure(terms, seed: int = 0, sum_samples: int = 20_000) -> CheckReport:
    """Class membership is preserved by omega powers, by collapse after a
    downward shift, and by sums after aligning classes."""
    rng = random.Random(_derive_seed(seed, "m_closure"))
    stars = []
    for t in terms:
        s = poly.star(t)
        stars.append((s, poly.class_of(s)))

    with _checking("m_closure", "poly", seed) as report:
        for s, n in stars:
            report.checked += 1
            if not poly.m_member(omega_pow(s), n):
                report.note("omega_closure", term=render(s))
            report.checked += 1
            collapsed = theta(poly.shift(s, 0, -1))
            if not poly.m_member(collapsed, n):
                report.note("collapse_closure", term=render(s))
        for _ in range(sum_samples):
            (sa, m), (sb, n) = rng.choice(stars), rng.choice(stars)
            if m > n:
                (sa, m), (sb, n) = (sb, n), (sa, m)
            if m == NEG_INF or m == n:
                shifted = sa
            else:
                shifted = poly.shift(sa, 0, -(n - m))
            report.checked += 1
            combined = sum_of(
                [*summands(shifted), *summands(sb)]
            )
            if not poly.m_member(combined, n):
                report.note("sum_closure", left=render(sa), right=render(sb))
    return report


def check_k_class_drop(terms, seed: int = 0) -> CheckReport:
    """For a top-class term, every critical subterm's star falls in a
    strictly smaller class (what the class recursion needs)."""
    with _checking("k_class_drop", "poly", seed) as report:
        for t in terms:
            if poly.fc_max(t) != 0:
                continue
            cls = -poly.ground(t)
            for beta in poly.kset(0, t):
                report.checked += 1
                bstar = poly.star(beta)
                if not poly.class_of(bstar) < cls:
                    report.note("class_drop", term=render(t), critical=render(beta))
    return report


def check_k_fc_drop(terms, seed: int = 0) -> CheckReport:
    """The literal cardinality-drop reading: every critical subterm has
    strictly smaller top cardinality than its source term.  The self-critical
    collapse (K of th(O^(0)) contains the term itself) falsifies this; the
    report exists to document the failure honestly."""
    with _checking("k_fc_drop_literal", "poly", seed) as report:
        for t in terms:
            top = poly.fc_max(t)
            for beta in poly.kset(0, t):
                report.checked += 1
                if not poly.fc_max(beta) < top:
                    report.note("fc_drop", term=render(t), critical=render(beta))
    return report


def check_fc_monotone(terms, seed: int = 0, pair_cap: int = 250_000) -> CheckReport:
    """Stratified system: a strictly larger top cardinality implies a larger
    term."""
    terms = list(terms)
    n = len(terms)
    rng = random.Random(_derive_seed(seed, "fc_monotone"))
    with _checking("fc_monotone", "buchholz", seed) as report:
        total_pairs = n * (n - 1) // 2
        if total_pairs <= pair_cap:
            pairs = itertools.combinations(range(n), 2)
            report.details["pairs_mode"] = "all"
        else:
            pairs = (tuple(rng.sample(range(n), 2)) for _ in range(pair_cap))
            report.details["pairs_mode"] = "sampled"
        for i, j in pairs:
            a, b = terms[i], terms[j]
            fa, fb = buchholz.fc(a)[1], buchholz.fc(b)[1]
            if fa == fb:
                continue
            if fa > fb:
                a, b, fa, fb = b, a, fb, fa
            report.checked += 1
            if buchholz.compare(a, b) is not Outcome.LESS:
                report.note("fc_monotone", small=render(a), large=render(b))
    return report


def check_abstraction_roundtrip(terms, seed: int = 0) -> CheckReport:
    """Reapplying a canonical abstraction's parameters reproduces the term."""
    with _checking("abstraction_roundtrip", "xi", seed) as report:
        for t in terms:
            report.checked += 1
            a = xi.abstract(t)
            if xi.apply_abstraction(a) is not t:
                report.note("abstraction", term=render(t), body=render(a.body))
    return report


def check_collapse_not_self_value(terms, seed: int = 0, limit: int = 4000) -> CheckReport:
    """A collapse is never a value of one of its own collected functions:
    for gamma in K(body) and any enumerated delta < th(body),
    gamma[delta] != th(body)."""
    collapses = [t for t in terms if isinstance(t, Theta)]
    small = [t for t in terms if t.size <= 4]
    with _checking("collapse_not_self_value", "xi", seed) as report:
        for t in collapses[:limit]:
            items = [i for i in xi.kset(0, t.body) if i.var is not None]
            if not items:
                continue
            for delta in small:
                if xi.compare(delta, t) is not Outcome.LESS:
                    continue
                for item in items:
                    report.checked += 1
                    if xi.instantiate(item, delta) is t:
                        report.note(
                            "self_value",
                            term=render(t),
                            function=render(item.term),
                            argument=render(delta),
                        )
    return report


# -- Key Lemma sampling -------------------------------------------------------------

_KL_POOL_BUDGETS = {
    "buchholz": dict(max_size=5, max_subscript=2),
    "poly": dict(max_size=5, min_level=-2),
    "xi": dict(max_size=5, min_level=-2),
}


@functools.cache
def _pool(budget: EnumBudget) -> tuple[Term, ...]:
    return enumerate_terms(budget)


def _run_item(report, label, rng, gen, check, samples, max_factor=60):
    accepted = attempts = 0
    while accepted < samples and attempts < samples * max_factor:
        attempts += 1
        instance = gen(rng)
        if instance is None:
            continue
        try:
            ok = check(*instance)
        except PreconditionError:
            continue
        accepted += 1
        if not ok:
            report.note(
                label,
                instance=[render(x) if isinstance(x, Term) else x for x in instance],
            )
    rate = accepted / attempts if attempts else 0.0
    report.details[label] = {
        "accepted": accepted,
        "attempts": attempts,
        "acceptance_rate": round(rate, 4),
        "starved": accepted < samples,
    }
    report.checked += accepted


def _mentions_var_idx(t: Term, name: str, n: int) -> bool:
    return name in t.var_names and any(
        isinstance(s, VarIdx) and s.name == name and s.index == n for s in subterms(t)
    )


def _mentions_var_lev(t: Term, name: str) -> bool:
    return name in t.var_names and any(
        isinstance(s, VarLev) and s.name == name for s in subterms(t)
    )


def _mentions_fvar(t: Term, name: str) -> bool:
    return (
        t.has_fvar
        and name in t.var_names
        and any(isinstance(s, FVar) and s.name == name for s in subterms(t))
    )


# Each system's sampling pools are derived once per process and shared by
# every call, which only reads them; their order fixes the RNG stream.


@functools.cache
def _kl_pools_buchholz():
    closed = _pool(EnumBudget("buchholz", **_KL_POOL_BUDGETS["buchholz"]))
    opened = _pool(
        EnumBudget("buchholz", closed_only=False, **_KL_POOL_BUDGETS["buchholz"])
    )
    gamma_pool = {
        n: [t for t in closed if buchholz.fc(t)[1] < n] for n in (0, 1, 2)
    }
    mention = {
        n: [t for t in opened if _mentions_var_idx(t, "x", n)] for n in (1, 2)
    }
    valid_open = [t for t in opened if t.valid]
    gamma3 = {
        n: [t for t in valid_open if t.vmax <= n] for n in (1, 2)
    }
    return closed, gamma_pool, mention, valid_open, gamma3


def _kl_buchholz(samples: int, seed: int) -> CheckReport:
    closed, gamma_pool, mention, valid_open, gamma3 = _kl_pools_buchholz()

    def gen1(rng):
        n = rng.choice((1, 2))
        alpha = rng.choice(mention[n] if rng.random() < 0.7 else valid_open)
        beta = rng.choice(valid_open if rng.random() < 0.5 else mention[n])
        if not (_mentions_var_idx(alpha, "x", n) or _mentions_var_idx(beta, "x", n)):
            return None
        if not (alpha.valid and beta.valid):
            return None
        if buchholz.compare(alpha, beta) is not Outcome.LESS:
            return None
        return alpha, beta, "x", n, rng.choice(gamma_pool[n])

    def gen2(rng):
        n = rng.choice((1, 2))
        return n, rng.choice(gamma_pool[n]), rng.choice(closed), rng.choice(closed)

    def gen3(rng):
        n = rng.choice((1, 2))
        delta = rng.choice(gamma_pool[n - 1])
        gamma = rng.choice(gamma3[n] if rng.random() < 0.5 else closed)
        if gamma.vmax > n:
            return None
        return n, delta, rng.choice(closed), rng.choice(closed), gamma, "x"

    with _checking("key_lemma", "buchholz", seed) as report:
        rng = random.Random(_derive_seed(seed, "kl:buchholz"))
        _run_item(report, "item1", rng, gen1, buchholz.key_lemma_1, samples)
        _run_item(report, "item2", rng, gen2, buchholz.key_lemma_2, samples)
        _run_item(report, "item3", rng, gen3, buchholz.key_lemma_3, samples)
    return report


@functools.cache
def _kl_pools_poly():
    closed = _pool(EnumBudget("poly", **_KL_POOL_BUDGETS["poly"]))
    opened = _pool(EnumBudget("poly", closed_only=False, **_KL_POOL_BUDGETS["poly"]))
    small = [t for t in closed if poly.fc_max(t) < 0]
    mention = [t for t in opened if _mentions_var_lev(t, "x")]
    subst0 = [t for t in mention if poly.substitutable("x", 0, t)]
    return closed, opened, small, subst0


def _kl_poly(samples: int, seed: int) -> CheckReport:
    closed, both, small, subst0 = _kl_pools_poly()

    def gen1(rng):
        alpha = rng.choice(subst0 if rng.random() < 0.7 else both)
        beta = rng.choice(both if rng.random() < 0.5 else subst0)
        if not (_mentions_var_lev(alpha, "x") or _mentions_var_lev(beta, "x")):
            return None
        if not (
            poly.substitutable("x", 0, alpha) and poly.substitutable("x", 0, beta)
        ):
            return None
        if poly.compare(alpha, beta) is not Outcome.LESS:
            return None
        return alpha, beta, "x", rng.choice(small)

    def gen2(rng):
        # Open operands make the conclusion undecidable under the variable
        # convention; their content is covered by item 1 plus closed runs.
        return rng.choice(small), rng.choice(closed), rng.choice(closed)

    def gen3(rng):
        gamma = rng.choice(subst0 if rng.random() < 0.5 else closed)
        return rng.choice(small), rng.choice(closed), rng.choice(closed), gamma, "x"

    with _checking("key_lemma", "poly", seed) as report:
        rng = random.Random(_derive_seed(seed, "kl:poly"))
        _run_item(report, "item1", rng, gen1, poly.key_lemma_1, samples)
        _run_item(report, "item2", rng, gen2, poly.key_lemma_2, samples)
        _run_item(report, "item3", rng, gen3, poly.key_lemma_3, samples)
    return report


@functools.cache
def _kl_pools_xi():
    closed = _pool(EnumBudget("xi", **_KL_POOL_BUDGETS["xi"]))
    open_x = _pool(EnumBudget("xi", closed_only=False, **_KL_POOL_BUDGETS["xi"]))
    open_w = _pool(
        EnumBudget("xi", max_size=4, min_level=-2, closed_only=False, var_names=("w",))
    )
    open_f = _pool(
        EnumBudget(
            "xi",
            max_size=6,
            min_level=-1,
            closed_only=False,
            include_fvars=True,
        )
    )
    small = [t for t in closed if xi.fc_max(t) < 0]
    gamma1 = [
        t
        for t in open_x
        if _mentions_var_lev(t, "x") and xi.substitutable("x", 0, t)
    ]
    fpool = [
        t for t in open_f if _mentions_fvar(t, "X") and xi.fsubstitutable("X", 0, t)
    ]
    bodies = [
        t
        for t in open_w
        if xi.fc_max(t) < 0
        and is_sc(t)
        and not isinstance(t, VarLev)
        and _mentions_var_lev(t, "w")
        and xi.substitutable("w", 0, t)
    ]
    gamma4 = [t for t in fpool if xi.fsubstitutable("X", 0, t)]
    deep = [t for t in closed if xi.fc_max(t) < -1]
    return closed, small, gamma1, fpool, bodies, gamma4, deep


def _kl_xi(samples: int, seed: int) -> CheckReport:
    closed, small, gamma1, fpool, bodies, gamma4, deep = _kl_pools_xi()

    def gen1(rng):
        alpha, beta = rng.choice(closed), rng.choice(closed)
        if xi.compare(alpha, beta) is not Outcome.LESS:
            return None
        return alpha, beta, rng.choice(gamma1), "x"

    def gen2(rng):
        alpha = rng.choice(fpool)
        beta = rng.choice(fpool if rng.random() < 0.7 else closed)
        return rng.choice(small), alpha, beta, rng.choice(bodies), "X", "w"

    def gen3(rng):
        return rng.choice(small), rng.choice(closed), rng.choice(closed)

    def gen4(rng):
        gamma = rng.choice(deep if rng.random() < 0.9 else gamma4)
        return (
            rng.choice(deep),
            rng.choice(deep),
            rng.choice(deep),
            gamma,
            "X",
        )

    with _checking("key_lemma", "xi", seed) as report:
        rng = random.Random(_derive_seed(seed, "kl:xi"))
        _run_item(report, "item1", rng, gen1, xi.key_lemma_1, samples)
        _run_item(report, "item2", rng, gen2, xi.key_lemma_2, samples)
        _run_item(report, "item3", rng, gen3, xi.key_lemma_3, samples)
        _run_item(report, "item4", rng, gen4, xi.key_lemma_4, samples)
    return report


def check_key_lemmas(system: str, samples: int = 10_000, seed: int = 0) -> CheckReport:
    """Sampled verification of the per-system Key Lemma items."""
    if system == "buchholz":
        return _kl_buchholz(samples, seed)
    if system == "poly":
        return _kl_poly(samples, seed)
    if system == "xi":
        return _kl_xi(samples, seed)
    raise PreconditionError(f"no key lemma suite for system {system!r}")


# -- clause-variant differential -------------------------------------------------

def diff_clause_variants(terms, pairs: int = 20_000, seed: int = 0) -> CheckReport:
    """Informational: how often each alternate (literal) clause reading
    changes a comparison or substitution outcome on the mixed system, and
    on how many sampled pairs it makes both a < b and b < a hold."""
    terms = list(terms)
    n = len(terms)
    rng = random.Random(_derive_seed(seed, "variants"))
    sampled = [(terms[rng.randrange(n)], terms[rng.randrange(n)]) for _ in range(pairs)]
    default = mixed.get_variants()
    with _checking("clause_variants", "mixed", seed) as report:
        baseline = [mixed.compare(a, b) for a, b in sampled]
        try:
            for flag in mixed.Variants._fields:
                mixed.set_variants(default._replace(**{flag: False}))
                diffs = asymmetric = 0
                for (a, b), want in zip(sampled, baseline):
                    report.checked += 1
                    got = mixed.compare(a, b)
                    if got is not want:
                        diffs += 1
                    # compare answers LESS as soon as a < b holds; b < a may too
                    if got is Outcome.LESS and mixed._lt(b, a):
                        asymmetric += 1
                report.details[flag] = {
                    "pairs": pairs,
                    "differences": diffs,
                    "asymmetric": asymmetric,
                }
        finally:
            mixed.set_variants(default)
    return report


# -- selfcheck aggregation ---------------------------------------------------------

# Budgets sized so each universe lands between 10^3 and 10^5 terms; the
# level-bearing systems need a larger node budget because every level
# superscript costs a node.
ORDER_BUDGETS = {
    "buchholz": EnumBudget("buchholz", max_size=6, max_subscript=3),
    "poly": EnumBudget("poly", max_size=8, min_level=-3),
    "xi": EnumBudget("xi", max_size=8, min_level=-3),
    "mixed": EnumBudget("mixed", max_size=5, min_level=-3, max_subscript=2),
}


def selfcheck(
    seed: int = 0,
    samples: int = 10_000,
    triples: int = 100_000,
    oracle_pairs: int = 100_000,
    budgets: dict | None = None,
    quick: bool = False,
) -> list[CheckReport]:
    """The one-command acceptance run: fixtures, order axioms, Key Lemmas,
    round trips, and oracle equivalence, with documented default budgets."""
    budgets = dict(ORDER_BUDGETS, **(budgets or {}))
    if quick:
        budgets = {
            "buchholz": EnumBudget("buchholz", max_size=4, max_subscript=2),
            "poly": EnumBudget("poly", max_size=4, min_level=-2),
            "xi": EnumBudget("xi", max_size=4, min_level=-2),
            "mixed": EnumBudget("mixed", max_size=4, min_level=-2, max_subscript=1),
        }
        samples = min(samples, 500)
        triples = min(triples, 5_000)
        oracle_pairs = min(oracle_pairs, 5_000)

    reports = [check_fixtures(seed=seed)]
    pools = {name: enumerate_terms(b) for name, b in budgets.items()}
    for name in SYSTEMS:
        reports.append(
            check_order_axioms(name, pools[name], sample_triples=triples, seed=seed)
        )
        reports.append(check_roundtrip(name, pools[name], seed=seed))
        reports.append(
            check_oracle_equivalence(name, pools[name], pairs=oracle_pairs, seed=seed)
        )
        reports.append(check_kset_oracle(name, pools[name], seed=seed))
    reports.append(check_fc_monotone(pools["buchholz"], seed=seed))
    reports.append(check_m_membership(pools["poly"], seed=seed))
    reports.append(check_m_closure(pools["poly"], seed=seed))
    reports.append(check_k_class_drop(pools["poly"], seed=seed))
    reports.append(check_abstraction_roundtrip(pools["xi"], seed=seed))
    reports.append(check_collapse_not_self_value(pools["xi"], seed=seed))
    for system in ("buchholz", "poly", "xi"):
        reports.append(check_key_lemmas(system, samples=samples, seed=seed))
    return reports
