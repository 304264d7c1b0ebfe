"""Verification harness: exhaustive term enumeration under a budget,
order-axiom checks, Key-Lemma sampling, pinned fixtures, cross-checks of
the memoized operation paths against the plain reference paths, and order
embeddings between systems.

Reports are line-delimited JSON records; a report is reproducible from its
budget and seed (timing excluded).
"""

from __future__ import annotations

import functools
import itertools
import random
import time
import zlib
from contextlib import contextmanager
from functools import cmp_to_key
from typing import NamedTuple

from . import buchholz, mixed, poly, syntax, xi
from .core import (
    NEG_INF,
    OmegaLev,
    Outcome,
    PreconditionError,
    ShiftError,
    Term,
    TermError,
    Theta,
    ThetaIdx,
    VarIdx,
    VarLev,
    clear_caches,
    is_sc,
    make_level_walk,
    omega_idx,
    omega_pow,
    subterms,
    sum_of,
    summands,
    theta,
    theta_idx,
    theta_low,
    var_idx,
    xi as mk_xi,
    ZERO,
)
from .syntax import render

_MODULES = {"buchholz": buchholz, "poly": poly, "xi": xi, "mixed": mixed}
SYSTEMS = tuple(_MODULES)
_COMPARE = {name: mod.compare for name, mod in _MODULES.items()}


class EnumBudget(NamedTuple):
    """Bounds that keep a term universe finite: node-count cap, level floor,
    subscript ceiling, and whether variables are admitted."""

    system: str
    max_size: int
    min_level: int = -2
    max_subscript: int = 2
    closed_only: bool = True
    var_names: tuple[str, ...] = ("x",)
    include_fvars: bool = False


# An enumeration that builds more terms than this stops with a PreconditionError.
HARD_CAP = 500_000
# A report keeps the first MAX_VIOLATIONS violations (fixtures keep all).
MAX_VIOLATIONS = 25
# Above PAIR_CAP pairs a pairwise check samples PAIR_CAP of them; the order
# axioms also re-check SORT_SAMPLE sampled pairs of the sorted pool, and the
# M-class closure check tries SUM_SAMPLES sampled sums.
PAIR_CAP = 250_000
SORT_SAMPLE = 20_000
SUM_SAMPLES = 20_000


class CheckReport:
    def __init__(self, check: str, system: str, seed: int):
        self.check, self.system, self.seed = check, system, seed
        self.checked = 0
        self.violations: list = []
        self.elapsed_ms = 0.0
        self.details: dict = {}

    @property
    def ok(self) -> bool:
        return not self.violations

    def note(self, kind: str, **fields):
        """Count a violation in details["violations_total"]; keep MAX_VIOLATIONS."""
        self.details["violations_total"] = self.details.get("violations_total", 0) + 1
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
        import json  # only here: text-mode enumeration never loads it
        return json.dumps(record, sort_keys=True)


def _derive_seed(seed: int, label: str) -> int:
    return (seed ^ zlib.crc32(label.encode())) & 0xFFFFFFFFFFFFFFFF


@contextmanager
def _checking(check: str, system: str, seed: int):
    """A fresh report whose elapsed_ms is the time spent in the block."""
    report = CheckReport(check, system, seed)
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
        self.heads = [(h.make, h.fields) for h in syntax.HEADS if budget.system in h.systems]
        names = () if budget.closed_only else budget.var_names
        self.domains = {
            "n": range(1, budget.max_subscript + 1),
            "j": range(budget.min_level, 1),
            "x": names,
            "F": tuple(v.upper() for v in names) if budget.include_fvars else (),
        }
        self._h: dict[int, list[Term]] = {}
        self._t: dict[int, list[Term]] = {}
        self.count = 0

    def _bump(self):
        self.count += 1
        if self.count > HARD_CAP:
            raise PreconditionError(f"enumeration exceeded the hard cap of {HARD_CAP} terms")

    def h_terms(self, s: int) -> list[Term]:
        """The head terms of size s: each of the system's rows over its field
        domains, its size 1, plus 1 for a level, plus its child's size."""
        if s in self._h:
            return self._h[s]
        out: list[Term] = []
        for make, fields in self.heads:
            own = 1 + ("j" in fields)
            domains = self.domains
            if "t" in fields:
                if s <= own:
                    continue
                domains = {**domains, "t": self.terms(s - own)}
            elif s != own:
                continue
            for args in itertools.product(*map(domains.get, fields)):
                try:
                    out.append(make(*args))
                except TermError:  # a collapse refusing its body (scope rule, function variable)
                    continue
                self._bump()
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
                self._bump()
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

def _pairs(n: int, rng, report):
    """`(count, pairs)`: every index pair i < j of n terms, or above PAIR_CAP
    that many sampled ones, one `rng.sample` each; `pairs_mode` says which."""
    total = n * (n - 1) // 2
    if total <= PAIR_CAP:
        report.details["pairs_mode"] = "all"
        return total, itertools.combinations(range(n), 2)
    report.details["pairs_mode"] = "sampled"
    return PAIR_CAP, (tuple(sorted(rng.sample(range(n), 2))) for _ in range(PAIR_CAP))


def check_order_axioms(
    system: str,
    terms,
    sample_triples: int = 100_000,
    seed: int = 0,
) -> CheckReport:
    """Totality + irreflexivity over all pairs (or a declared sample above
    PAIR_CAP), transitivity over sampled triples, and sort consistency."""
    cmp = _COMPARE[system]
    terms = list(terms)
    n = len(terms)
    rng = random.Random(_derive_seed(seed, f"order:{system}"))
    with _checking("order_axioms", system, seed) as report:
        for t in terms:
            report.checked += 1
            if cmp(t, t) is not Outcome.EQUAL:
                report.note("irreflexivity", term=render(t))

        report.details["pairs"], pairs = _pairs(n, rng, report)
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
        for _ in range(min(SORT_SAMPLE, n * n)):
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
    from . import reference  # only an oracle check loads the oracle

    cmp = _COMPARE[system]
    ref = getattr(reference, f"{system}_compare")
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


# Per system, the rows (walk, reference, leading arguments, label) the
# critical-set oracle compares; built per call from the oracle module `ref`,
# reading each walk off its module.
_KSET_ROWS = {
    "buchholz": lambda ref: [
        (buchholz.kset, ref.buchholz_kset, (n,), f"n={n}") for n in (1, 2, 3)
    ],
    "poly": lambda ref: [(poly.kset, ref.poly_kset, (j,), f"j={j}") for j in (0, -1)],
    "xi": lambda ref: [(xi.kset, ref.xi_kset, (j,), f"j={j}") for j in (0, -1)],
    "mixed": lambda ref: [
        (mixed.kset_low, ref.mixed_kset_low, (1,), "low n=1"),
        (mixed.kset_high, ref.mixed_kset_high, (mixed.large(0, 1), 1), "high c=(0,1)"),
        (mixed.kset_low, ref.mixed_kset_low, (2,), "low n=2"),
        (mixed.kset_high, ref.mixed_kset_high, (mixed.large(0, 2), 2), "high c=(0,2)"),
        (mixed.kset_xi, ref.mixed_kset_xi, (mixed.large(0, 0),), "xi c=(0,0)"),
    ],
}


def check_kset_oracle(system: str, terms, seed: int = 0) -> CheckReport:
    """Memoized critical-subterm computation versus the reference path."""
    from . import reference  # only an oracle check loads the oracle

    rows = _KSET_ROWS[system](reference)
    with _checking("kset_oracle", system, seed) as report:
        for t in terms:
            for walk, oracle, args, label in rows:
                report.checked += 1
                if walk(*args, t) != oracle(*args, t):
                    report.note("kset_disagreement", term=render(t), at=label)
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
# cardinality readings, critical-subterm sets, and cardinal arithmetic.  A
# row is (name, thunk, want); an Outcome is matched by `is`, all else by `==`.

def _fixture_table():
    from . import lemmas  # only a check that reads it loads the lemma code

    pb = lambda s: syntax.parse("buchholz", s)
    pp = lambda s: syntax.parse("poly", s)
    px = lambda s: syntax.parse("xi", s)
    pm = lambda s: syntax.parse("mixed", s)
    L = Outcome.LESS
    call = functools.partial  # parses its terms as the table is built, a lambda as it runs
    return [
        # stratified ladder and cardinality
        ("buchholz/omega_ladder", call(buchholz.compare, pb("O_2"), pb("O_3")), L),
        ("buchholz/fc_top_class", lambda: buchholz.fc(pb("O_3 # O_2 # w^(O_1)"))[1], 3),
        (
            "buchholz/variable_scope_invalid",
            lambda: buchholz.classify(theta_idx(1, var_idx("x", 1))).is_valid,
            False,
        ),
        (
            "buchholz/parser_rejects_scope_violation",
            lambda: _raises(syntax.ParseError, lambda: pb("th_1(v.x_1)")),
            True,
        ),
        (
            "buchholz/substitution_needs_small_target",
            lambda: _raises(
                PreconditionError,
                lambda: buchholz.substitute(theta_idx(2, var_idx("x", 1)), "x", 1, omega_idx(1)),
            ),
            True,
        ),
        (
            "buchholz/dominance_at_level_zero_is_lt",
            lambda: lemmas.buchholz_llrel(0, ZERO, ZERO, omega_pow(ZERO)),
            True,
        ),
        # polymorphic cardinality and critical subterms
        ("poly/fc_relative_max", lambda: poly.fc(0, pp("O^(-1) # O^(-2) # O^(-2)"))[1], -1),
        ("poly/fc_collapse_keeps_free_level", lambda: poly.fc(0, pp("th(O^(0) # O^(-1))"))[1], 0),
        (
            "poly/shift_collision",
            lambda: _raises(ShiftError, lambda: poly.shift(pp("th(O^(-1))"), 0, 1)),
            True,
        ),
        ("poly/kset_bound_pair_empty", lambda: poly.kset(0, pp("th(O^(0) # O^(-1))")), frozenset()),
        (
            "poly/kset_self_critical",
            lambda: {render(t) for t in poly.kset(0, pp("th(O^(0))"))},
            {"th(O^(0))"},
        ),
        ("poly/level_ladder", call(poly.compare, pp("O^(-2)"), pp("O^(-1)")), L),
        # function-sorted system
        (
            "xi/kset_collects_function",
            lambda: {(render(i.term), i.var is not None) for i in xi.kset(0, px("th(Xi^(-1)(0))"))},
            {("th(v.k^(0))", True)},
        ),
        ("xi/head_argument_order", call(xi.compare, px("Xi^(0)(0)"), px("Xi^(0)(w^(0))")), L),
        ("xi/head_level_order", call(xi.compare, px("Xi^(-1)(w^(0))"), px("Xi^(0)(0)")), L),
        # mixed cardinal arithmetic and ladder
        (
            "mixed/card_subtract_level",
            lambda: mixed.card_minus_level(mixed.large(-1, 2), -1),
            mixed.large(0, mixed.INF),
        ),
        (
            "mixed/card_min_with_nat",
            lambda: mixed.card_min_nat(mixed.large(0, 3), 1),
            mixed.large(0, 1),
        ),
        (
            "mixed/card_ladder",
            lambda: mixed.card_compare(mixed.large(-1, mixed.INF), mixed.large(0, 0)),
            L,
        ),
        (
            "mixed/shift_fixes_plain_cardinals",
            lambda: mixed.shift(pm("O_3"), mixed.FULL, 1),
            pm("O_3"),
        ),
        (
            "mixed/fc_plain_cardinal",
            lambda: mixed.fc(mixed.FULL, pm("O_3"))[0],
            frozenset({mixed.fin(3)}),
        ),
        (
            "mixed/kset_ignores_function_head",
            lambda: mixed.kset_low(1, pm("Xi^(0)(0)")),
            frozenset(),
        ),
        ("mixed/plain_below_upper", call(mixed.compare, pm("O_5"), pm("OO_1^(0)")), L),
        ("mixed/upper_below_function", call(mixed.compare, pm("OO_2^(-1)"), pm("Xi^(0)(0)")), L),
        (
            "mixed/function_below_upper_same_level",
            call(mixed.compare, pm("Xi^(0)(0)"), pm("OO_1^(0)")),
            L,
        ),
        # critical-subterm set in the CLI wire format
        (
            "poly/cli_kset",
            lambda: syntax.render_set(poly.kset(0, pp("th(O^(0))"))),
            "{th(O^(0))}",
        ),
    ]


def _raises(exc_type, thunk) -> bool:
    try:
        thunk()
    except exc_type:
        return True
    return False


def check_fixtures(seed: int = 0) -> CheckReport:
    """Run every pinned fixture; each must match exactly."""
    show = lambda v: v.value if isinstance(v, Outcome) else repr(v)
    with _checking("fixtures", "all", seed) as report:
        for name, thunk, want in _fixture_table():
            report.checked += 1
            try:
                got = thunk()
            except Exception as exc:  # a crashing fixture is a failure
                detail = f"raised {type(exc).__name__}: {exc}"
            else:
                if (got is want) if isinstance(want, Outcome) else (got == want):
                    continue
                detail = f"got {show(got)}, want {show(want)}"
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


def check_m_closure(terms, seed: int = 0) -> CheckReport:
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
        for _ in range(SUM_SAMPLES):
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


def check_fc_monotone(terms, seed: int = 0) -> CheckReport:
    """Stratified system: a strictly larger top cardinality implies a larger
    term."""
    terms = list(terms)
    n = len(terms)
    rng = random.Random(_derive_seed(seed, "fc_monotone"))
    with _checking("fc_monotone", "buchholz", seed) as report:
        for i, j in _pairs(n, rng, report)[1]:
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


def check_collapse_not_self_value(terms, seed: int = 0) -> CheckReport:
    """A collapse is never a value of one of its own collected functions:
    for gamma in K(body) and any enumerated delta < th(body),
    gamma[delta] != th(body).  The first 4000 collapses are checked."""
    collapses = [t for t in terms if isinstance(t, Theta)]
    small = [t for t in terms if t.size <= 4]
    with _checking("collapse_not_self_value", "xi", seed) as report:
        for t in collapses[:4000]:
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

def _run_item(report, label, rng, gen, check, samples):
    accepted = attempts = 0
    while accepted < samples and attempts < samples * 60:
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
    # Outside buchholz every name is a level or a function variable's.
    if name not in t.var_names or not t.has_fvar:
        return name in t.var_names
    return any(isinstance(s, VarLev) and s.name == name for s in subterms(t))


# Each system's sampling pools are derived once per process and shared by
# every call, which only reads them; their order fixes the RNG stream.


@functools.cache
def _kl_pools_buchholz():
    closed = enumerate_terms(EnumBudget("buchholz", max_size=5, max_subscript=2))
    opened = enumerate_terms(
        EnumBudget("buchholz", max_size=5, max_subscript=2, closed_only=False)
    )
    gamma_pool = {
        n: [t for t in closed if buchholz.fc(t)[1] < n] for n in (0, 1, 2)
    }
    mention = {
        n: [t for t in opened if _mentions_var_idx(t, "x", n)] for n in (1, 2)
    }
    # gen1 draws only from `opened`, so set membership answers the same
    # question as the walk; the lists stay for `rng.choice`.
    mentions = {n: frozenset(ts) for n, ts in mention.items()}
    gamma3 = {
        n: [t for t in opened if t.vmax <= n] for n in (1, 2)
    }
    return closed, gamma_pool, mention, mentions, opened, gamma3


def _kl_buchholz(lemmas):
    closed, gamma_pool, mention, mentions, opened, gamma3 = _kl_pools_buchholz()

    def gen1(rng):
        n = rng.choice((1, 2))
        alpha = rng.choice(mention[n] if rng.random() < 0.7 else opened)
        beta = rng.choice(opened if rng.random() < 0.5 else mention[n])
        if not (alpha in mentions[n] or beta in mentions[n]):
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

    return [
        (gen1, lemmas.buchholz_key_lemma_1), (gen2, lemmas.buchholz_key_lemma_2),
        (gen3, lemmas.buchholz_key_lemma_3),
    ]


@functools.cache
def _kl_pools_poly():
    closed = enumerate_terms(EnumBudget("poly", max_size=5, min_level=-2))
    opened = enumerate_terms(EnumBudget("poly", max_size=5, min_level=-2, closed_only=False))
    small = [t for t in closed if poly.fc_max(t) < 0]
    # gen1 draws only from `opened`, so set membership answers the same
    # questions as the walks; the list stays for `rng.choice`.
    mentions = frozenset(t for t in opened if _mentions_var_lev(t, "x"))
    substitutable0 = frozenset(t for t in opened if poly.substitutable("x", 0, t))
    subst0 = [t for t in opened if t in mentions and t in substitutable0]
    return closed, opened, small, subst0, mentions, substitutable0


def _kl_poly(lemmas):
    closed, both, small, subst0, mentions, substitutable0 = _kl_pools_poly()

    def gen1(rng):
        alpha = rng.choice(subst0 if rng.random() < 0.7 else both)
        beta = rng.choice(both if rng.random() < 0.5 else subst0)
        if not (alpha in mentions or beta in mentions):
            return None
        if not (alpha in substitutable0 and beta in substitutable0):
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

    return [
        (gen1, lemmas.poly_key_lemma_1), (gen2, lemmas.poly_key_lemma_2),
        (gen3, lemmas.poly_key_lemma_3),
    ]


@functools.cache
def _kl_pools_xi():
    closed = enumerate_terms(EnumBudget("xi", max_size=5, min_level=-2))
    open_x = enumerate_terms(EnumBudget("xi", max_size=5, min_level=-2, closed_only=False))
    open_w = enumerate_terms(
        EnumBudget("xi", max_size=4, min_level=-2, closed_only=False, var_names=("w",))
    )
    open_f = enumerate_terms(
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
        t for t in open_f if xi._occurs_fvar("X", t) and xi.fsubstitutable("X", 0, t)
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
    deep = [t for t in closed if xi.fc_max(t) < -1]
    return closed, small, gamma1, fpool, bodies, deep


def _kl_xi(lemmas):
    closed, small, gamma1, fpool, bodies, deep = _kl_pools_xi()

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
        gamma = rng.choice(deep if rng.random() < 0.9 else fpool)
        return (
            rng.choice(deep),
            rng.choice(deep),
            rng.choice(deep),
            gamma,
            "X",
        )

    return [
        (gen1, lemmas.xi_key_lemma_1),
        (gen2, lemmas.xi_key_lemma_2),
        (gen3, lemmas.xi_key_lemma_3),
        (gen4, lemmas.xi_key_lemma_4),
    ]


# system -> the builder of its suite's (generator, item) rows from `lemmas`, in sampling order
_KL_SUITES = {"buchholz": _kl_buchholz, "poly": _kl_poly, "xi": _kl_xi}


def check_key_lemmas(system: str, samples: int = 10_000, seed: int = 0) -> CheckReport:
    """Sampled verification of the per-system Key Lemma items: one seeded
    stream feeds the suite's rows in order, reported as item1..itemN."""
    from . import lemmas  # only a check that reads it loads the lemma code

    if system not in _KL_SUITES:
        raise PreconditionError(f"no key lemma suite for system {system!r}")
    rows = _KL_SUITES[system](lemmas)
    rng = random.Random(_derive_seed(seed, f"kl:{system}"))
    with _checking("key_lemma", system, seed) as report:
        for i, (gen, item) in enumerate(rows, 1):
            _run_item(report, f"item{i}", rng, gen, item, samples)
    return report


# -- cross-system embeddings ------------------------------------------------------
#
# Order-preserving maps that commute with sums and omega powers: they test
# a system's clauses against another system, so they catch a wrong clause
# that both codings of the target share, as the oracle check cannot.


def _iota_head(t: Term, j: int):
    """iota: buchholz -> mixed, O_n to O_n and th_n to thO_n."""
    if type(t) is ThetaIdx:
        return j, t.body, functools.partial(theta_low, t.index)
    return None


def _pi_head(t: Term, j: int):
    """pi: poly -> xi at argument 0, O^(J) to Xi^(J)(0) and th to th."""
    if type(t) is OmegaLev:
        return mk_xi(t.level, ZERO)
    return None


# name -> (source system, target system, the map)
EMBEDDINGS = {
    "iota": ("buchholz", "mixed", make_level_walk(_iota_head)),
    "pi": ("poly", "xi", make_level_walk(_pi_head)),
}


def check_embedding(name: str, terms, pairs: int = 100_000, seed: int = 0) -> CheckReport:
    """The embedding `name` preserves the order: the source's `compare` on
    sampled pairs of `terms` equals the target's on their images.  iota also
    carries buchholz's critical sets onto mixed's: for n = 1..3 the image of
    `buchholz.kset(n, t)` is `mixed.kset_low(n, iota(t))`."""
    source, target, walk = EMBEDDINGS[name]
    src_cmp, dst_cmp = _COMPARE[source], _COMPARE[target]
    terms = list(terms)
    n = len(terms)
    rng = random.Random(_derive_seed(seed, f"embedding:{name}"))
    with _checking("embedding", source, seed) as report:
        for _ in range(pairs):
            a, b = terms[rng.randrange(n)], terms[rng.randrange(n)]
            report.checked += 1
            want, got = src_cmp(a, b), dst_cmp(walk(a, 0), walk(b, 0))
            if got is not want:
                report.note(
                    "compare_disagreement",
                    left=render(a),
                    right=render(b),
                    source=want.value,
                    target=got.value,
                )
        if name == "iota":
            for t in terms:
                for k in (1, 2, 3):
                    report.checked += 1
                    image = frozenset(walk(g, 0) for g in buchholz.kset(k, t))
                    if image != mixed.kset_low(k, walk(t, 0)):
                        report.note("kset_disagreement", term=render(t), at=f"n={k}")
    report.details.update(embedding=name, target=target, terms=n)
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
# The quick selfcheck's universes, of tens to hundreds of terms.
QUICK_BUDGETS = {
    "buchholz": EnumBudget("buchholz", max_size=4, max_subscript=2),
    "poly": EnumBudget("poly", max_size=4, min_level=-2),
    "xi": EnumBudget("xi", max_size=4, min_level=-2),
    "mixed": EnumBudget("mixed", max_size=4, min_level=-2, max_subscript=1),
}


def selfcheck(
    seed: int = 0,
    samples: int = 10_000,
    triples: int = 100_000,
    oracle_pairs: int = 100_000,
    quick: bool = False,
) -> list[CheckReport]:
    """The one-command acceptance run: fixtures, order axioms, Key Lemmas,
    round trips, oracle equivalence and the embeddings, with documented
    default budgets.  A negative budget is refused before any check runs.
    Every registered cache is emptied after each check, so the tables hold
    one check's entries at a time."""
    for name, value in (("samples", samples), ("triples", triples), ("oracle_pairs", oracle_pairs)):
        if value < 0:
            raise PreconditionError(f"{name} must be >= 0, got {value}")
    budgets = QUICK_BUDGETS if quick else ORDER_BUDGETS
    if quick:
        samples = min(samples, 500)
        triples = min(triples, 5_000)
        oracle_pairs = min(oracle_pairs, 5_000)

    def checks():
        yield check_fixtures(seed=seed)
        pools = {name: enumerate_terms(b) for name, b in budgets.items()}
        for name in SYSTEMS:
            yield check_order_axioms(name, pools[name], sample_triples=triples, seed=seed)
            yield check_roundtrip(name, pools[name], seed=seed)
            yield check_oracle_equivalence(name, pools[name], pairs=oracle_pairs, seed=seed)
            yield check_kset_oracle(name, pools[name], seed=seed)
        yield check_fc_monotone(pools["buchholz"], seed=seed)
        yield check_m_membership(pools["poly"], seed=seed)
        yield check_m_closure(pools["poly"], seed=seed)
        yield check_k_class_drop(pools["poly"], seed=seed)
        yield check_abstraction_roundtrip(pools["xi"], seed=seed)
        yield check_collapse_not_self_value(pools["xi"], seed=seed)
        for system in _KL_SUITES:
            yield check_key_lemmas(system, samples=samples, seed=seed)
        for name, (source, _, _) in EMBEDDINGS.items():
            yield check_embedding(name, pools[source], pairs=oracle_pairs, seed=seed)

    reports = []
    for report in checks():
        reports.append(report)
        clear_caches()
    return reports
