"""Concrete text grammar for all four systems: one head table, `HEADS`, read
by the parser, the canonical printer and `harness`'s enumerator.

    term  := "0" | hterm ("#" hterm)*
    hterm := the pattern of a row of HEADS whose systems hold the system

Whitespace-insensitive between tokens; "#" is the only infix operator and
has the lowest precedence.  `parse` returns the canonical term, so
`parse(system, render(t)) == t` for every canonical t.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import NamedTuple

from . import core
from .core import Sum, Term, TermError

SYSTEMS = tuple(core.SYSTEM_NAMES)


class SourceSpan(NamedTuple):
    start: int
    end: int

    def __str__(self):
        return f"{self.start}..{self.end}"


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (at {span})")
        self.message = message
        self.span = span


def _theta_idx(n: int, body: Term) -> Term:
    """`core.theta_idx`, refusing a body that breaks the scope rule (no
    variable subscript >= n inside) instead of recording it in `valid`."""
    if body.vmax >= n:
        raise TermError(
            f"collapse with subscript {n} cannot contain a variable with subscript >= {n}"
        )
    return core.theta_idx(n, body)


# A pattern splits into tokens: its literal prefix, then fields ("{n}") and
# literals, each of which may follow whitespace.
_TOKEN = re.compile(r"(\{\w\}|\))")
# The class field each pattern letter fills; {t} fills the one left over.
_SLOT = {"n": "index", "j": "level", "x": "name", "F": "name"}


class Head:
    """One row of the head table: the term class, its text pattern, the
    systems that admit it, its constructor, which takes the class's fields in
    `__match_args__` order, and the name error messages give it.

    In a pattern, {n} is a subscript (>= 1), {j} a level (<= 0), {x} and {F}
    the name of an ordinal and of a function variable, and {t} a term.
    `tokens` splits the pattern for the parser and the printer; `slots`
    maps each pattern letter to the field it fills, in pattern order;
    `fields` lists the letters in `__match_args__` order."""

    def __init__(self, cls, pattern, systems, make, name):
        self.cls, self.systems, self.make, self.name = cls, systems, make, name
        self.tokens = [tok for tok in _TOKEN.split(pattern) if tok]
        rest = [a for a in cls.__match_args__ if a not in _SLOT.values()]
        self.slots = {t[1]: _SLOT.get(t[1]) or rest[0] for t in self.tokens if t[0] == "{"}
        letter = {slot: f for f, slot in self.slots.items()}
        self.fields = tuple(map(letter.get, cls.__match_args__))


HEADS = (
    Head(core.OmegaPow, "w^({t})", SYSTEMS, core.omega_pow, "w^"),
    Head(core.OmegaIdx, "O_{n}", ("buchholz", "mixed"), core.omega_idx, "O_"),
    Head(core.OmegaLev, "O^({j})", ("poly",), core.omega_lev, "O^"),
    Head(core.OmegaHigh, "OO_{n}^({j})", ("mixed",), core.omega_high, "OO_"),
    Head(core.Xi, "Xi^({j})({t})", ("xi", "mixed"), core.xi, "Xi"),
    Head(core.ThetaIdx, "th_{n}({t})", ("buchholz",), _theta_idx, "th_"),
    Head(core.Theta, "th({t})", ("poly", "xi"), core.theta, "th"),
    Head(core.ThetaLow, "thO_{n}({t})", ("mixed",), core.theta_low, "thO_"),
    Head(core.ThetaHigh, "thOO_{n}({t})", ("mixed",), core.theta_high, "thOO_"),
    Head(core.ThetaXi, "thXi({t})", ("mixed",), core.theta_xi, "thXi"),
    Head(core.VarIdx, "v.{x}_{n}", ("buchholz",), core.var_idx, "v._"),
    Head(core.VarLev, "v.{x}^({j})", ("poly", "xi", "mixed"), core.var_lev, "v.^"),
    Head(core.FVar, "V.{F}^({j})({t})", ("xi",), core.fvar, "V."),
)


def _by_prefix() -> dict:
    """Each literal prefix -> (the fields its heads share next, {the literal
    that then tells them apart: (head, its tokens left, the pattern position
    of each of its fields)}); the one head of a prefix is under ""."""
    groups: dict[str, list] = {}
    for head in HEADS:
        order = tuple(map(list(head.slots).index, head.fields))
        groups.setdefault(head.tokens[0], []).append((head, head.tokens[1:], order))
    out = {}
    for prefix, group in groups.items():
        if len(group) == 1:
            out[prefix] = ((), {"": group[0]})
            continue
        k = 0  # the first token the heads of this prefix differ in
        while len({tokens[k] for _, tokens, _ in group}) == 1:
            k += 1
        out[prefix] = (group[0][1][:k], {t[k]: (h, t[k + 1:], o) for h, t, o in group})
    return out


def _text(head: Head):
    """The printer's format of the head (the term is argument 0, its
    rendered child argument 1) and the getter of that child."""
    text = "".join(
        tok if tok[0] != "{" else "{1}" if tok == "{t}" else "{0.%s}" % head.slots[tok[1]]
        for tok in head.tokens
    )
    return text, attrgetter(head.slots["t"]) if "t" in head.slots else None


_BY_PREFIX = _by_prefix()
_HEAD = re.compile(r"\s*(" + "|".join(map(re.escape, sorted(_BY_PREFIX, key=len)[::-1])) + ")")
_TEXT = {head.cls: _text(head) for head in HEADS}

_NAT = re.compile(r"[0-9]+")
_INT = re.compile(r"-?[0-9]+")
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_WS = re.compile(r"\s*")


class _Parser:
    def __init__(self, system: str, text: str):
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r}")
        self.system = system
        self.text = text
        self.pos = 0

    def error(self, message, start=None, end=None):
        start = self.pos if start is None else start
        end = start + 1 if end is None else end
        raise ParseError(message, SourceSpan(start, min(end, len(self.text))))

    def skip_ws(self):
        self.pos = _WS.match(self.text, self.pos).end()

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def lit(self, token: str) -> bool:
        """Consume `token` at the current position if present."""
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str):
        if not self.lit(token):
            self.error(f"expected {token!r}")

    def regex(self, pattern: re.Pattern, what: str):
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if m is None:
            self.error(f"expected {what}")
        self.pos = m.end()
        return m.group(), m.start(), m.end()

    def ident(self) -> str:
        return self.regex(_IDENT, "an identifier")[0]

    def level(self) -> int:
        s, a, b = self.regex(_INT, "an integer")
        j = int(s)
        if j > 0:
            self.error(f"level must be <= 0, got {j}", a, b)
        return j

    def subscript(self) -> int:
        s, a, b = self.regex(_NAT, "a natural number")
        n = int(s)
        if n < 1:
            self.error(f"subscript must be >= 1, got {n}", a, b)
        return n

    def term(self) -> Term:
        self.skip_ws()
        if self.lit("0"):
            self.skip_ws()
            if self.text.startswith("#", self.pos):
                self.error("'0' denotes the empty sum and cannot be a sum component")
            return core.ZERO
        parts = [self.hterm()]
        while self.lit("#"):
            parts.append(self.hterm())
        return core.sum_of(parts)

    def hterm(self) -> Term:
        m = _HEAD.match(self.text, self.pos)
        if m is None:
            self.skip_ws()
            self.error("expected a term head")
        start, self.pos = m.span(1)
        # Heads sharing the prefix (the two variables) read the fields they
        # share, then the literal that tells them apart; a lone head reads "".
        shared, heads = _BY_PREFIX[m[1]]
        values = [_READ[f](self) for f in shared]
        if len(heads) > 1:
            self.skip_ws()
        sep = next((s for s in heads if self.text.startswith(s, self.pos)), None)
        if sep is None:
            self.error(f"expected {' or '.join(map(repr, heads))} after variable name")
        self.pos += len(sep)
        head, tokens, order = heads[sep]
        if self.system not in head.systems:
            msg = f"head {head.name!r} is not part of system {self.system!r}"
            self.error(msg, start, self.pos)
        for tok in tokens:
            read = _READ.get(tok)
            if read is None:
                self.expect(tok)
            else:
                values.append(read(self))  # the term field: one frame per level
        try:
            return head.make(*map(values.__getitem__, order))
        except TermError as exc:
            self.error(str(exc), start, self.pos)


_READ = {"{n}": _Parser.subscript, "{j}": _Parser.level, "{t}": _Parser.term,
         "{x}": _Parser.ident, "{F}": _Parser.ident}


def parse(system: str, text: str) -> Term:
    """Parse `text` under the given system's grammar into a canonical term."""
    p = _Parser(system, text)
    t = p.term()
    if not p.at_end():
        p.error("unexpected trailing input")
    return t


def render(t: Term) -> str:
    """Canonical text form; `parse(system, render(t)) == t`."""
    if type(t) is Sum:
        return " # ".join(render(c) for c in t.children) if t.children else "0"
    text, child = _TEXT[type(t)]
    return text.format(t, render(child(t))) if child else text.format(t)


def set_entries(items) -> list:
    """A critical set's `(term, var)` entries, sorted by structural key: a
    plain term has no variable, a `core.KItem` may carry one."""
    pairs = ((i.term, i.var) if isinstance(i, core.KItem) else (i, None) for i in items)
    return sorted(pairs, key=lambda e: e[0].key)


def render_set(items) -> str:
    """Deterministic `{a, b [x], ...}` rendering in `set_entries` order."""
    text = ", ".join(render(t) + (f" [{v}]" if v else "") for t, v in set_entries(items))
    return "{" + text + "}"
