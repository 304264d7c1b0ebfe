"""Concrete text grammar for all four systems: parser and canonical printer.

    term     := "0" | hterm ("#" hterm)*
    hterm    := "w^(" term ")" | cardinal | collapse | variable
    cardinal := "O_" nat | "O^(" int ")" | "OO_" nat "^(" int ")"
              | "Xi^(" int ")(" term ")"
    collapse := "th_" nat "(" term ")" | "th(" term ")" | "thO_" nat "(" term ")"
              | "thOO_" nat "(" term ")" | "thXi(" term ")"
    variable := "v." ident "_" nat | "v." ident "^(" int ")"
              | "V." ident "^(" int ")(" term ")"

Whitespace-insensitive; "#" is the only infix operator and has the lowest
precedence.  Each system admits only its own heads.  `parse` returns the
canonical term, so `parse(system, render(t)) == t` for every canonical t.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import core
from .core import (
    FVar,
    OmegaHigh,
    OmegaIdx,
    OmegaLev,
    OmegaPow,
    Sum,
    Term,
    TermError,
    Theta,
    ThetaHigh,
    ThetaIdx,
    ThetaLow,
    ThetaXi,
    VarIdx,
    VarLev,
    Xi,
)

SYSTEMS = ("buchholz", "poly", "xi", "mixed")


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

    def nat(self) -> tuple[int, int, int]:
        s, a, b = self.regex(_NAT, "a natural number")
        return int(s), a, b

    def int_(self) -> tuple[int, int, int]:
        s, a, b = self.regex(_INT, "an integer")
        return int(s), a, b

    def ident(self) -> str:
        s, _, _ = self.regex(_IDENT, "an identifier")
        return s

    def require_system(self, allowed: tuple[str, ...], head: str, start: int):
        if self.system not in allowed:
            self.error(
                f"head {head!r} is not part of system {self.system!r}",
                start,
                self.pos,
            )

    def level(self) -> int:
        """Parse "( int )" already positioned after "^(", enforcing J <= 0."""
        j, a, b = self.int_()
        if j > 0:
            self.error(f"level must be <= 0, got {j}", a, b)
        self.expect(")")
        return j

    def subscript(self) -> int:
        n, a, b = self.nat()
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
        self.skip_ws()
        start = self.pos
        if self.lit("w^("):
            e = self.term()
            self.expect(")")
            return core.omega_pow(e)
        if self.lit("OO_"):
            self.require_system(("mixed",), "OO_", start)
            n = self.subscript()
            self.expect("^(")
            return core.omega_high(self.level(), n)
        if self.lit("O^("):
            self.require_system(("poly",), "O^", start)
            return core.omega_lev(self.level())
        if self.lit("O_"):
            self.require_system(("buchholz", "mixed"), "O_", start)
            return core.omega_idx(self.subscript())
        if self.lit("Xi^("):
            self.require_system(("xi", "mixed"), "Xi", start)
            j = self.level()
            self.expect("(")
            arg = self.term()
            self.expect(")")
            return core.xi(j, arg)
        if self.lit("thOO_"):
            self.require_system(("mixed",), "thOO_", start)
            n = self.subscript()
            self.expect("(")
            body = self.term()
            self.expect(")")
            return core.theta_high(n, body)
        if self.lit("thXi("):
            self.require_system(("mixed",), "thXi", start)
            body = self.term()
            self.expect(")")
            return core.theta_xi(body)
        if self.lit("thO_"):
            self.require_system(("mixed",), "thO_", start)
            n = self.subscript()
            self.expect("(")
            body = self.term()
            self.expect(")")
            return core.theta_low(n, body)
        if self.lit("th_"):
            self.require_system(("buchholz",), "th_", start)
            n = self.subscript()
            self.expect("(")
            body = self.term()
            self.expect(")")
            if body.vmax >= n:
                self.error(
                    f"collapse with subscript {n} cannot contain a variable "
                    f"with subscript >= {n}",
                    start,
                    self.pos,
                )
            return core.theta_idx(n, body)
        if self.lit("th("):
            self.require_system(("poly", "xi"), "th", start)
            body = self.term()
            self.expect(")")
            try:
                return core.theta(body)
            except TermError as exc:
                self.error(str(exc), start, self.pos)
        if self.lit("v."):
            name = self.ident()
            if self.lit("^("):
                self.require_system(("poly", "xi", "mixed"), "v.^", start)
                return core.var_lev(name, self.level())
            if self.lit("_"):
                self.require_system(("buchholz",), "v._", start)
                return core.var_idx(name, self.subscript())
            self.error("expected '_' or '^(' after variable name")
        if self.lit("V."):
            self.require_system(("xi",), "V.", start)
            name = self.ident()
            self.expect("^(")
            j = self.level()
            self.expect("(")
            arg = self.term()
            self.expect(")")
            return core.fvar(name, j, arg)
        self.error("expected a term head")


def parse(system: str, text: str) -> Term:
    """Parse `text` under the given system's grammar into a canonical term."""
    p = _Parser(system, text)
    t = p.term()
    if not p.at_end():
        p.error("unexpected trailing input")
    return t


def render(t: Term) -> str:
    """Canonical text form; `parse(system, render(t)) == t`."""
    match t:
        case Sum(children):
            if not children:
                return "0"
            return " # ".join(render(c) for c in children)
        case OmegaPow(e):
            return f"w^({render(e)})"
        case OmegaIdx(n):
            return f"O_{n}"
        case OmegaLev(j):
            return f"O^({j})"
        case OmegaHigh(j, n):
            return f"OO_{n}^({j})"
        case Xi(j, arg):
            return f"Xi^({j})({render(arg)})"
        case ThetaIdx(n, body):
            return f"th_{n}({render(body)})"
        case Theta(body):
            return f"th({render(body)})"
        case ThetaLow(n, body):
            return f"thO_{n}({render(body)})"
        case ThetaHigh(n, body):
            return f"thOO_{n}({render(body)})"
        case ThetaXi(body):
            return f"thXi({render(body)})"
        case VarIdx(name, n):
            return f"v.{name}_{n}"
        case VarLev(name, j):
            return f"v.{name}^({j})"
        case FVar(name, j, arg):
            return f"V.{name}^({j})({render(arg)})"
    raise core.InvariantError(f"unrenderable term {t!r}")


def render_set(terms) -> str:
    """Deterministic `{a, b, ...}` rendering, sorted by structural key."""
    items = sorted(terms, key=lambda t: t.key)
    return "{" + ", ".join(render(t) for t in items) + "}"
