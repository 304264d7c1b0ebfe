"""Command-line entry point: every operation reachable for scripting.

Exit codes: 0 success, 1 parse or flag error, 2 precondition violation
(including a term nested too deeply for the interpreter stack), 3 internal
invariant failure or any other unexpected error, 4 selfcheck found
violations.

A one-shot command imports only the system module it names (`_system`);
the other systems and the harness stay unloaded.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

from .core import (
    InvariantError,
    KItem,
    NEG_INF,
    Outcome,
    PreconditionError,
    Term,
    TermError,
)
from .syntax import ParseError, parse, render

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_INVARIANT = 3
EXIT_VIOLATIONS = 4


def _system(name: str):
    """The module of one notation system, imported on first use."""
    return importlib.import_module(f"ordcalc.{name}")


def _card_str(value) -> str:
    if value == NEG_INF:
        return "-inf"
    if isinstance(value, Term):
        return render(value)
    return str(value)


class _Output:
    def __init__(self, mode: str):
        self.mode = mode

    def emit(self, payload: dict, text: str):
        if self.mode == "json":
            print(json.dumps(payload, sort_keys=True))
        else:
            print(text)


def _kset_output(items) -> tuple[list, str]:
    """JSON payload and text for a critical-subterm set, sorted by key.  The
    set holds plain terms, or KItems (xi and mixed's xi family)."""
    entries = sorted(
        ((i.term, i.var) if isinstance(i, KItem) else (i, None) for i in items),
        key=lambda e: e[0].key,
    )
    payload = [{"term": render(t), "var": var} for t, var in entries]
    text = ", ".join(render(t) if var is None else f"{render(t)} [{var}]" for t, var in entries)
    return payload, "{" + text + "}"


def _cmd_parse(args, out: _Output) -> int:
    t = parse(args.system, args.term)
    out.emit({"term": render(t), "size": t.size, "closed": t.closed}, render(t))
    return EXIT_OK


def _cmd_cmp(args, out: _Output) -> int:
    a = parse(args.system, args.left)
    b = parse(args.system, args.right)
    o = _system(args.system).compare(a, b)
    out.emit({"left": render(a), "right": render(b), "outcome": o.value}, o.value)
    return EXIT_OK


def _cmd_sort(args, out: _Output) -> int:
    from functools import cmp_to_key

    terms = [parse(args.system, s) for s in args.terms]
    cmp = _system(args.system).compare

    def as_cmp(x, y):
        o = cmp(x, y)
        if o is Outcome.LESS:
            return -1
        if o is Outcome.GREATER:
            return 1
        if o is Outcome.EQUAL:
            return 0
        raise PreconditionError(f"incomparable pair: {render(x)} vs {render(y)}")

    ordered = sorted(terms, key=cmp_to_key(as_cmp))
    out.emit({"sorted": [render(t) for t in ordered]}, "\n".join(render(t) for t in ordered))
    return EXIT_OK


def _cmd_k(args, out: _Output) -> int:
    t = parse(args.system, args.term)
    mod = _system(args.system)
    if args.system == "buchholz":
        items = mod.kset(args.index, t)
    elif args.system in ("poly", "xi"):
        items = mod.kset(args.level, t)
    else:
        card = mod.parse_card(args.card) if args.card else mod.large(0, args.index)
        if args.family == "low":
            items = mod.kset_low(args.index, t)
        elif args.family == "high":
            items = mod.kset_high(card, args.index, t)
        else:
            items = mod.kset_xi(card, t)
    payload, text = _kset_output(items)
    out.emit({"kset": payload}, text)
    return EXIT_OK


def _cmd_fc(args, out: _Output) -> int:
    t = parse(args.system, args.term)
    mod = _system(args.system)
    if args.system == "buchholz":
        values, top = mod.fc(t)
    elif args.system in ("poly", "xi"):
        values, top = mod.fc(args.level, t)
    else:
        card = mod.parse_card(args.card) if args.card else mod.FULL
        values, top = mod.fc(card, t)
    values_s = sorted(_card_str(v) for v in values)
    out.emit(
        {"values": values_s, "max": _card_str(top)},
        "{" + ", ".join(values_s) + "} max " + _card_str(top),
    )
    return EXIT_OK


def _cmd_ground(args, out: _Output) -> int:
    t = parse(args.system, args.term)
    r = _system(args.system).normalize(t)
    out.emit(
        {
            "ground": _card_str(r.ground),
            "class_index": _card_str(r.class_index),
            "member": r.m_member,
        },
        f"ground {_card_str(r.ground)} class {_card_str(r.class_index)} "
        f"member {r.m_member}",
    )
    return EXIT_OK


def _cmd_star(args, out: _Output) -> int:
    t = parse(args.system, args.term)
    star = render(_system(args.system).star(t))
    out.emit({"star": star}, star)
    return EXIT_OK


def _cmd_shift(args, out: _Output) -> int:
    t = parse(args.system, args.term)
    mod = _system(args.system)
    if args.system in ("poly", "xi"):
        res = mod.shift(t, args.level, args.by)
    else:
        card = mod.parse_card(args.card) if args.card else mod.FULL
        res = mod.shift(t, card, args.by)
    out.emit({"term": render(res)}, render(res))
    return EXIT_OK


def _cmd_subst(args, out: _Output) -> int:
    t = parse(args.system, args.term)
    value = parse(args.system, args.value)
    at = args.index if args.system == "buchholz" else args.level
    res = _system(args.system).substitute(t, args.var, at, value)
    out.emit({"term": render(res)}, render(res))
    return EXIT_OK


def _cmd_abstract(args, out: _Output) -> int:
    t = parse(args.system, args.term)
    a = _system(args.system).abstract(t)
    payload = {
        "body": render(a.body),
        "variables": list(a.variables),
        "parameters": [render(p) for p in a.parameters],
    }
    pairs = ", ".join(f"{v} = {render(p)}" for v, p in zip(a.variables, a.parameters))
    out.emit(payload, f"{render(a.body)}" + (f"  with {pairs}" if pairs else ""))
    return EXIT_OK


def _cmd_kappa(args, out: _Output) -> int:
    t = parse(args.system, args.term)
    kappa = _card_str(_system(args.system).kappa(t))
    out.emit({"kappa": kappa}, kappa)
    return EXIT_OK


def _cmd_d(args, out: _Output) -> int:
    gamma = parse(args.system, args.gamma)
    beta = parse(args.system, args.beta)
    mod = _system(args.system)
    if args.system == "buchholz":
        res = mod.dfun(args.m, args.n, gamma, beta)
    elif args.system == "poly":
        res = mod.dfun(args.m, gamma, beta)
    else:
        res = mod.dfun(args.m, gamma, beta, args.var)
    out.emit({"term": render(res)}, render(res))
    return EXIT_OK


def _cmd_ll(args, out: _Output) -> int:
    gamma = parse(args.system, args.gamma)
    a = parse(args.system, args.left)
    b = parse(args.system, args.right)
    mod = _system(args.system)
    if args.system == "buchholz":
        res = mod.llrel(args.n, gamma, a, b, relativized=not args.plain)
    elif args.system == "poly":
        res = mod.llrel(gamma, a, b)
    else:
        res = mod.llrel(gamma, a, b, args.var)
    out.emit({"holds": res}, "yes" if res else "no")
    return EXIT_OK


def _cmd_enumerate(args, out: _Output) -> int:
    from . import harness  # only enumerate and selfcheck need it

    budget = harness.EnumBudget(
        system=args.system,
        max_size=args.max_size,
        min_level=args.min_level,
        max_subscript=args.max_subscript,
        closed_only=not args.open,
    )
    terms = harness.enumerate_terms(budget)
    if args.count_only:
        out.emit({"count": len(terms)}, str(len(terms)))
    else:
        out.emit(
            {"count": len(terms), "terms": [render(t) for t in terms]},
            "\n".join(render(t) for t in terms),
        )
    return EXIT_OK


def _cmd_selfcheck(args, out: _Output) -> int:
    from . import harness

    reports = harness.selfcheck(
        seed=args.seed,
        samples=args.samples,
        triples=args.triples,
        oracle_pairs=args.oracle_pairs,
        quick=args.quick,
    )
    failed = 0
    for report in reports:
        print(report.to_json(), file=sys.stdout)
        if not report.ok:
            failed += 1
    print(
        f"selfcheck: {len(reports)} checks, {failed} with violations",
        file=sys.stderr,
    )
    return EXIT_VIOLATIONS if failed else EXIT_OK


def _add_system(p, choices=("buchholz", "poly", "xi", "mixed")):
    p.add_argument("--system", required=True, choices=choices)


def _add_output(p):
    p.add_argument("--output", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ordcalc",
        description="Calculator for four ordinal notation systems with collapsing functions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and canonicalize a term")
    _add_system(p)
    _add_output(p)
    p.add_argument("term")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("cmp", help="compare two terms")
    _add_system(p)
    _add_output(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=_cmd_cmp)

    p = sub.add_parser("sort", help="sort terms ascending")
    _add_system(p)
    _add_output(p)
    p.add_argument("terms", nargs="+")
    p.set_defaults(fn=_cmd_sort)

    p = sub.add_parser("k", help="critical subterms")
    _add_system(p)
    _add_output(p)
    p.add_argument("term")
    p.add_argument("--level", type=int, default=0, help="threshold level (poly/xi)")
    p.add_argument("--index", type=int, default=1, help="cardinal subscript (buchholz/mixed)")
    p.add_argument("--family", choices=("low", "high", "xi"), default="low", help="mixed family")
    p.add_argument("--card", help="mixed threshold, e.g. '(0,1)'")
    p.set_defaults(fn=_cmd_k)

    p = sub.add_parser("fc", help="formal cardinalities")
    _add_system(p)
    _add_output(p)
    p.add_argument("term")
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--card", help="mixed threshold, e.g. '(0,inf)'")
    p.set_defaults(fn=_cmd_fc)

    p = sub.add_parser("ground", help="ground, class index, and class membership (poly)")
    _add_output(p)
    p.add_argument("term")
    p.set_defaults(fn=_cmd_ground, system="poly")

    p = sub.add_parser("star", help="star normalization (poly)")
    _add_output(p)
    p.add_argument("term")
    p.set_defaults(fn=_cmd_star, system="poly")

    p = sub.add_parser("shift", help="re-level free occurrences")
    _add_system(p, ("poly", "xi", "mixed"))
    _add_output(p)
    p.add_argument("term")
    p.add_argument("--level", type=int, default=0, help="threshold level (poly/xi)")
    p.add_argument("--card", help="mixed threshold, e.g. '(0,inf)'")
    p.add_argument("--by", type=int, required=True)
    p.set_defaults(fn=_cmd_shift)

    p = sub.add_parser("subst", help="substitute a variable")
    _add_system(p)
    _add_output(p)
    p.add_argument("term")
    p.add_argument("--var", required=True)
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--index", type=int, default=1, help="variable subscript (buchholz)")
    p.add_argument("--value", required=True)
    p.set_defaults(fn=_cmd_subst)

    p = sub.add_parser("abstract", help="canonical abstraction (xi)")
    _add_output(p)
    p.add_argument("term")
    p.set_defaults(fn=_cmd_abstract, system="xi")

    p = sub.add_parser("kappa", help="fine cardinality (xi)")
    _add_output(p)
    p.add_argument("term")
    p.set_defaults(fn=_cmd_kappa, system="xi")

    p = sub.add_parser("d", help="dominance value")
    _add_system(p, ("buchholz", "poly", "xi"))
    _add_output(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=1, help="chain anchor (buchholz)")
    p.add_argument("--gamma", default="0")
    p.add_argument("--beta", default="0")
    p.add_argument("--var", help="argument variable of gamma (xi)")
    p.set_defaults(fn=_cmd_d)

    p = sub.add_parser("ll", help="dominance relation")
    _add_system(p, ("buchholz", "poly", "xi"))
    _add_output(p)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--n", type=int, default=0, help="relation level (buchholz)")
    p.add_argument("--gamma", default="0")
    p.add_argument("--var", help="argument variable of gamma (xi)")
    p.add_argument("--plain", action="store_true", help="drop the gamma summand from bounds")
    p.set_defaults(fn=_cmd_ll)

    p = sub.add_parser("enumerate", help="enumerate all terms within a budget")
    _add_system(p)
    _add_output(p)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--min-level", type=int, default=-2)
    p.add_argument("--max-subscript", type=int, default=2)
    p.add_argument("--open", action="store_true", help="include variables")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("selfcheck", help="run the verification suite (JSONL reports)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--triples", type=int, default=100_000)
    p.add_argument("--oracle-pairs", type=int, default=100_000)
    p.add_argument("--quick", action="store_true", help="small budgets for a fast pass")
    p.set_defaults(fn=_cmd_selfcheck)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if getattr(args, "seed", None) is None and args.command == "selfcheck":
        args.seed = int(os.environ.get("ORDCALC_SEED", "0"))
    out = _Output(getattr(args, "output", "text"))
    try:
        return args.fn(args, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PreconditionError, TermError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except RecursionError:
        print("precondition violation: term nested too deeply", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
