"""Command-line entry point: every operation reachable for scripting.

Exit codes: 0 success, 1 parse or flag error, 2 precondition violation
(including a term nested too deeply for the interpreter stack), 3 internal
invariant failure or any other unexpected error, 4 selfcheck found
violations, 5 stdout closed before the output was written (as by `| head`;
nothing is printed to stderr).

A one-shot command imports only the system module it names (`_system`);
the other systems and the harness stay unloaded, and `json` is loaded only
for `--output json`.  Flags are read from one table (`_commands`) by
`parse_args`, so no `argparse` is loaded either.
"""

from __future__ import annotations

import importlib
import os
import sys
from types import SimpleNamespace

from .core import (
    InvariantError,
    KItem,
    NEG_INF,
    Outcome,
    PreconditionError,
    SYSTEM_NAMES,
    Term,
    TermError,
)
from .syntax import ParseError, parse, render

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_INVARIANT = 3
EXIT_VIOLATIONS = 4
EXIT_CLOSED_STDOUT = 5


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
            import json  # only here: a text-mode command never loads it

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
        index = 0 if args.family == "xi" else args.index  # xi has none: below (0,0)
        card = mod.parse_card(args.card) if args.card else mod.large(0, index)
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
        res = mod.llrel(args.n, gamma, a, b)
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
    vacuous = ", ".join(f"{r.check} ({r.system})" for r in reports if r.checked == 0)
    print(
        f"selfcheck: {len(reports)} checks, {failed} with violations"
        + (f"; checked nothing: {vacuous}" if vacuous else ""),
        file=sys.stderr,
    )
    return EXIT_VIOLATIONS if failed else EXIT_OK


_SYS = ("--system", tuple(SYSTEM_NAMES), ..., "notation system")
_SYS3 = ("--system", ("buchholz", "poly", "xi"), ..., "notation system")
_OUT = ("--output", ("text", "json"), "text", "")
_LEVEL = ("--level", int, 0, "threshold level (poly/xi)")
_CARD = ("--card", str, None, "mixed threshold, e.g. '(0,inf)'")
_GAMMA, _VAR = ("--gamma", str, "0", ""), ("--var", str, None, "argument variable of gamma (xi)")
# The commands that take no --system, and the one system each is fixed to.
_FIXED = {"ground": "poly", "star": "poly", "abstract": "xi", "kappa": "xi"}


def _commands() -> dict:
    """The command table: name -> (handler, help, positionals, options).  A
    positional ending in `+` takes one or more words.  An option is (flag,
    kind, default, help): kind is int, str, a tuple of choices, or bool for
    a switch, and a default of `...` makes the option required.  Built per
    call, so dispatch reaches the module's current handlers."""
    return {
        "parse": (_cmd_parse, "parse and canonicalize a term", ("term",), (_SYS, _OUT)),
        "cmp": (_cmd_cmp, "compare two terms", ("left", "right"), (_SYS, _OUT)),
        "sort": (_cmd_sort, "sort terms ascending", ("terms+",), (_SYS, _OUT)),
        "k": (_cmd_k, "critical subterms", ("term",), (
            _SYS, _OUT, _LEVEL, ("--index", int, 1, "cardinal subscript (buchholz/mixed)"),
            ("--family", ("low", "high", "xi"), "low", "mixed family"), _CARD)),
        "fc": (_cmd_fc, "formal cardinalities", ("term",), (_SYS, _OUT, _LEVEL, _CARD)),
        "ground": (_cmd_ground, "ground, class index, membership (poly)", ("term",), (_OUT,)),
        "star": (_cmd_star, "star normalization (poly)", ("term",), (_OUT,)),
        "shift": (_cmd_shift, "re-level free occurrences", ("term",), (
            ("--system", ("poly", "xi", "mixed"), ..., "notation system"), _OUT, _LEVEL,
            _CARD, ("--by", int, ..., "levels to shift by"))),
        "subst": (_cmd_subst, "substitute a variable", ("term",), (
            _SYS, _OUT, ("--var", str, ..., ""), ("--level", int, 0, ""),
            ("--index", int, 1, "variable subscript (buchholz)"), ("--value", str, ..., ""))),
        "abstract": (_cmd_abstract, "canonical abstraction (xi)", ("term",), (_OUT,)),
        "kappa": (_cmd_kappa, "fine cardinality (xi)", ("term",), (_OUT,)),
        "d": (_cmd_d, "dominance value", (), (
            _SYS3, _OUT, ("--m", int, ..., ""), ("--n", int, 1, "chain anchor (buchholz)"),
            _GAMMA, ("--beta", str, "0", ""), _VAR)),
        "ll": (_cmd_ll, "dominance relation", ("left", "right"), (
            _SYS3, _OUT, ("--n", int, 0, "relation level (buchholz)"), _GAMMA, _VAR)),
        "enumerate": (_cmd_enumerate, "enumerate all terms within a budget", (), (
            _SYS, _OUT, ("--max-size", int, ..., ""), ("--min-level", int, -2, ""),
            ("--max-subscript", int, 2, ""), ("--open", bool, False, "include variables"),
            ("--count-only", bool, False, "print the count only"))),
        "selfcheck": (_cmd_selfcheck, "run the verification suite (JSONL reports)", (), (
            ("--seed", int, 0, ""), ("--samples", int, 10_000, ""),
            ("--triples", int, 100_000, ""), ("--oracle-pairs", int, 100_000, ""),
            ("--quick", bool, False, "small budgets for a fast pass"))),
    }


class _UsageError(Exception):
    """A malformed command line: exit 1 with a one-line message."""


def _help(table: dict, name: str | None = None) -> str:
    """The `--help` text of the command table, or of one command."""
    if name is None:
        rows = "".join(f"\n  {cmd:<10} {entry[1]}" for cmd, entry in table.items())
        return "usage: ordcalc COMMAND ...  (ordcalc COMMAND --help lists its options)" + rows
    _, text, positionals, options = table[name]
    words = "".join(" " + p.upper().replace("+", " ...") for p in positionals)
    lines = [f"usage: ordcalc {name} [options]{words}", text]
    for flag, kind, default, note in options:
        if kind is not bool:
            flag += " {" + ",".join(kind) + "}" if isinstance(kind, tuple) else f" {kind.__name__}"
        if default is not None and kind is not bool:
            flag += " (required)" if default is ... else f" (default {default})"
        lines.append(f"  {flag:<46} {note}".rstrip())
    return "\n".join(lines)


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """Read `argv` against the command table.  Returns the handler's
    arguments, with the handler as `fn`, or None once a `--help` text is
    printed; raises _UsageError on a malformed command line.  An option is
    spelled out in full, as `--opt value` or `--opt=value`."""
    table = _commands()
    name = argv[0] if argv else None
    if "--help" in argv or "-h" in argv:
        print(_help(table, name if name in table else None))
        return None
    if name not in table:
        what = f"unknown command {name!r}" if argv else "no command given"
        raise _UsageError(f"{what} (ordcalc --help lists the commands)")
    rest = argv[:0:-1]  # the words after the command, reversed, read by pop()
    fn, _, positionals, options = table[name]
    kinds = {flag: kind for flag, kind, _, _ in options}
    values, words = {}, []
    while rest:
        word = rest.pop()
        flag, eq, value = word.partition("=")
        kind = kinds.get(flag)
        if not word.startswith("--"):
            words.append(word)
        elif kind is None:
            raise _UsageError(f"{name}: unknown option {flag} (see ordcalc {name} --help)")
        elif kind is bool:
            if eq:
                raise _UsageError(f"{name}: {flag} takes no value")
            values[flag] = True
        else:
            if not eq and (not rest or rest[-1].startswith("--")):
                raise _UsageError(f"{name}: {flag} needs a value")
            value = value if eq else rest.pop()
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise _UsageError(f"{name}: {flag} needs an integer, got {value!r}") from None
            elif kind is not str and value not in kind:
                choices = ", ".join(kind)
                raise _UsageError(f"{name}: {flag} must be one of {choices}, got {value!r}")
            values[flag] = value
    args = SimpleNamespace(fn=fn, system=_FIXED.get(name))
    for p in positionals:
        taken, words = (words, []) if p.endswith("+") else (words[:1], words[1:])
        if not taken:
            raise _UsageError(f"{name}: missing {p.rstrip('+').upper()}")
        setattr(args, p.rstrip("+"), taken if p.endswith("+") else taken[0])
    if words:
        raise _UsageError(f"{name}: unexpected argument {words[0]!r}")
    for flag, _, default, _ in options:
        if values.get(flag, default) is ...:
            raise _UsageError(f"{name}: missing option {flag}")
        setattr(args, flag[2:].replace("-", "_"), values.get(flag, default))
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(list(sys.argv[1:] if argv is None else argv))
        code = EXIT_OK if args is None else args.fn(args, _Output(getattr(args, "output", "text")))
        sys.stdout.flush()  # a closed stdout raises here, inside this handler
        return code
    except BrokenPipeError:
        # Python's documented idiom for a closed stdout: point it at devnull,
        # so that the flush at shutdown does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
