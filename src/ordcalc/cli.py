"""Command-line entry point: every operation reachable for scripting.

Exit codes: 0 success, 1 parse or flag error, 2 precondition violation
(including a term nested too deeply for the interpreter stack), 3 internal
invariant failure or any other unexpected error, 4 selfcheck found
violations, 5 stdout closed before the output was written (as by `| head`;
nothing is printed to stderr).

One driver runs every command.  `parse_args` reads the flags from one table
(`_commands`), so no `argparse` is loaded, and then parses every term
argument in the command's system.  A handler gets those terms and returns
`(payload, text)`; `main` prints the payload for `--output json` and the
text otherwise (`selfcheck` prints its own JSONL and returns its exit code).
A payload that renders terms the text does not print is returned as a
function, which `main` calls only for `--output json`.
A one-shot command imports only the system module it names (`_system`);
the other systems and the harness stay unloaded, and `json` is loaded only
for `--output json`.  `d` and `ll` also load `lemmas` and the systems it reads.
"""

from __future__ import annotations

import importlib
import os
import sys
from types import SimpleNamespace

from .core import (
    InvariantError,
    NEG_INF,
    Outcome,
    PreconditionError,
    SYSTEM_NAMES,
    Term,
    TermError,
)
from .syntax import ParseError, parse, render, render_set, set_entries

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


def _cmd_parse(args):
    t = args.term
    text = render(t)
    return {"term": text, "size": t.size, "closed": t.closed}, text


def _cmd_cmp(args):
    a, b = args.left, args.right
    o = _system(args.system).compare(a, b)
    return (lambda: {"left": render(a), "right": render(b), "outcome": o.value}), o.value


def _cmd_sort(args):
    from functools import cmp_to_key

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

    ordered = [render(t) for t in sorted(args.terms, key=cmp_to_key(as_cmp))]
    return {"sorted": ordered}, "\n".join(ordered)


def _cmd_k(args):
    t, mod = args.term, _system(args.system)
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
    # Plain terms, or KItems (xi and mixed's xi family).
    payload = lambda: {"kset": [{"term": render(t), "var": v} for t, v in set_entries(items)]}
    return payload, render_set(items)


def _cmd_fc(args):
    t, mod = args.term, _system(args.system)
    if args.system == "buchholz":
        values, top = mod.fc(t)
    elif args.system in ("poly", "xi"):
        values, top = mod.fc(args.level, t)
    else:
        card = mod.parse_card(args.card) if args.card else mod.FULL
        values, top = mod.fc(card, t)
    values_s = sorted(_card_str(v) for v in values)
    text = "{" + ", ".join(values_s) + "} max " + _card_str(top)
    return {"values": values_s, "max": _card_str(top)}, text


def _cmd_ground(args):
    r = _system(args.system).normalize(args.term)
    ground, index = _card_str(r.ground), _card_str(r.class_index)
    payload = {"ground": ground, "class_index": index, "member": r.m_member}
    return payload, f"ground {ground} class {index} member {r.m_member}"


def _cmd_star(args):
    star = render(_system(args.system).star(args.term))
    return {"star": star}, star


def _cmd_shift(args):
    mod = _system(args.system)
    if args.system in ("poly", "xi"):
        at = args.level
    else:
        at = mod.parse_card(args.card) if args.card else mod.FULL
    res = render(mod.shift(args.term, at, args.by))
    return {"term": res}, res


def _cmd_subst(args):
    at = args.index if args.system == "buchholz" else args.level
    res = render(_system(args.system).substitute(args.term, args.var, at, args.value))
    return {"term": res}, res


def _cmd_abstract(args):
    a = _system(args.system).abstract(args.term)
    body = render(a.body)
    payload = lambda: {
        "body": body,
        "variables": list(a.variables),
        "parameters": [render(p) for p in a.parameters],
    }
    pairs = ", ".join(f"{v} = {render(p)}" for v, p in zip(a.variables, a.parameters))
    return payload, body + (f"  with {pairs}" if pairs else "")


def _cmd_kappa(args):
    kappa = _card_str(_system(args.system).kappa(args.term))
    return {"kappa": kappa}, kappa


def _cmd_d(args):
    from . import lemmas  # only d and ll load the dominance machinery

    lead = (args.m, args.n) if args.system == "buchholz" else (args.m,)
    tail = (args.var,) if args.system == "xi" else ()
    res = render(getattr(lemmas, f"{args.system}_dfun")(*lead, args.gamma, args.beta, *tail))
    return {"term": res}, res


def _cmd_ll(args):
    from . import lemmas

    lead = (args.n,) if args.system == "buchholz" else ()
    tail = (args.var,) if args.system == "xi" else ()
    res = getattr(lemmas, f"{args.system}_llrel")(*lead, args.gamma, args.left, args.right, *tail)
    return {"holds": res}, "yes" if res else "no"


def _cmd_enumerate(args):
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
        return {"count": len(terms)}, str(len(terms))
    rendered = [render(t) for t in terms]
    return {"count": len(terms), "terms": rendered}, "\n".join(rendered)


def _cmd_selfcheck(args) -> int:
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
_GAMMA, _VAR = ("--gamma", Term, "0", ""), ("--var", str, None, "argument variable of gamma (xi)")
# The commands that take no --system, and the one system each is fixed to.
_FIXED = {"ground": "poly", "star": "poly", "abstract": "xi", "kappa": "xi"}


def _commands() -> dict:
    """The command table: name -> (handler, help, positionals, options).  A
    positional is a term; one ending in `+` takes one or more words.  An
    option is (flag, kind, default, help): kind is int, str, Term, a tuple
    of choices, or bool for a switch, and a default of `...` makes the
    option required.  Built per call, so dispatch reaches the module's
    current handlers."""
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
            ("--index", int, 1, "variable subscript (buchholz)"), ("--value", Term, ..., ""))),
        "abstract": (_cmd_abstract, "canonical abstraction (xi)", ("term",), (_OUT,)),
        "kappa": (_cmd_kappa, "fine cardinality (xi)", ("term",), (_OUT,)),
        "d": (_cmd_d, "dominance value", (), (
            _SYS3, _OUT, ("--m", int, ..., ""), ("--n", int, 1, "chain anchor (buchholz)"),
            _GAMMA, ("--beta", Term, "0", ""), _VAR)),
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
    arguments, with the handler as `fn` and every term parsed, or None once
    a `--help` text is printed; raises _UsageError on a malformed command
    line, and ParseError on a malformed term.  An option is spelled out in
    full, as `--opt value` or `--opt=value`."""
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
            elif isinstance(kind, tuple) and value not in kind:
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
    # Once the flags are checked, every term argument is parsed in the
    # command's system: the positionals first, then the Term options.
    terms = [p.rstrip("+") for p in positionals]
    for key in terms + [flag[2:] for flag, kind, _, _ in options if kind is Term]:
        word = getattr(args, key)
        if type(word) is list:
            setattr(args, key, [parse(args.system, w) for w in word])
        else:
            setattr(args, key, parse(args.system, word))
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(list(sys.argv[1:] if argv is None else argv))
        result = EXIT_OK if args is None else args.fn(args)
        if type(result) is tuple:  # (payload, text); selfcheck prints its own
            payload, text = result
            if args.output == "json":
                import json  # only here: a text-mode command never loads it

                text = json.dumps(payload() if callable(payload) else payload, sort_keys=True)
            print(text)
            result = EXIT_OK
        sys.stdout.flush()  # a closed stdout raises here, inside this handler
        return result
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
