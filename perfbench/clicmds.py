"""One-shot `ordcalc.cli` commands, one child process at a time.

Set-up renders arguments from small enumerated universes and computes every
expected answer in-process before timing: `cmp` and `sort` through the
reference comparators, the other queries through an in-process
`cli.main(argv)` call.  A fixed share of the commands take large inputs:
wide sums, and ω-towers on both sides of the nesting depth at which the
parser and comparators overflow the interpreter stack.  For a large input
the correct outcome is either the right answer or a documented exit code
(1-4) with a one-line stderr message; a traceback is a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from array import array
from time import perf_counter

from layers import SYSTEMS
from measure import Chunks
from sweep import derive

# Commands for 10 seconds of --seconds (work = 1), about 180 ms each on a
# 2-core host; a 30-second run then has 16 samples above its p90.
COMMANDS = 55
LARGE_SHARE = 0.2
# Large kinds, used in this fixed cyclic order so that every seed gets the
# same mix.  Depths 300-450 parse and compare at the seed; 550-700 overflow.
LARGE_KINDS = (
    ("deep_cmp", 300), ("deep_cmp", 450), ("deep_cmp", 550), ("deep_cmp", 700),
    ("deep_parse", 400), ("deep_parse", 600),
    ("deep_sort", 420), ("deep_sort", 650),
    ("wide_parse", 1500), ("wide_cmp", 1000), ("wide_sort", 300),
)
TRACE_MARK = "@@perfbench-trace "
# The speed probe of this workload is a bare interpreter start; this is its
# time on the reference host (it only sets the scale of normalized metrics).
BARE_START_REF_S = 0.05


def _budgets():
    from ordcalc.harness import EnumBudget

    closed = {
        "buchholz": EnumBudget("buchholz", max_size=4, max_subscript=2),
        "poly": EnumBudget("poly", max_size=5, min_level=-2),
        "xi": EnumBudget("xi", max_size=5, min_level=-2),
        "mixed": EnumBudget("mixed", max_size=4, min_level=-2, max_subscript=1),
    }
    opened = {
        s: EnumBudget(s, max_size=4, min_level=-2, max_subscript=2, closed_only=False)
        for s in ("buchholz", "poly", "xi")
    }
    return closed, opened


def tower(depth: int, base: str) -> str:
    return "w^(" * depth + base + ")" * depth


class Commands:
    def __init__(self, workload: str, seed: int, work: float):
        from ordcalc import buchholz, harness, mixed, poly, xi
        from ordcalc.core import ZERO

        self.mods = {"buchholz": buchholz, "poly": poly, "xi": xi, "mixed": mixed}
        closed_b, open_b = _budgets()
        self.closed = {
            s: [t for t in harness.enumerate_terms(b) if t is not ZERO]
            for s, b in closed_b.items()
        }
        self.opened = {
            s: [t for t in harness.enumerate_terms(b) if not t.closed]
            for s, b in open_b.items()
        }
        rng = derive(seed, workload)
        total = max(len(LARGE_KINDS), round(COMMANDS * work))
        n_large = round(total * LARGE_SHARE)
        kinds = [("small", None)] * (total - n_large) + [
            LARGE_KINDS[i % len(LARGE_KINDS)] for i in range(n_large)
        ]
        rng.shuffle(kinds)
        small = self._small_generators()
        self.commands = []  # (argv, expectation, large)
        for i, (kind, size) in enumerate(kinds):
            if kind == "small":
                gen = small[i % len(small)]
                argv, expect = gen(rng)
                self.commands.append((argv, expect, False))
            else:
                argv, expect = self._large(kind, size, rng)
                self.commands.append((argv, expect, True))

    # -- expectations -------------------------------------------------------------

    def _inproc(self, argv):
        from ordcalc import cli

        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # an unhandled error: only a documented exit is right
            return ("documented",)
        return ("exact", code, out.getvalue())

    def _ref_cmp(self, system, a, b):
        return self.mods[system].compare_reference(a, b)

    def _ref_sorted(self, system, terms):
        from functools import cmp_to_key

        from ordcalc.core import Outcome

        def as_cmp(x, y):
            o = self._ref_cmp(system, x, y)
            return -1 if o is Outcome.LESS else 1 if o is Outcome.GREATER else 0

        return sorted(terms, key=cmp_to_key(as_cmp))

    # -- small commands -----------------------------------------------------------

    def _small_generators(self):
        from ordcalc.syntax import render

        R = render
        closed, opened = self.closed, self.opened

        def pick(rng, system, k=1):
            return rng.sample(closed[system], k)

        def parse(rng):
            s = rng.choice(SYSTEMS)
            argv = ["parse", "--system", s, R(pick(rng, s)[0])]
            return argv, self._inproc(argv)

        def cmp(rng):
            s = rng.choice(SYSTEMS)
            a, b = pick(rng, s, 2)
            o = self._ref_cmp(s, a, b)
            return ["cmp", "--system", s, R(a), R(b)], ("exact", 0, o.value + "\n")

        def sort(rng):
            s = rng.choice(SYSTEMS)
            terms = pick(rng, s, 5)
            want = "\n".join(R(t) for t in self._ref_sorted(s, terms)) + "\n"
            return ["sort", "--system", s, *map(R, terms)], ("exact", 0, want)

        def k(rng):
            s = rng.choice(SYSTEMS)
            t = R(pick(rng, s)[0])
            if s == "buchholz":
                argv = ["k", "--system", s, "--index", str(rng.choice((1, 2, 3))), t]
            elif s in ("poly", "xi"):
                argv = ["k", "--system", s, "--level", str(rng.choice((0, -1))), t]
            else:
                argv = ["k", "--system", s, "--family", rng.choice(("low", "high", "xi")),
                        "--index", str(rng.choice((1, 2))), t]
            return argv, self._inproc(argv)

        def fc(rng):
            s = rng.choice(SYSTEMS)
            argv = ["fc", "--system", s, R(pick(rng, s)[0])]
            if s in ("poly", "xi"):
                argv += ["--level", str(rng.choice((0, -1)))]
            return argv, self._inproc(argv)

        def ground(rng):
            argv = [rng.choice(("ground", "star")), R(pick(rng, "poly")[0])]
            return argv, self._inproc(argv)

        def shift(rng):
            s = rng.choice(("poly", "xi"))
            argv = ["shift", "--system", s, R(pick(rng, s)[0]), "--by", str(rng.choice((1, 2)))]
            return argv, self._inproc(argv)

        def subst(rng):
            s = rng.choice(("buchholz", "poly", "xi"))
            t = rng.choice(opened[s])
            argv = ["subst", "--system", s, R(t), "--var", "x", "--value", R(pick(rng, s)[0])]
            if s == "buchholz":
                argv += ["--index", str(t.vmax)]
            return argv, self._inproc(argv)

        def xi_query(rng):
            argv = [rng.choice(("abstract", "kappa")), R(pick(rng, "xi")[0])]
            return argv, self._inproc(argv)

        def d(rng):
            s = rng.choice(("buchholz", "poly"))
            argv = ["d", "--system", s, "--m", str(rng.choice((0, 1, 2))),
                    "--gamma", R(pick(rng, s)[0]), "--beta", R(pick(rng, s)[0])]
            return argv, self._inproc(argv)

        def ll(rng):
            s = rng.choice(("buchholz", "poly"))
            a, b = pick(rng, s, 2)
            argv = ["ll", "--system", s, R(a), R(b)]
            return argv, self._inproc(argv)

        return (parse, cmp, sort, k, fc, ground, shift, subst, xi_query, d, ll)

    # -- large commands -----------------------------------------------------------

    def _large(self, kind, size, rng):
        from ordcalc import syntax
        from ordcalc.core import Outcome

        R = syntax.render
        s = rng.choice(SYSTEMS)
        if kind == "deep_cmp":
            # Towers of equal height order as their bases; checked at depth 3.
            while True:
                a, b = rng.sample(self.closed[s], 2)
                want = self._ref_cmp(s, a, b)
                shallow = self._ref_cmp(
                    s, syntax.parse(s, tower(3, R(a))), syntax.parse(s, tower(3, R(b)))
                )
                if shallow is want and want in (Outcome.LESS, Outcome.GREATER):
                    break
            argv = ["cmp", "--system", s, tower(size, R(a)), tower(size, R(b))]
            return argv, ("large", want.value + "\n")
        if kind == "deep_parse":
            base = rng.choice(self.closed[s])
            want = tower(size, R(base)) + "\n"
            shallow = self._inproc(["parse", "--system", s, tower(3, R(base))])
            if shallow != ("exact", 0, tower(3, R(base)) + "\n"):
                want = None  # the shallow form already differs: never right
            return ["parse", "--system", s, tower(size, R(base))], ("large", want)
        if kind == "deep_sort":
            while True:
                bases = rng.sample(self.closed[s], 3)
                shallow = self._ref_sorted(
                    s, [syntax.parse(s, tower(3, R(x))) for x in bases]
                )
                ordered = self._ref_sorted(s, bases)
                if [R(x) for x in shallow] == [tower(3, R(x)) for x in ordered]:
                    break
            want = "\n".join(tower(size, R(x)) for x in ordered) + "\n"
            argv = ["sort", "--system", s, *(tower(size, R(x)) for x in bases)]
            return argv, ("large", want)
        wide = lambda n: " # ".join(R(t) for t in rng.choices(self.closed[s], k=n))
        if kind == "wide_parse":
            argv = ["parse", "--system", s, wide(size)]
            return argv, ("large", self._inproc(argv)[2])
        if kind == "wide_cmp":
            a, b = wide(size), wide(size)
            want = self._ref_cmp(s, syntax.parse(s, a), syntax.parse(s, b))
            return ["cmp", "--system", s, a, b], ("large", want.value + "\n")
        texts = [wide(size) for _ in range(4)]
        ordered = self._ref_sorted(s, [syntax.parse(s, x) for x in texts])
        want = "\n".join(R(t) for t in ordered) + "\n"
        return ["sort", "--system", s, *texts], ("large", want)


def verdict(expect, code, out, err):
    """(ok, wrong): ok when the outcome is right; wrong when the program
    gave a different answer (as opposed to crashing with a traceback)."""
    lines = [line for line in err.splitlines() if line.strip()]
    traceback = "Traceback" in err
    documented = code in (1, 2, 3, 4) and len(lines) == 1 and not traceback
    if expect[0] == "exact":
        ok = code == expect[1] and out == expect[2]
        return ok, not ok and not traceback
    if expect[0] == "documented":
        return documented, False
    ok = (code == 0 and out == expect[1]) or documented
    return ok, code == 0 and not ok


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def bare_start_probe(root: str):
    """This workload's speed probe: the seconds a bare interpreter start
    (`python -c pass`) takes."""
    env = child_env(root)

    def bare_start():
        t = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], capture_output=True, env=env, cwd=root)
        return perf_counter() - t

    return bare_start


def run(state: Commands, root: str, trace: bool, phase_hook=None):
    env = child_env(root)
    if trace:
        prefix = [sys.executable, os.path.join(root, "perfbench", "cli_boot.py")]
    else:
        prefix = [sys.executable, "-m", "ordcalc.cli"]
    if phase_hook:
        phase_hook("cli")
    chunks = Chunks(bare_start_probe(root), BARE_START_REF_S)
    failed = wrong = 0
    notes = []
    child_layers = {}
    boot = {"interp_start_ms": [], "import_ms": [], "main_ms": []}
    for argv, expect, large in state.commands:
        spawn = time.monotonic()
        t = perf_counter()
        proc = subprocess.run(prefix + argv, capture_output=True, text=True, env=env, cwd=root)
        chunks.add("large" if large else "small", 1, array("d", [perf_counter() - t]))
        err = proc.stderr
        if trace:
            kept = []
            for line in err.splitlines(keepends=True):
                if line.startswith(TRACE_MARK):
                    rec = json.loads(line[len(TRACE_MARK):])
                    boot["interp_start_ms"].append((rec["t0"] - spawn) * 1000.0)
                    boot["import_ms"].append(rec["import_ms"])
                    boot["main_ms"].append(rec["main_ms"])
                    for layer, (c, i, s) in rec["layers"].items():
                        c0, i0, s0 = child_layers.get(layer, (0, 0.0, 0.0))
                        child_layers[layer] = (c0 + c, i0 + i, s0 + s)
                else:
                    kept.append(line)
            err = "".join(kept)
        ok, bad = verdict(expect, proc.returncode, proc.stdout, err)
        if not ok:
            failed += 1
            wrong += bad
            if len(notes) < 5:
                last = err.strip().splitlines()[-1:] or [""]
                notes.append(
                    f"{argv[0]} ({'large' if large else 'small'}, {sum(map(len, argv))} chars): "
                    f"exit {proc.returncode}, {last[0][:80]}"
                )
    if phase_hook:
        phase_hook(None)
    return {
        "chunks": chunks,
        "attempted": len(state.commands),
        "failed": failed,
        "wrong": wrong,
        "notes": notes,
        "child_layers": child_layers,
        "boot": boot,
    }
