"""The acceptance order sweep over the `harness.ORDER_BUDGETS` universes.

Set-up imports, enumerates the four universes and draws every seeded input.
The timed run then has three phases, per system:

- cold: every pair of a seeded working set, in both orders, with
  `<sys>.compare` in a process whose memos are empty (the phase writes them);
- warm: a second seeded pair set drawn from the same working set, then the
  `cmp_to_key` sort of `check_order_axioms` over it (the phase reads the
  memos the cold phase wrote);
- oracle: `compare_reference` and the `kset_reference` family on seeded
  subsamples of the universe; each answer is checked against its memoized
  twin after the timed calls.

One operation is one `compare` (or reference) call.
"""

from __future__ import annotations

import itertools
import random
import zlib
from array import array
from functools import cmp_to_key
from time import perf_counter

from layers import SYSTEMS
from measure import Chunks

# Acceptance-frozen universe sizes of harness.ORDER_BUDGETS.
FROZEN_COUNTS = {"buchholz": 12220, "poly": 3244, "xi": 4812, "mixed": 9956}

# Work per system and phase for 10 seconds of --seconds (work = 1); each
# phase then takes about a third of the run on a 2-core x86 host with
# CPython 3.11.  Pair counts scale linearly with work, so working sets scale
# by its square root.
COLD_SET = {"buchholz": 215, "poly": 300, "xi": 260, "mixed": 140}
WARM_PAIRS = 14_000
WARM_PASSES = 14
WARM_SORTS = 4
ORACLE_PAIRS = {"buchholz": 7_000, "poly": 3_000, "xi": 7_000, "mixed": 3_000}
ORACLE_KSETS = {"buchholz": 3_300, "poly": 1_700, "xi": 3_300, "mixed": 1_700}
# Operations per timing chunk (a few tens of milliseconds each).
COLD_PAIRS_PER_CHUNK = 1_000
WARM_PAIRS_PER_CHUNK = 10_000
REFS_PER_CHUNK = 300


def derive(seed: int, label: str) -> random.Random:
    return random.Random((seed << 32) ^ zlib.crc32(label.encode()))


class Sweep:
    """Set-up state: universes and every seeded input of one run."""

    def __init__(self, workload: str, seed: int, work: float):
        from ordcalc import harness

        self.scale = work
        self.failures = []
        self.cold, self.warm, self.sorts, self.oracle = {}, {}, {}, {}
        for system in SYSTEMS:
            terms = harness.enumerate_terms(harness.ORDER_BUDGETS[system])
            if len(terms) != FROZEN_COUNTS[system]:
                self.failures.append(
                    f"{system} universe has {len(terms)} terms, "
                    f"frozen count is {FROZEN_COUNTS[system]}"
                )
            rng = derive(seed, f"{workload}:{system}")
            size = max(4, round(COLD_SET[system] * work ** 0.5))
            working = rng.sample(terms, size)
            pairs = list(itertools.combinations(working, 2))
            rng.shuffle(pairs)
            self.cold[system] = pairs
            warm = []
            for _ in range(max(1, round(WARM_PAIRS * work))):
                i = rng.randrange(size)
                j = (i + 1 + rng.randrange(size - 1)) % size
                warm.append((working[i], working[j]))
            self.warm[system] = warm
            self.sorts[system] = []
            for _ in range(max(1, round(WARM_SORTS * work))):
                order = list(working)
                rng.shuffle(order)
                self.sorts[system].append(order)
            self.oracle[system] = self._oracle_ops(rng, system, terms)

    def _oracle_ops(self, rng, system, terms):
        from ordcalc import mixed

        ops = []
        for _ in range(max(1, round(ORACLE_PAIRS[system] * self.scale))):
            a, b = rng.sample(terms, 2)
            ops.append(("compare_reference", (a, b), "compare"))
        for _ in range(max(1, round(ORACLE_KSETS[system] * self.scale))):
            t = rng.choice(terms)
            if system == "buchholz":
                ops.append(("kset_reference", (rng.choice((1, 2, 3)), t), "kset"))
            elif system in ("poly", "xi"):
                ops.append(("kset_reference", (rng.choice((0, -1)), t), "kset"))
            else:
                family = rng.choice(("low", "high", "xi"))
                n = rng.choice((1, 2))
                if family == "low":
                    ops.append(("kset_low_reference", (n, t), "kset_low"))
                elif family == "high":
                    ops.append(("kset_high_reference", (mixed.large(0, n), n, t), "kset_high"))
                else:
                    ops.append(("kset_xi_reference", (mixed.large(0, 0), t), "kset_xi"))
        rng.shuffle(ops)
        return ops


def _modules():
    from ordcalc import buchholz, mixed, poly, xi

    return {"buchholz": buchholz, "poly": poly, "xi": xi, "mixed": mixed}


def compare_pairs(mod, pairs, lat):
    """Compare each pair in both orders, appending each call's latency;
    returns the number of pairs not answered LT one way and GT the other."""
    from ordcalc.core import Outcome

    less, greater = Outcome.LESS, Outcome.GREATER
    cmp = mod.compare
    wrong = 0
    t = perf_counter()
    for a, b in pairs:
        ab = cmp(a, b)
        t1 = perf_counter()
        ba = cmp(b, a)
        t2 = perf_counter()
        lat.append(t1 - t)
        lat.append(t2 - t1)
        t = t2
        if not ((ab is less and ba is greater) or (ab is greater and ba is less)):
            wrong += 1
    return wrong


def sort_pattern(mod, order, lat):
    """`check_order_axioms`' sort: cmp_to_key sort, then strictly increasing
    neighbours.  Appends each compare call's latency; returns wrong answers."""
    from ordcalc.core import Outcome

    less, greater = Outcome.LESS, Outcome.GREATER
    cmp = mod.compare
    wrong = [0]

    def as_cmp(x, y):
        t = perf_counter()
        o = cmp(x, y)
        lat.append(perf_counter() - t)
        if o is less:
            return -1
        if o is greater:
            return 1
        wrong[0] += 1  # distinct closed terms must be strictly ordered
        return 0

    ordered = sorted(order, key=cmp_to_key(as_cmp))
    for a, b in zip(ordered, ordered[1:]):
        if as_cmp(a, b) != -1:
            wrong[0] += 1
    return wrong[0]


def _chunked(seq, size):
    for i in range(0, len(seq), size):
        yield seq[i:i + size]


def run(state: Sweep, phase_hook=None):
    """Run the three timed phases.  phase_hook(name) is called at each phase
    boundary (the tracer uses it); returns the measurement dict."""
    mods = _modules()
    chunks = Chunks()
    wrong = 0
    attempted = len(state.failures)

    if phase_hook:
        phase_hook("cold")
    for system in SYSTEMS:
        for part in _chunked(state.cold[system], COLD_PAIRS_PER_CHUNK):
            lat = array("d")
            wrong += compare_pairs(mods[system], part, lat)
            chunks.add(f"cold:{system}", len(lat), lat)
            attempted += len(part)

    if phase_hook:
        phase_hook("warm")
    for system in SYSTEMS:
        for _ in range(WARM_PASSES):
            for part in _chunked(state.warm[system], WARM_PAIRS_PER_CHUNK):
                lat = array("d")
                wrong += compare_pairs(mods[system], part, lat)
                chunks.add(f"warm:{system}", len(lat), lat)
                attempted += len(part)
        for order in state.sorts[system]:
            lat = array("d")
            wrong += sort_pattern(mods[system], order, lat)
            chunks.add(f"warm:{system}:sort", len(lat), lat)
            attempted += 1

    if phase_hook:
        phase_hook("oracle")
    answers = []
    for system in SYSTEMS:
        mod = mods[system]
        for part in _chunked(state.oracle[system], REFS_PER_CHUNK):
            lat = array("d")
            for ref_name, args, _ in part:
                ref = getattr(mod, ref_name)
                t = perf_counter()
                answers.append(ref(*args))
                lat.append(perf_counter() - t)
            chunks.add(f"oracle:{system}", len(lat), lat)
            attempted += len(part)
    if phase_hook:
        phase_hook(None)
    # The memoized twins run after the timed reference calls.
    want = iter(answers)
    for system in SYSTEMS:
        mod = mods[system]
        for _, args, twin_name in state.oracle[system]:
            if getattr(mod, twin_name)(*args) != next(want):
                wrong += 1

    wrong += len(state.failures)
    return {
        "chunks": chunks,
        "attempted": attempted,
        "failed": wrong,
        "wrong": wrong,
        "notes": state.failures,
    }
