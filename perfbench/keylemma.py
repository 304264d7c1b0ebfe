"""Sampled Key Lemma runs through `harness.check_key_lemmas`.

One operation is one `check_key_lemmas(system, BATCH, seed_i)` call; the
calls cycle buchholz, poly, xi with a derived seed each.  Set-up enumerates
the (tiny) pools with one single-sample call per system, so the timed calls
spend their time in substitution, shifting, abstraction and term building.
"""

from __future__ import annotations

from array import array
from time import perf_counter

from layers import KL_ITEMS, KL_SYSTEMS
from measure import Chunks
from sweep import derive

BATCH = 50
# Calls per system for 10 seconds of --seconds (work = 1) on a 2-core host.
ROUNDS = 33


class KeyLemma:
    def __init__(self, workload: str, seed: int, work: float):
        from ordcalc import harness

        rng = derive(seed, workload)
        for system in KL_SYSTEMS:
            harness.check_key_lemmas(system, samples=1, seed=rng.randrange(2**31))
        rounds = max(1, round(ROUNDS * work))
        self.calls = [
            (system, rng.randrange(2**31)) for _ in range(rounds) for system in KL_SYSTEMS
        ]


def run(state: KeyLemma, phase_hook=None):
    from ordcalc import harness

    if phase_hook:
        phase_hook("keylemma")
    chunks = Chunks()
    accepted = requested = violations = 0
    details = {}
    for system, seed in state.calls:
        t = perf_counter()
        report = harness.check_key_lemmas(system, samples=BATCH, seed=seed)
        chunks.add(system, report.checked, array("d", [perf_counter() - t]))
        requested += BATCH * KL_ITEMS[system]
        accepted += report.checked
        violations += len(report.violations)
        per_item = details.setdefault(system, {})
        for item, d in report.details.items():
            acc = per_item.setdefault(item, {"accepted": 0, "attempts": 0})
            acc["accepted"] += d["accepted"]
            acc["attempts"] += d["attempts"]
    if phase_hook:
        phase_hook(None)
    starved = requested - accepted
    return {
        "chunks": chunks,
        "attempted": requested,
        "failed": violations + starved,
        "wrong": violations,
        "kl_details": details,
        "notes": [f"{violations} Key Lemma violations, {starved} starved samples"]
        if violations or starved else [],
    }
