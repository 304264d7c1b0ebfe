"""Timed operations grouped into short chunks, and robust summaries of them.

The reference host is a shared 2-core VM.  Its speed shifts by up to ±30%,
in wall-clock and CPU time alike, for seconds to minutes at a time (other
tenants; no hardware counters are exposed).  Two things keep the figures
steady:

- Chunks.  A chunk is a few tens of milliseconds of one kind of work (one
  phase of one system, one Key Lemma call, one command).  Each kind's time
  is (number of chunks) × (median chunk time), so a burst moves a few
  chunks rather than the result.
- A speed probe after every chunk: a fixed pure-Python kernel that does not
  touch ordcalc (for the `cli` workload, a bare interpreter start).  The
  normalized metrics divide each chunk's times by the host's slowdown
  around it (the median probe time of the nearby chunks over the probe's
  fixed reference time), so they read as on the reference host in its usual
  state.  A change to ordcalc moves the workload, not the probe, so it
  shows in full.

Raw figures are kept alongside in each record.
"""

from __future__ import annotations

import gc
import random
import statistics
from array import array
from time import perf_counter


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    return sorted_values[min(n - 1, max(0, int(q * n + 0.999999) - 1))]


# -- the in-process speed probe ------------------------------------------------

class _Node:
    __slots__ = ("tag", "kids", "serial")

    def __init__(self, tag, kids, serial):
        self.tag, self.kids, self.serial = tag, kids, serial


def _probe_pairs():
    rng = random.Random(20250401)
    nodes = []
    for i in range(600):
        kids = tuple(rng.sample(nodes, min(len(nodes), rng.randrange(2, 6))))
        nodes.append(_Node(rng.randrange(6), kids, i))
    return [(rng.choice(nodes), rng.choice(nodes)) for _ in range(1000)]


def _probe_lt(a, b, memo):
    key = (a.serial, b.serial)
    r = memo.get(key)
    if r is None:
        if a is b:
            r = False
        elif a.tag != b.tag:
            r = a.tag < b.tag
        else:
            r = any(_probe_lt(x, b, memo) or x is b for x in a.kids) or (
                len(a.kids) < len(b.kids)
                and all(_probe_lt(x, b, memo) for x in a.kids)
            )
        memo[key] = r
    return r


_PROBE_PAIRS = _probe_pairs()
# Probe time taken as the reference host's usual state (2-core x86 VM,
# CPython 3.11); it only sets the scale of the normalized metrics.
PROBE_REF_S = 0.001
# Chunks on either side whose probes set a chunk's slowdown.
PROBE_WINDOW = 10


def probe() -> float:
    """Seconds taken by a fixed pure-Python kernel shaped like a memoized
    comparison: recursion, a tuple-keyed memo dict, slot reads.  The cyclic
    collector is paused so that the probe never pays for the workload's
    heap."""
    gc.disable()
    try:
        t = perf_counter()
        memo = {}
        for a, b in _PROBE_PAIRS:
            _probe_lt(a, b, memo)
            _probe_lt(b, a, memo)
        return perf_counter() - t
    finally:
        gc.enable()


# -- chunks ----------------------------------------------------------------------

class Chunks:
    def __init__(self, probe_fn=probe, probe_ref_s: float = PROBE_REF_S):
        """probe_fn() returns the seconds a fixed speed probe took;
        probe_ref_s is its median time on the reference host."""
        self.probe_fn, self.probe_ref_s = probe_fn, probe_ref_s
        self.kinds: list[str] = []
        self.units: list[int] = []
        self.seconds: list[float] = []
        self.latencies: list[array] = []
        self.probes = array("d")

    def add(self, kind: str, units: int, latencies: array):
        """One chunk: its kind, the work units it did and the latency of each
        of its operations (their sum is the chunk's time).  The speed probe
        runs after it, outside the timed operations."""
        self.kinds.append(kind)
        self.units.append(units)
        self.seconds.append(sum(latencies))
        self.latencies.append(latencies)
        self.probes.append(self.probe_fn())

    def _figures(self, by_kind, scale):
        """Throughput and latency percentiles with chunk i's times divided
        by scale[i]."""
        robust = {
            k: len(ix) * statistics.median(self.seconds[i] / scale[i] for i in ix)
            for k, ix in by_kind.items()
        }
        ops = sum(len(lat) for lat in self.latencies)
        if ops >= 20 * len(self.latencies):
            # Many short operations per chunk: per kind, the median over its
            # chunks of each chunk's percentile; kinds weighted by operations.
            p50 = p90 = 0.0
            for ix in by_kind.values():
                chunks = [(sorted(self.latencies[i]), scale[i]) for i in ix]
                weight = sum(len(c) for c, _ in chunks) / ops
                p50 += weight * statistics.median(percentile(c, 0.5) / f for c, f in chunks)
                p90 += weight * statistics.median(percentile(c, 0.9) / f for c, f in chunks)
        else:
            # Long operations: percentiles over all of them.
            pooled = sorted(
                x / scale[i] for i, lat in enumerate(self.latencies) for x in lat
            )
            p50, p90 = percentile(pooled, 0.5), percentile(pooled, 0.9)
        return robust, sum(self.units) / sum(robust.values()), p50 * 1000.0, p90 * 1000.0

    def summary(self) -> dict:
        by_kind: dict[str, list[int]] = {}
        for i, kind in enumerate(self.kinds):
            by_kind.setdefault(kind, []).append(i)
        # Each chunk is scaled by the host's slowdown around it: the median
        # of the probes of the PROBE_WINDOW chunks on either side.
        n = len(self.probes)
        slowdown = [
            statistics.median(self.probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
            / self.probe_ref_s
            for i in range(n)
        ]
        _, norm_throughput, norm_p50, norm_p90 = self._figures(by_kind, slowdown)
        robust, throughput, p50, p90 = self._figures(by_kind, [1.0] * n)
        # Per phase: the part of a kind before its first ":".
        phase_units: dict[str, int] = {}
        phase_s: dict[str, float] = {}
        for kind, ix in by_kind.items():
            phase = kind.split(":")[0]
            phase_units[phase] = phase_units.get(phase, 0) + sum(self.units[i] for i in ix)
            phase_s[phase] = phase_s.get(phase, 0.0) + robust[kind]
        return {
            "norm_throughput_per_s": norm_throughput,
            "norm_p50_ms": norm_p50,
            "norm_p90_ms": norm_p90,
            "throughput_per_s": throughput,
            "p50_ms": p50,
            "p90_ms": p90,
            "slowdown": statistics.median(slowdown),
            "measured_s": sum(self.seconds),
            "robust_s": sum(robust.values()),
            "operations": sum(len(lat) for lat in self.latencies),
            "chunks": n,
            "phase_s": phase_s,
            "phase_throughput_per_s": {p: phase_units[p] / phase_s[p] for p in phase_s},
        }
