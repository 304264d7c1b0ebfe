"""Which public ordcalc functions the traced run wraps, and how the span
aggregates become the per-layer metrics named in BENCHMARK.json."""

from __future__ import annotations

import json
import os

SYSTEMS = ("buchholz", "poly", "xi", "mixed")
KL_SYSTEMS = ("buchholz", "poly", "xi")
KL_ITEMS = {"buchholz": 3, "poly": 3, "xi": 4}

CONSTRUCTORS = (
    "sum_of", "omega_pow", "omega_idx", "omega_lev", "omega_high", "xi",
    "theta_idx", "theta", "theta_low", "theta_high", "theta_xi",
    "var_idx", "var_lev", "fvar",
)
# Public operations timed by self time on the Key Lemma systems.
KL_OPS = ("substitute", "shift", "kset", "fc", "dfun", "llrel")
XI_OPS = ("abstract", "instantiate", "fsubstitute")


def trace_spec():
    """(module, attribute, layer, replace_in_home) for every wrapped function."""
    from ordcalc import buchholz, core, harness, mixed, poly, syntax, xi

    mods = {"buchholz": buchholz, "poly": poly, "xi": xi, "mixed": mixed}
    spec = [(core, name, "core.construct", True) for name in CONSTRUCTORS]
    spec += [
        (core, "var_names", "core.var_names", True),
        (core, "subterms", "core.subterms", True),
        (syntax, "parse", "syntax.parse", True),
        # render recurses through its public name: syntax keeps the original,
        # so the wrapper adds no stack frame per level of a deep input.
        (syntax, "render", "syntax.render", False),
        (harness, "enumerate_terms", "harness.enumerate_terms", True),
    ]
    for system, mod in mods.items():
        spec.append((mod, "compare", f"{system}.compare", True))
        spec.append((mod, "compare_reference", f"{system}.compare_reference", True))
        for attr in ("kset_reference", "kset_low_reference",
                     "kset_high_reference", "kset_xi_reference"):
            if hasattr(mod, attr):
                spec.append((mod, attr, f"{system}.kset_reference", True))
    for system in KL_SYSTEMS:
        mod = mods[system]
        names = [op for op in KL_OPS if hasattr(mod, op)]
        names += [f"key_lemma_{i}" for i in range(1, KL_ITEMS[system] + 1)]
        if system == "xi":
            names += XI_OPS
        spec += [(mod, name, f"{system}.{name}", True) for name in names]
    return spec


def per_layer_names(bench_json_path: str) -> list[str]:
    with open(bench_json_path) as f:
        return [m["name"] for m in json.load(f)["per_layer"]]


def layer_metrics(names, agg, phases, setup_agg, enum_terms, kl_details, cli_ms, overhead):
    """Fill every per-layer metric; a layer the workload never reached is 0.

    agg: {layer: (calls, inclusive_s, self_s)} over the measured phases.
    phases: {"cold": agg, "warm": agg, ...} per phase of the timed run.
    setup_agg, enum_terms: aggregates and the number of terms returned by
    harness.enumerate_terms during set-up.
    kl_details: {system: {item: {"accepted": n, "attempts": n}}}.
    cli_ms: {"interp_start_ms": x, "import_ms": x, "main_ms": x} medians.
    """
    def get(layer, field):
        calls, incl, self_s = agg.get(layer, (0, 0.0, 0.0))
        return {"calls": calls, "s": incl, "self_s": self_s}[field]

    values = {}
    for name in names:
        if name == "trace.overhead_ratio":
            values[name] = overhead
        elif name.startswith("cli."):
            values[name] = cli_ms.get(name[4:], 0.0)
        elif name == "harness.enumerate_terms.terms":
            values[name] = enum_terms
        elif name == "harness.enumerate_terms.s":
            values[name] = setup_agg.get("harness.enumerate_terms", (0, 0.0, 0.0))[1]
        elif name.startswith("harness.key_lemma."):
            _, _, system, item, field = name.split(".")
            d = kl_details.get(system, {}).get(item, {"accepted": 0, "attempts": 0})
            if field == "attempts":
                values[name] = d["attempts"]
            else:
                values[name] = d["accepted"] / d["attempts"] if d["attempts"] else 0.0
        elif name.endswith(".cold_s") or name.endswith(".warm_s"):
            layer, phase = name.rsplit(".", 1)
            values[name] = phases.get(phase[:-2], {}).get(layer, (0, 0.0, 0.0))[1]
        else:
            layer, field = name.rsplit(".", 1)
            values[name] = get(layer, field)
    return values


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio") or name.endswith("acceptance_rate"):
        return "ratio"
    return "count"


def bench_json_path() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(here), "BENCHMARK.json")
