"""ordcalc benchmark runner (standard library only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Each run is one fresh process with no threads (the `cli` workload
spawns one child at a time).  The runner generates its inputs from the seed,
checks every output, and prints, as the last line of standard output, one
JSON object with `correct`, `attempted`, `failed` and `metrics`:

- `--trace 0`: the end-to-end metrics of BENCHMARK.json;
- `--trace 1`: the per-layer metrics.  Public ordcalc functions are wrapped
  from outside (tracer.py); the run first spawns an untraced copy of itself
  to report the tracing overhead, and writes its spans to `.perfbench/`.

Earlier lines carry run metadata (interpreter, nproc, seed, commit, `src/`
line count), the error rate and each metric with its unit.  See README.md
for the workloads and for what each metric should move.
"""

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "keylemma", "cli")
# Fresh processes that repeat only the set-up; setup_s is their median,
# each scaled by the speed probe run this many times after its set-up.
SETUP_REPLICAS = 3
SETUP_PROBES = 9
# Workload-specific names: of the generic metrics, and of the per-phase
# throughputs printed alongside them (the sweep's cold, warm and oracle).
ALIASES = {
    ("keylemma", "throughput_per_s"): "kl_instances_per_s",
    ("cli", "p50_ms"): "cmd_p50_ms",
    ("cli", "p90_ms"): "cmd_p90_ms",
}
PHASE_NAMES = {"cold": "cold_cmp_per_s", "warm": "warm_cmp_per_s", "oracle": "oracle_cmp_per_s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description="ordcalc benchmark runner")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal modes, run in fresh child processes: only the set-up (a set-up
    # replica), or the untraced twin of a traced run.  Each prints a record.
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--twin", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def make_state(workload, seed, work):
    if workload == "sweep":
        import sweep

        return sweep, sweep.Sweep(workload, seed, work)
    if workload == "keylemma":
        import keylemma

        return keylemma, keylemma.KeyLemma(workload, seed, work)
    import clicmds

    return clicmds, clicmds.Commands(workload, seed, work)


def measure(args, recorder=None):
    """Set up and run the workload in this process; returns its record and
    the workload's raw result."""
    module, state = make_state(args.workload, args.seed, args.seconds / 10.0)
    record = {"setup_end": time.monotonic()}
    if args.setup_only:
        if args.workload == "cli":
            probe_fn, ref_s = module.bare_start_probe(ROOT), module.BARE_START_REF_S
        else:
            from measure import PROBE_REF_S as ref_s, probe as probe_fn
        probes = [probe_fn() for _ in range(SETUP_PROBES)]
        record["slowdown"] = statistics.median(probes) / ref_s
        return record, None
    if args.workload == "cli":
        result = module.run(state, ROOT, bool(args.trace), recorder)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        result = module.run(state, recorder)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record.update(result["chunks"].summary())
    record.update(
        rss_kb=rss_kb,
        attempted=result["attempted"],
        failed=result["failed"],
        wrong=result["wrong"],
        notes=result["notes"][:5],
    )
    return record, result


def spawn_self(args, mode):
    """Run this runner in a fresh process in an internal mode; its set-up
    time is measured from spawn on the system-wide monotonic clock."""
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", "0", mode,
    ]
    spawn = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child failed: {proc.stderr.strip()[-500:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("setup_end") - spawn
    return record


def run_metadata(args):
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src_lines = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as f:
            src_lines += sum(1 for _ in f)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "commit": commit,
        "src_lines": src_lines,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class PhaseRecorder:
    """Tracer snapshots at phase boundaries: per-phase layer aggregates, and
    the set-up aggregates (everything before the first phase)."""

    def __init__(self, tracer):
        from tracer import delta

        self.tracer, self.delta = tracer, delta
        self.current, self.start = None, None
        self.setup = None
        self.phases = {}

    def __call__(self, name):
        snap = self.tracer.snapshot()
        if self.setup is None:
            self.setup = snap
        if self.current is not None:
            d = self.delta(snap, self.start)
            merged = self.phases.setdefault(self.current, {})
            for layer, (c, i, s) in d.items():
                c0, i0, s0 = merged.get(layer, (0, 0.0, 0.0))
                merged[layer] = (c0 + c, i0 + i, s0 + s)
        self.current, self.start = name, snap

    def total(self):
        out = {}
        for agg in self.phases.values():
            for layer, (c, i, s) in agg.items():
                c0, i0, s0 = out.get(layer, (0, 0.0, 0.0))
                out[layer] = (c0 + c, i0 + i, s0 + s)
        return out


def end_to_end(args):
    """Untraced run in this process, then the set-up replicas.  setup_s is
    scaled by the speed probe like the norm_* metrics."""
    record, _ = measure(args)
    replicas = [spawn_self(args, "--setup-only") for _ in range(SETUP_REPLICAS)]
    setups = [r["setup_s"] / r["slowdown"] for r in replicas]
    metrics = {
        "norm_throughput_per_s": {"value": record["norm_throughput_per_s"], "unit": "1/s"},
        "norm_p50_ms": {"value": record["norm_p50_ms"], "unit": "ms"},
        "norm_p90_ms": {"value": record["norm_p90_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": record["rss_kb"] / 1024.0, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    record["setup_samples_s"] = [r["setup_s"] for r in replicas]
    return metrics, record


def per_layer(args):
    """Traced run in this process, after an untraced twin in a child."""
    import layers
    from tracer import Tracer

    twin = spawn_self(args, "--twin")
    import ordcalc.cli  # noqa: F401  (loads every ordcalc module)

    tracer = Tracer()
    tracer.install(layers.trace_spec(), count_items={"harness.enumerate_terms"})
    recorder = PhaseRecorder(tracer)
    record, result = measure(args, recorder)
    agg = result.get("child_layers") or recorder.total()
    cli_ms = {k: statistics.median(v) for k, v in result.get("boot", {}).items() if v}
    values = layers.layer_metrics(
        layers.per_layer_names(layers.bench_json_path()),
        agg, recorder.phases, recorder.setup,
        tracer.items_of("harness.enumerate_terms"),
        result.get("kl_details", {}), cli_ms,
        record["measured_s"] / twin["measured_s"],
    )
    metrics = {k: {"value": v, "unit": layers.unit_of(k)} for k, v in values.items()}
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"spans-{args.workload}"))
    record.update(untraced_measured_s=twin["measured_s"], spans=len(tracer.s_layer),
                  spans_dropped=tracer.dropped)
    return metrics, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ordcalc", "cli.py")):
        print(f"perfbench: no ordcalc sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.setup_only or args.twin:
        record, _ = measure(args)
        print(json.dumps(record))
        return 0

    metrics, record = per_layer(args) if args.trace else end_to_end(args)
    attempted, failed = record["attempted"], record["failed"]
    meta = run_metadata(args)
    meta.update(record, error_rate=failed / attempted if attempted else 1.0)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"{args.workload}: error_rate = {meta['error_rate']:.4f} "
          f"({failed} failed of {attempted} attempted)")
    for name, m in metrics.items():
        print(f"{args.workload}: {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        # The same figures as measured, before the speed-probe scaling.
        raw = [(name, record[name], unit) for name, unit in
               (("throughput_per_s", "1/s"), ("p50_ms", "ms"), ("p90_ms", "ms"))]
        raw.append(("setup_s", statistics.median(record["setup_samples_s"]), "s"))
        if args.workload == "sweep":
            raw += [(PHASE_NAMES[p], v, "1/s") for p, v in record["phase_throughput_per_s"].items()]
        for name, value, unit in raw:
            alias = ALIASES.get((args.workload, name))
            print(f"{args.workload}: {name} = {value:.6g} {unit}  [as measured"
                  + (f"; {alias}]" if alias else "]"))
        print(f"{args.workload}: host slowdown against the probe reference = "
              f"{record['slowdown']:.4g}")
    print(json.dumps({
        "correct": record["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
