"""Benchmark of the bqlcd workbench: one closed-loop workload per run.

    python3 bench/run.py --workload {search,proofs,truth} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the workbench is imported from ``src``.
One process, one thread: each operation starts after the previous one has
finished.  A run repeats whole rounds of the workload's fixed, seeded list
of operations until ``--seconds`` have passed and at least 100 operations
have been attempted.  Every output is checked, outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds, prints the per-layer metrics derived from the
traced rounds' spans and the tracing overhead (traced against untraced
round wall time), and writes the spans to
``.bench_trace/<workload>-<seed>.jsonl``.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time

from probe import Probe, self_times, write_spans
from refcheck import Mismatch

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, "tests", "data")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
WORKLOADS = ("search", "proofs", "truth")
MIN_OPS = 100            # operations per round, so op_ms.p90 has ten samples above it
MIN_ROUNDS = 3           # each operation's latency is its best of at least three
SETUPS = 3               # set-ups per run; setup_s is their median
# Operations that fail today because of a known fault of the program, each
# counted in ``failed``.  An exception from any other operation is a wrong
# output.
KNOWN_FAULTS = {
    "deep_guard",        # search: bqlcd countermodel on a 400-deep guard, RecursionError
    "deep_chain",        # proofs: check_proof on a 1500-node and_int chain, RecursionError
}

# per-layer metric -> (unit, span name or count name, kind)
LAYER_METRICS = {
    "syntax.parse_s": ("s", "syntax.parse", "time"),
    "syntax.parse_calls": ("count", "syntax.parse", "calls"),
    "syntax.pretty_s": ("s", "syntax.pretty", "time"),
    "proofkernel.from_json_s": ("s", "proofkernel.from_json", "time"),
    "proofkernel.to_json_s": ("s", "proofkernel.to_json", "time"),
    "proofkernel.check_s": ("s", "proofkernel.check", "time"),
    "proofkernel.check_calls": ("count", "proofkernel.check", "calls"),
    "proofkernel.nodes_checked": ("nodes", "proofkernel.nodes_checked", "count"),
    "transform.reduce_s": ("s", "transform.reduce", "time"),
    "transform.unbox_s": ("s", "transform.unbox", "time"),
    "transform.translate_s": ("s", "transform.translate", "time"),
    "transform.nodes_out": ("nodes", "transform.nodes_out", "count"),
    "kripke.search_exhausted_s": ("s", "kripke.search_exhausted", "time"),
    "kripke.search_found_s": ("s", "kripke.search_found", "time"),
    "kripke.searches": ("count", ("kripke.search_exhausted", "kripke.search_found"), "calls"),
    "kripke.found": ("count", "kripke.search_found", "calls"),
    "kripke.sat_s": ("s", "kripke.sat", "time"),
    "kripke.model_json_s": ("s", "kripke.model_json", "time"),
    "bradyfp.load_s": ("s", "bradyfp.load", "time"),
    "bradyfp.run_s": ("s", "bradyfp.run", "time"),
    "bradyfp.runs": ("count", "bradyfp.run", "calls"),
    "bradyfp.worlds": ("count", "bradyfp.worlds", "count"),
    "bradyfp.jump_stages": ("count", "bradyfp.jump_stages", "count"),
    "cli.busy_s": ("s", "cli.main", "time"),
    "cli.calls": ("count", "cli.main", "calls"),
    "reduced_nodes": ("nodes", "reduced_nodes", "count"),
    "axiomatic_nodes": ("nodes", "axiomatic_nodes", "count"),
    "bench.check_s": ("s", "op", "time"),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def set_up(workload, seed, probe):
    """Import the workbench, make the inputs and warm up, ``SETUPS`` times
    over.  The workbench's modules are dropped between set-ups, so each one
    imports them afresh.  Returns the last set of operations and the median
    set-up time."""
    sys.path.insert(0, SRC)
    fresh = {"bqlcd", "common", f"wl_{workload}"}
    times = []
    for i in range(SETUPS):
        ops = None           # drop the previous set before making the next
        for name in [m for m in sys.modules if m.split(".")[0] in fresh]:
            del sys.modules[name]
        start = time.perf_counter()
        mod = importlib.import_module(f"wl_{workload}")
        # only the last set-up's proofgen spans are kept
        ops = mod.setup(seed, probe if i == SETUPS - 1 else Probe(), DATA)
        mod.warm_up(Probe())
        times.append(time.perf_counter() - start)
    import bqlcd
    if os.path.dirname(os.path.dirname(os.path.abspath(bqlcd.__file__))) != SRC:
        raise SystemExit(f"error: bqlcd was imported from {bqlcd.__file__}, not {SRC}")
    return ops, statistics.median(times)


def percentile(sorted_vals, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


class Runner:
    """Runs rounds of the operations and keeps every operation's latency
    (seconds inside the program) per round."""

    def __init__(self, ops):
        self.ops = ops
        self.samples = [[] for _ in ops]
        self.failing = set()          # indices of operations that raised
        self.mismatches = []
        self.faults = {}
        self.busy = 0.0

    @property
    def attempted(self):
        return sum(map(len, self.samples))

    @property
    def failed(self):
        return sum(len(self.samples[i]) for i in self.failing)

    def round(self, probe, round_no):
        """One round; returns its wall time, harness and tracing included."""
        start = time.perf_counter()
        total = 0.0
        for i, (label, fn) in enumerate(self.ops):
            probe.begin_op(f"r{round_no}.{i}.{label}")
            try:
                fn(probe)
            except Mismatch as exc:
                self.mismatches.append(f"{label}: {exc}")
            except Exception as exc:
                fault = f"{type(exc).__name__}: {str(exc)[:120]}"
                if label in KNOWN_FAULTS:
                    self.failing.add(i)
                    self.faults.setdefault(label, fault)
                else:
                    self.mismatches.append(f"{label}: raised {fault}")
            t = probe.end_op()
            self.samples[i].append(t)
            total += t
        self.busy += total
        return time.perf_counter() - start

    def best_latencies(self):
        """Each operation's fastest round: contention from other processes
        on the machine only ever slows an operation down, so the minimum
        over rounds is the steadiest estimate of its cost."""
        return [min(s) for s in self.samples]


def end_to_end(runner, setup_s):
    best = runner.best_latencies()
    # a round at every operation's best, failed operations' time included
    completed = len(best) - len(runner.failing)
    # a failed operation counts as infinitely slow in the percentiles
    ranked = sorted(math.inf if i in runner.failing else t for i, t in enumerate(best))
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (completed / sum(best), "op/s"),
        "op_ms.p50": (percentile(ranked, 0.5) * 1e3, "ms"),
        "op_ms.p90": (percentile(ranked, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(traced, setup_probe, traced_rounds, overhead):
    times, calls = self_times(traced.spans)
    out = {}
    for name, (unit, key, kind) in LAYER_METRICS.items():
        keys = key if isinstance(key, tuple) else (key,)
        if kind == "time":
            total = sum(times.get(k, 0.0) for k in keys)
        elif kind == "calls":
            total = sum(calls.get(k, 0) for k in keys)
        else:
            total = traced.counts.get(key, 0)
        out[name] = (total / traced_rounds, unit)
    gen_times, _ = self_times(setup_probe.spans)
    out["proofgen.generate_s"] = (gen_times.get("proofgen.generate", 0.0), "s")
    out["trace.overhead_pct"] = (overhead, "%")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bqlcd", "__init__.py")):
        print(f"error: no workbench sources under {SRC}", file=sys.stderr)
        return 2
    tracing = bool(args.trace)
    setup_probe = Probe(tracing=tracing)
    ops, setup_s = set_up(args.workload, args.seed, setup_probe)
    # the inputs live for the whole run; freezing them keeps the collector
    # from re-scanning them during the operations
    gc.collect()
    gc.freeze()
    if len(ops) < MIN_OPS:
        raise SystemExit(f"error: {len(ops)} operations per round, fewer than {MIN_OPS}")

    runner = Runner(ops)
    plain = Probe()
    traced = Probe(tracing=True)
    round_times = {False: [], True: []}
    rounds = 0
    start = time.perf_counter()
    while (rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds
           or (tracing and rounds % 2)):
        use_trace = tracing and rounds % 2 == 1
        round_times[use_trace].append(
            runner.round(traced if use_trace else plain, rounds))
        rounds += 1
    wall = time.perf_counter() - start

    if tracing:
        overhead = 100.0 * (statistics.mean(round_times[True])
                            / statistics.mean(round_times[False]) - 1.0)
        metrics = per_layer(traced, setup_probe, len(round_times[True]), overhead)
        os.makedirs(TRACE_DIR, exist_ok=True)
        write_spans(os.path.join(TRACE_DIR, f"{args.workload}-{args.seed}.jsonl"),
                    setup_probe.spans, traced.spans)
    else:
        metrics = end_to_end(runner, setup_s)

    correct = not runner.mismatches
    print(f"workload {args.workload}, seed {args.seed}: {rounds} rounds of "
          f"{len(ops)} operations in {wall:.1f} s, {runner.busy:.1f} s in the program")
    print(f"attempted {runner.attempted}, failed {runner.failed}, correct {correct}")
    for label, fault in sorted(runner.faults.items()):
        print(f"failed operation {label}: {fault}")
    for msg in runner.mismatches[:10]:
        print(f"WRONG OUTPUT {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
