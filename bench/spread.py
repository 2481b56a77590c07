"""Run-to-run spread of every end-to-end metric, against its bound.

    python3 bench/spread.py [--runs 10] [--first-seed 0] [--workload NAME ...]

Runs the benchmark command of ``BENCHMARK.json`` once per seed, one run at a
time, for each workload, and prints for every end-to-end metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  A spread above the
metric's bound is marked WIDE.  Also prints the share of failed operations,
which must be the same in every run.  Exits with 1 if any run was incorrect,
any spread is wide or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT = 900


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT)
    if not out.stdout.strip():
        raise SystemExit(f"{workload} seed {seed}: no output, exit {out.returncode}\n"
                         f"{out.stderr[-2000:]}")
    return out.returncode, json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            code, res = run_once(spec, workload, seed, seconds)
            shares.add(Fraction(res["failed"], res["attempted"]))
            if code != 0 or not res["correct"]:
                print(f"{workload} seed {seed}: incorrect (exit {code})")
                ok = False
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={res['metrics'][n]['value']:.4g}" for n in values), flush=True)
        print(f"{workload}: failed share {sorted(str(s) for s in shares)}")
        ok &= len(shares) == 1
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "WIDE" if spread > m["bound"] else "ok"
            ok &= verdict == "ok"
            print(f"  {m['name']:<14} median {med:10.4g} {m['unit']:<5} "
                  f"quartiles {q1:.4g}..{q3:.4g}  spread {spread:6.3f}  "
                  f"bound {m['bound']}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
