"""Size a change against its parent: one workload of ``bench/run.py`` run in
two checkouts side by side, alternating whole rounds.

    python3 scripts/ab_rounds.py PARENT CHANGE --workload proofs --seed 1 --rounds 40

Each checkout gets one child process, which sets the workload up once from
that checkout's own ``bench/wl_*.py`` and sources, and then runs one round
of the operations through that checkout's ``bench/run.py`` each time it is
told to.  The two children take turns, round by round, and the side that
goes first swaps every round, so a slow phase of the machine falls on both
sides alike.
When the rounds are done, each side prints its ``ops_per_s``,
``op_ms.p50`` and ``op_ms.p90``, computed as ``bench/run.py`` computes them
from each operation's fastest round, with ``correct`` and the failed
operations, and the last line gives the change's relative change in each of
the three: a gain is positive in ``ops_per_s`` and negative in the two
latencies.

This sizes a change.  It is not the gate for a claim: that stays
``bench/run.py`` in alternating pairs of whole runs.  Nothing under
``bench/`` is written.
"""

import argparse
import gc
import importlib
import json
import os
import subprocess
import sys

SHOWN = ("ops_per_s", "op_ms.p50", "op_ms.p90")


def child(checkout, workload, seed):
    """Set up, say ``ready``, then run a round per line read from stdin and
    answer each with ``done``; at end of input print the metrics."""
    root = os.path.abspath(checkout)
    sys.path[:0] = [os.path.join(root, "bench"), os.path.join(root, "src")]
    import run
    from probe import Probe

    # the answers go to the real stdout; anything the workload prints, to stderr
    answer, sys.stdout = sys.stdout, sys.stderr
    mod = importlib.import_module(f"wl_{workload}")
    ops = mod.setup(seed, Probe(), run.DATA)
    mod.warm_up(Probe())
    import bqlcd
    if not bqlcd.__file__.startswith(os.path.join(root, "src", "")):
        raise SystemExit(f"error: bqlcd was imported from {bqlcd.__file__}")
    gc.collect()
    gc.freeze()
    runner = run.Runner(ops)
    print("ready", file=answer, flush=True)
    for rounds, _ in enumerate(sys.stdin):
        runner.round(Probe(), rounds)
        print("done", file=answer, flush=True)
    metrics = run.end_to_end(runner, setup_s=None)     # one set-up, not timed
    print(json.dumps({"correct": not runner.mismatches, "failed": runner.failed,
                      "attempted": runner.attempted,
                      **{name: metrics[name][0] for name in SHOWN}}),
          file=answer, flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs=2, metavar="CHECKOUT",
                    help="the parent's checkout, then the change's")
    ap.add_argument("--workload", required=True, choices=("search", "proofs", "truth"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=40)
    args = ap.parse_args(argv)
    sides = [subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", path, args.workload,
         str(args.seed)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for path in args.checkouts]
    try:
        for side in sides:
            if side.stdout.readline().strip() != "ready":
                raise SystemExit("error: a child failed to set up")
        for r in range(args.rounds):
            for side in (sides if r % 2 == 0 else sides[::-1]):
                side.stdin.write("round\n")
                side.stdin.flush()
                if side.stdout.readline().strip() != "done":
                    raise SystemExit("error: a child failed in a round")
        results = []
        for side in sides:
            side.stdin.close()
            results.append(json.loads(side.stdout.readline()))
    finally:
        # a child left waiting for its next round is stopped, not asked to report
        for side in sides:
            if not side.stdin.closed:
                side.kill()
            side.wait()
    for path, got in zip(args.checkouts, results):
        print(f"{path}: " + ", ".join(f"{name} {got[name]:.6g}" for name in SHOWN)
              + f", correct {got['correct']}, failed {got['failed']} of {got['attempted']}")
    parent, change = results
    print(", ".join(f"{name} {100.0 * (change[name] / parent[name] - 1.0):+.1f} %"
                    for name in SHOWN))
    return 0 if all(got["correct"] for got in results) else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], sys.argv[3], int(sys.argv[4]))
    else:
        sys.exit(main())
