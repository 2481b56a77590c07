"""Soundness battery timing: searches the sequents of the checked proofs of
``generate_corpus(seed=0, size=200)`` with at most 3 open assumptions (the
open assumptions as premises) in mode ``bqlcd_r``, and prints one JSON line
with the bounds, the sequent count, the countermodels found (0 when the
search agrees with the proof kernel), the wall time of the searches, the
search counters summed over the battery, and the cell plans the searches
built (``cell_plans``) and looked up again (``cell_plan_hits``).  A cell is
one (worlds, domain size) pair; its plan is built once per process and
shared by every search that visits the cell with the same relation and
function shapes.

    PYTHONPATH=src python scripts/battery.py --bounds 3 2
"""

import argparse
import json
import time
from collections import Counter

from bqlcd import kripke
from bqlcd.kripke import SearchBounds, countermodel_search
from bqlcd.proofgen import generate_corpus
from bqlcd.proofkernel import open_assumptions
from bqlcd.syntax import pretty


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bounds", type=int, nargs=2, metavar=("K", "M"), default=(3, 2),
                    help="most worlds and largest domain searched")
    args = ap.parse_args()
    bounds = SearchBounds(*args.bounds)
    corpus = generate_corpus(seed=0, size=200)
    sequents = [(sorted(open_assumptions(t), key=pretty), t.conclusion)
                for t in corpus if len(open_assumptions(t)) <= 3]
    found, counters = 0, Counter()
    t0 = time.perf_counter()
    for gamma, phi in sequents:
        res = countermodel_search(gamma, phi, bounds)
        found += res.found
        counters.update(res.stats)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"bounds": list(args.bounds), "sequents": len(sequents),
                      "found": found, "seconds": round(elapsed, 2), **counters,
                      "cell_plans": kripke._cell_plan.cache_info().misses,
                      "cell_plan_hits": kripke._cell_plan.cache_info().hits}))


if __name__ == "__main__":
    main()
