"""Countermodel searches over the landmark sequents."""

import json
import time

from bqlcd.kripke import SearchBounds, countermodel_search, model_to_json
from bqlcd.syntax import parse_inferring

CASES = [
    ("pseudo detachment", [], "(p & (p -> q)) -> q", "bqlcd_r", (2, 1)),
    ("detachment sequent", ["p & (p -> q)"], "q", "bqlcd_r", (3, 2)),
    ("weakening", [], "p -> (q -> p)", "bqlcd_r", (3, 2)),
    ("transitivity", [], "(p -> q) & (q -> r) -> (p -> r)", "bqlcd_r", (3, 2)),
    ("constant domain", [], "(forall x. p | P(x)) -> p | (forall x. P(x))",
     "bqlcd_r", (3, 2)),
    ("identity excluded middle, strict", [], "c = d | (c = d -> false)",
     "strict", (3, 2)),
    ("identity excluded middle, congruence", [], "c = d | (c = d -> false)",
     "congruence", (2, 2)),
    ("relations under congruence",
     ["((exists x. R(x, c)) -> (R(c, d) -> P(d)))", "R(d, c)"],
     "((exists x. R(x, c)) | ((true & p) -> (R(d, c) -> R(c, d))))", "congruence", (3, 2)),
]


def main():
    for name, premises, conclusion, mode, (kw, kd) in CASES:
        gamma = [parse_inferring(t)[0] for t in premises]
        phi = parse_inferring(conclusion)[0]
        t0 = time.perf_counter()
        res = countermodel_search(gamma, phi, SearchBounds(kw, kd), mode)
        elapsed = time.perf_counter() - t0
        print(f"{name} [{mode} {kw},{kd}] {elapsed * 1000:6.1f} ms {res.stats} "
              f"-> {'countermodel at ' + res.witness if res.found else 'none'}")
        if res.found:
            print("   " + json.dumps(model_to_json(res.model)))


if __name__ == "__main__":
    main()
