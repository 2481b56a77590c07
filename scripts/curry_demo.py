"""Walk through the paradox end to end.

Checks the transcribed derivation of falsity from the two biconditional
halves (it must fail on the discharge restriction), then runs the
fixed-point construction on the matching sentence universe and shows the
biconditional holding at the looped world with both sides false.
"""

import json

from bqlcd.bradyfp import (
    chain_model, extend_chain, initial_chain, make_universe, run_universe,
    tb_instance,
)
from bqlcd.kripke import satisfies
from bqlcd.proofkernel import assume, check_proof, node
from bqlcd.syntax import Imp, BOTTOM, parse_inferring


def build_curry_proof():
    tc = parse_inferring("T(c)")[0]
    neg = Imp(tc, BOTTOM)
    fwd = Imp(tc, neg)
    bwd = Imp(neg, tc)

    def half(tag):
        star = assume(tc, f"star{tag}")
        inner = node("imp_elim", neg, [star, assume(fwd, f"fwd{tag}")])
        outer = node("imp_elim", BOTTOM, [assume(tc, f"plain{tag}"), inner])
        return node("imp_int", neg, [outer], {f"star{tag}", f"plain{tag}"})

    tc_proof = node("imp_elim", tc, [half("_a"), assume(bwd, "bwd")])
    return node("imp_elim", BOTTOM, [tc_proof, half("_b")])


def main():
    proof = build_curry_proof()
    report = check_proof(proof, "nbqlcd_r")
    print("derivation valid:", report.valid)
    for v in report.violations:
        print(f"  {v.node} [{v.constraint}] {v.message}")

    texts = ["true", "false", "T(q2) -> false", "T(q2)"]
    universe = make_universe(texts, {t: i for i, t in enumerate(texts)}, 4)
    out = run_universe(universe, 5)
    print(json.dumps({k: out[k] for k in ("theta", "stable", "t_ext", "checks")},
                     indent=2))

    state = extend_chain(initial_chain(universe))
    model = chain_model(universe, state.t_ext, loop=True)
    bottom = "w1"
    curry_sentence = universe.sentences[2]
    print("at the looped world:")
    print("  paradox sentence:", satisfies(model, bottom, curry_sentence))
    print("  its truth claim: ", satisfies(model, bottom, universe.sentences[3]))
    print("  biconditional:   ",
          satisfies(model, bottom, tb_instance(universe, curry_sentence)))


if __name__ == "__main__":
    main()
