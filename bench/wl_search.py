"""The ``search`` workload: one operation is one sequent searched to a verdict.

Inputs, per round:
- valid sequents: the open assumptions (at most 3) and conclusion of checked
  proofs from ``generate_corpus``, searched in ``bqlcd_r`` at (3, 2).  They
  are a fixed slice of the soundness battery (corpus seed 0), drawn with
  fixed quotas per search-space weight (see ``weight``);
- perturbed sequents of checked proofs from corpora of seeds derived from
  the workload seed: a premise dropped, or another proof's conclusion
  swapped in, kept only when a one-world model refutes them (checked by the
  reference checker), so that every one takes the search's found path;
- the landmark sequents of ``scripts/search_demo.py`` and the closed theorem
  corpus in mode ``bqlcd``, through ``bqlcd countermodel``;
- the 400-deep ``true -> ... -> p`` guard through ``bqlcd countermodel``,
  which fails today (RecursionError instead of exit code 2).
"""

from __future__ import annotations

import json
import random

from bqlcd.kripke import (
    SearchBounds, countermodel_search, model_from_json, model_to_json, satisfies,
)
from bqlcd.proofgen import closed_theorem_corpus, generate_corpus
from bqlcd.proofkernel import open_assumptions
from bqlcd.syntax import parse_inferring, pretty

from common import cli_call, quantile_picks, sub_seed
from refcheck import check_countermodel, expect, one_world_refutes, parse, symbols

BOUNDS = (3, 2)
# The soundness battery's corpus, and the valid sequents taken from it per
# round by search-space weight.  Searches vary fourfold in cost at equal
# weight, so the valid sequents are a fixed slice: a seeded pick of them
# moved the median and the tail by more than their bounds.
BATTERY_SEED = 0
BATTERY_QUOTAS = {2: 30, 3: 8, 4: 3, 5: 1}
# seeded corpora that the perturbed sequents are made from
SEEDED_CORPORA = 3
PERTURBED = 15          # of each kind per round
DEEP_GUARD = 400

# (name, premises, conclusion, mode, bounds, refuted): the statuses the
# paper states for the landmark sequents
LANDMARKS = [
    ("pseudo detachment", [], "(p & (p -> q)) -> q", "bqlcd_r", (2, 1), True),
    ("detachment", ["p & (p -> q)"], "q", "bqlcd_r", (3, 2), False),
    ("weakening", [], "p -> (q -> p)", "bqlcd_r", (3, 2), False),
    ("transitivity", [], "(p -> q) & (q -> r) -> (p -> r)", "bqlcd_r", (3, 2), False),
    ("constant domain", [], "(forall x. p | P(x)) -> p | (forall x. P(x))",
     "bqlcd_r", (3, 2), False),
    ("identity excluded middle, strict", [], "c = d | (c = d -> false)",
     "strict", (3, 2), False),
    ("identity excluded middle, congruence", [], "c = d | (c = d -> false)",
     "congruence", (2, 2), True),
]


def weight(texts):
    """Base-4 logarithm, rounded down and clipped to 2..5, of the number of
    relation interpretations on the largest cell the search visits: each
    relation contributes m**arity upset choices (about 4 options each on
    three worlds) and each constant a factor m, where m is the domain bound
    the sequent needs (2 with quantifiers or functions, else at most the
    number of constants)."""
    rels, consts, funs = {}, set(), set()
    quantified = False
    for text in texts:
        quantified |= symbols(parse(text), rels, consts, funs)[3]
    m = 2 if quantified or funs else min(2, max(1, len(consts)))
    w = sum(m ** a for a in rels.values()) + (0.5 * len(consts) if m == 2 else 0)
    return min(5, max(2, int(w)))


def _pool(probe, corpus_seeds):
    """Sequents (premise texts, conclusion text) of the checked proofs with
    at most 3 open assumptions, grouped by weight."""
    pool = {}
    for cs in corpus_seeds:
        for t in probe.call("proofgen.generate", generate_corpus, seed=cs, size=200):
            opens = open_assumptions(t)
            if len(opens) <= 3:
                seq = (tuple(sorted(pretty(a) for a in opens)), pretty(t.conclusion))
                pool.setdefault(seq, weight(seq[0] + (seq[1],)))
    by_weight = {}
    for seq, w in pool.items():
        by_weight.setdefault(w, []).append(seq)
    return by_weight


def _valid_picks(by_weight, quotas):
    return [seq for w, q in quotas.items()
            for seq in quantile_picks(by_weight.get(w, []), q, _size_key)]


def _size_key(seq):
    return (len(seq[0]), sum(map(len, seq[0])) + len(seq[1]), seq)


def library_search(probe, premises, conclusion, valid):
    """Search one sequent in mode ``bqlcd_r``; ``valid`` says whether it is
    known valid (from a checked proof: no countermodel may be found) or
    known refutable (by a one-world model: a countermodel must be found)."""
    sig = None
    gamma = []
    for text in premises:
        phi, sig = probe.call("syntax.parse", parse_inferring, text, sig)
        gamma.append(phi)
    phi, sig = probe.call("syntax.parse", parse_inferring, conclusion, sig)
    res = probe.call(
        lambda r: "kripke.search_found" if r.found else "kripke.search_exhausted",
        countermodel_search, gamma, phi, SearchBounds(*BOUNDS), "bqlcd_r")
    if valid:
        expect(not res.found and res.exhausted,
               f"countermodel against a checked proof: {premises} |= {conclusion}")
        return
    expect(res.found, f"no countermodel for refutable {premises} |= {conclusion}")
    data = probe.call("kripke.model_json", model_to_json, res.model)
    model = probe.call("kripke.model_json", model_from_json, json.loads(json.dumps(data)))
    for g, text in zip(gamma, premises):
        expect(probe.call("kripke.sat", satisfies, model, res.witness, g),
               f"reloaded model: premise {text!r} fails at the witness")
    expect(not probe.call("kripke.sat", satisfies, model, res.witness, phi),
           f"reloaded model: {conclusion!r} holds at the witness")
    check_countermodel(data, res.witness, premises, conclusion, "bqlcd_r")


def cli_search(probe, premises, conclusion, mode, bounds, refuted):
    argv = ["countermodel", "--conclusion", conclusion,
            "--max-worlds", str(bounds[0]), "--max-domain", str(bounds[1]),
            "--mode", mode]
    if premises:
        argv += ["--premises", *premises]
    code, out = cli_call(probe, argv)
    if refuted is None:        # no stated status: any clean verdict will do
        expect(code in (0, 1, 2), f"exit code {code}")
        refuted = code == 0
        if code == 2:
            return
    if not refuted:
        expect(code == 1 and out["found"] is False and out["exhausted"],
               f"{conclusion!r} [{mode}] should survive, exit {code}")
        return
    expect(code == 0 and out["found"], f"{conclusion!r} [{mode}] should be refuted")
    check_countermodel(out["model"], out["witness"], premises, conclusion, mode)


def setup(seed, probe, data_dir):
    rng = random.Random(seed)
    battery = _pool(probe, [BATTERY_SEED])
    seeded = _pool(probe, [sub_seed(seed, j) for j in range(SEEDED_CORPORA)])
    ops = []
    for prem, concl in _valid_picks(battery, BATTERY_QUOTAS):
        ops.append(("valid", lambda p, a=prem, c=concl: library_search(p, a, c, True)))
    bases = sorted(s for group in seeded.values() for s in group)
    dropped = sorted({(prem[:i] + prem[i + 1:], concl) for prem, concl in bases
                      for i in range(len(prem))})
    swapped = sorted({(prem, other) for (prem, concl), (_, other)
                      in zip(bases, rng.sample(bases, len(bases))) if other != concl})
    for kind, cands in (("dropped", dropped), ("swapped", swapped)):
        rng.shuffle(cands)
        picks = [s for s in cands[:20 * PERTURBED] if one_world_refutes(*s)][:PERTURBED]
        if len(picks) < PERTURBED:
            raise RuntimeError(f"too few refutable {kind} sequents")
        for prem, concl in picks:
            ops.append((kind, lambda p, a=prem, c=concl: library_search(p, a, c, False)))
    for _, prem, concl, mode, bounds, refuted in LANDMARKS:
        ops.append(("landmark", lambda p, a=prem, c=concl, m=mode, b=bounds, r=refuted:
                    cli_search(p, a, c, m, b, r)))
    for t in closed_theorem_corpus():
        ops.append(("theorem", lambda p, c=pretty(t.conclusion):
                    cli_search(p, [], c, "bqlcd", BOUNDS, False)))
    guard = "true -> " * DEEP_GUARD + "p"
    ops.append(("deep_guard", lambda p: cli_search(p, [], guard, "bqlcd_r", BOUNDS, None)))
    rng.shuffle(ops)
    return ops


def warm_up(probe):
    library_search(probe, [], "(p & (p -> q)) -> q", False)
    library_search(probe, ["p -> q"], "p -> q", True)
