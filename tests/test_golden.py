"""Golden differential: countermodel search results and truth-construction
reports must equal the outputs recorded in ``data/golden.json``.

The search part holds refutable perturbations of a seeded proof corpus
(a premise dropped, another proof's conclusion swapped in), a few valid
sequents of the same corpus family, the landmark sequents of
``scripts/search_demo.py`` in their own modes, and hand-picked sequents whose
countermodels need several worlds, function symbols under congruence, or a
skipped function-table cell.  Each case records the model JSON, witness,
``exhausted`` flag and notes.  A battery of seeded random sequents, 15 per
search mode, reaches the "found" path in every mode: each is refutable, but
not by a one-world model with a one-element domain.  Quantified sequents
over two or three variables, some with a unary function, are refuted only
after several frames and constant vectors (their first countermodel has two
or three worlds and two elements), or exhaust the bounds.  The truth part holds
``run_universe`` reports for the universes in ``tests/data``, for guard
towers of heights 2 to 7 at depth budgets h-1 and h+1, for universes with
quantified sentences, which take the jump through its quantifier cases, and
for seeded random quantifier-free universes of 4 to 6 and of 7 to 9
sentences.

The proofs part holds one short digest per proof of the canonical JSON of
every transform output on it, or of the exception raised: ``reduce_proof``,
``nd_to_axiomatic`` of the reduced proof with and without a premise list,
``relative_deduction`` at two depths, ``axiomatic_to_nd`` and
``nd_axiom_proof``.  Its inputs are a seeded ``generate_corpus`` slice,
``closed_theorem_corpus``, the hand-built proofs of ``proofcases.py`` (among
them a stratum-0 chain 20 rounds deep, 20 nested witness eliminations over a
modus ponens, and two proofs that repeat a premise),
``axiomatic_corpus`` with a few eliminations whose subproofs detach, and one
instance of every axiom schema.  Every set is
sorted by ``pretty`` before it becomes an input, so the digests do not depend
on string hash randomisation.

Rewrite the data file only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import random

from bqlcd.bradyfp import make_universe, run_universe, universe_from_json
from bqlcd.kripke import (
    MODES, SearchBounds, countermodel_search, model_from_json, model_to_json,
)
from bqlcd.proofgen import (
    axiomatic_corpus, closed_theorem_corpus, generate_corpus, random_sentence,
)
from bqlcd.proofkernel import (
    assume, canonical_leaf_ids, node, open_assumptions, proof_to_json, split_assumptions, stratum,
)
from bqlcd.syntax import (
    BOTTOM, TOP, And, Atom, Const, Imp, Or, parse_inferring, pretty, subformulas,
)
from bqlcd.transform import (
    TransformError, axiomatic_to_nd, nd_axiom_proof, nd_to_axiomatic, reduce_proof, relative_deduction,
)
from oracle import oracle_sat
from proofcases import (
    AXIOM_INSTANCES, curry_derivation, deep_and_chain, display_one, display_two, f,
    detachment_paired_with_itself, exists_elim_with_side_context, mp_chain, mp_from_leaves,
    nested_stratum_example, nested_witness_chain, or_elim_on_a_repeated_disjunct,
    or_elim_with_side_context,
)
from universes import tower_universe

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden.json")

UNIVERSE_FILES = ("curry_universe.json", "tower_universe.json",
                  "truth_teller_universe.json")
UNIVERSE_BUDGET = 5
TOWER_HEIGHTS = range(2, 8)
# (sentences, domain size); codes follow the list order
QUANTIFIED = [
    (["true", "false", "exists x. (T(x) -> false)", "forall x. T(x)",
      "(forall x. T(x)) -> false"], 5),
    (["true", "false", "T(q0)", "exists x. T(x)",
      "forall x. (T(x) | (T(x) -> false))"], 6),
    (["true", "false", "forall x. exists y. (T(x) -> T(y))",
      "exists x. forall y. (T(y) -> T(x))"], 4),
    (["true", "false", "T(q3)", "forall x. (T(x) -> T(q2))", "T(q2)"], 5),
]
RANDOM_UNIVERSES = 6
LARGE_RANDOM_UNIVERSES = 4

LANDMARKS = [
    ([], "(p & (p -> q)) -> q", "bqlcd_r", (2, 1)),
    (["p & (p -> q)"], "q", "bqlcd_r", (3, 2)),
    ([], "p -> (q -> p)", "bqlcd_r", (3, 2)),
    ([], "(p -> q) & (q -> r) -> (p -> r)", "bqlcd_r", (3, 2)),
    ([], "(forall x. p | P(x)) -> p | (forall x. P(x))", "bqlcd_r", (3, 2)),
    ([], "c = d | (c = d -> false)", "strict", (3, 2)),
    ([], "c = d | (c = d -> false)", "congruence", (2, 2)),
]

EXTRA = [
    ([], "p | (p -> false)", "bqlcd_r", (3, 2)),
    ([], "((p -> q) -> p) -> p", "bqlcd_r", (3, 2)),
    ([], "(p -> q) | (q -> p)", "bqlcd_r", (3, 2)),
    ([], "(p & (p -> q)) -> q", "bqlcd", (3, 2)),
    (["p", "p -> q"], "q", "bqlcd", (3, 2)),
    ([], "p -> p", "bqlcd", (3, 2)),
    ([], "c = d -> f(c) = f(d)", "congruence", (2, 2)),
    ([], "f(c) = f(d) | (f(c) = f(d) -> false)", "congruence", (2, 2)),
    (["c = d", "P(c)"], "P(d)", "congruence", (2, 2)),
    ([], "P(f(c)) | (P(f(c)) -> false)", "congruence", (2, 2)),
    ([], "R(c, d) -> R(d, c)", "congruence", (2, 2)),
    ([], "c = d", "strict", (2, 2)),
    ([], "(exists x. P(x)) -> P(c)", "bqlcd_r", (2, 2)),
    ([], "P(f(c, c, c, c)) -> P(c)", "bqlcd_r", (1, 2)),
]

QUANTIFIED_SEARCH = [
    # refuted: the first countermodel has two or three worlds and two elements
    ([], "exists x. (P(x) -> forall y. P(y))", "bqlcd_r", (3, 2)),
    ([], "exists x. ((exists y. P(y)) -> P(x))", "bqlcd", (3, 2)),
    ([], "((forall x. P(x)) -> q) -> exists x. (P(x) -> q)", "strict", (3, 2)),
    ([], "forall x. exists y. (R(x, y) -> forall z. R(x, z))", "congruence", (3, 2)),
    ([], "forall x. exists y. (R(x, y) -> forall z. R(x, z))", "bqlcd", (3, 2)),
    ([], "(forall x. exists y. R(x, y)) -> "
         "exists y. forall x. (R(x, y) | (R(x, y) -> false))", "bqlcd_r", (3, 2)),
    ([], "(forall x. exists y. R(x, y)) -> "
         "exists y. forall x. (R(x, y) | (R(x, y) -> false))", "congruence", (3, 2)),
    ([], "((forall x. P(f(x))) -> q) -> exists x. (P(f(x)) -> q)", "congruence", (3, 2)),
    ([], "((forall x. P(f(x))) -> q) -> exists x. (P(f(x)) -> q)", "bqlcd", (3, 2)),
    (["forall x. forall y. (R(x, y) -> R(y, x))"],
     "forall x. exists y. (R(x, y) -> R(f(y), x))", "strict", (3, 2)),
    (["forall x. forall y. (R(x, y) -> R(y, x))"],
     "forall x. exists y. (R(x, y) -> R(f(y), x))", "bqlcd_r", (3, 2)),
    # not refuted within (3, 2)
    (["exists x. forall y. R(x, y)"], "forall y. exists x. R(x, y)", "bqlcd", (3, 2)),
    (["forall x. exists y. R(x, y)"], "exists y. (R(c, y) | (R(c, y) -> false))",
     "strict", (3, 2)),
    (["exists x. exists y. ((P(x) -> false) & P(y))"],
     "forall x. (P(f(x)) | (P(f(x)) -> false))", "bqlcd", (3, 2)),
    ([], "(forall x. (P(x) | q)) -> (forall x. P(x)) | q", "bqlcd_r", (3, 2)),
    (["forall x. (P(x) -> P(f(x)))", "P(c)"], "P(f(f(c)))", "congruence", (3, 2)),
]


def parse_sequent(premises, conclusion):
    sig = None
    gamma = []
    for text in premises:
        phi, sig = parse_inferring(text, sig)
        gamma.append(phi)
    return gamma, parse_inferring(conclusion, sig)[0]


def search_record(premises, conclusion, mode, bounds):
    gamma, phi = parse_sequent(premises, conclusion)
    res = countermodel_search(gamma, phi, SearchBounds(*bounds), mode)
    return {"premises": list(premises), "conclusion": conclusion, "mode": mode,
            "bounds": list(bounds),
            "model": model_to_json(res.model) if res.found else None,
            "witness": res.witness, "exhausted": res.exhausted,
            "notes": list(res.notes)}


def truth_record(name, universe, budget):
    report = json.loads(json.dumps(run_universe(universe, budget)))
    return {"name": name, "budget": budget, "report": report}


def _random_root(rng, k, depth):
    """A quantifier-free sentence over T-atoms quoting the codes 0..k-1."""
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.7:
            return Atom("T", (Const(f"q{rng.randrange(k)}"),))
        return TOP if r < 0.85 else BOTTOM
    op = rng.choice([Imp, Imp, And, Or])
    return op(_random_root(rng, k, depth - 1), _random_root(rng, k, depth - 1))


def random_universes(n, sizes=range(4, 7), depths=(1, 2, 2), seed=500):
    """Seeded self-referential universes with a number of sentences in
    ``sizes``: k roots of a depth drawn from ``depths`` take the codes
    0..k-1 and quote each other; their subformulas follow."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        k = rng.choice([1, 2, 2, 3])
        roots = [_random_root(rng, k, rng.choice(depths)) for _ in range(k)]
        if len(set(roots)) < k:
            continue
        subs = {sub for r in roots for sub in subformulas(r)} - set(roots)
        if not any(isinstance(f, Atom) for f in subs):
            continue
        texts = [pretty(r) for r in roots] + sorted(pretty(f) for f in subs)
        if len(texts) in sizes:
            out.append(make_universe(texts, {t: i for i, t in enumerate(texts)},
                                     len(texts)))
    return out


def truth_cases():
    cases = []
    for name in UNIVERSE_FILES:
        with open(os.path.join(DATA, name)) as fh:
            cases.append((name, universe_from_json(json.load(fh)), UNIVERSE_BUDGET))
    for h in TOWER_HEIGHTS:
        for budget in (h - 1, h + 1):
            cases.append((f"tower {h}", tower_universe(h), budget))
    for i, (texts, domain) in enumerate(QUANTIFIED):
        u = make_universe(texts, {t: j for j, t in enumerate(texts)}, domain)
        cases.append((f"quantified {i}", u, UNIVERSE_BUDGET))
    for i, u in enumerate(random_universes(RANDOM_UNIVERSES)):
        cases.append((f"random {i}", u, UNIVERSE_BUDGET))
    large = random_universes(LARGE_RANDOM_UNIVERSES, range(7, 10), (2, 3), seed=501)
    for i, u in enumerate(large):
        cases.append((f"large random {i}", u, UNIVERSE_BUDGET))
    return cases


def _corpus_sequents(seed, size):
    from bqlcd.proofgen import generate_corpus
    from bqlcd.proofkernel import open_assumptions
    from bqlcd.syntax import pretty
    out = []
    for t in generate_corpus(seed=seed, size=size):
        opens = open_assumptions(t)
        if len(opens) <= 3:
            out.append((tuple(sorted(pretty(a) for a in opens)), pretty(t.conclusion)))
    return sorted(set(out))


def random_cases(per_mode=15):
    """Refutable sequents of depth-3 random sentences, searched at (2, 2) or
    (3, 1), whose countermodel needs two worlds or two elements."""
    cases = []
    for i, mode in enumerate(MODES):
        rng = random.Random(300 + i)
        picked = 0
        while picked < per_mode:
            prem = [pretty(random_sentence(rng, 3)) for _ in range(rng.randrange(3))]
            concl = pretty(random_sentence(rng, 3))
            bounds = rng.choice([(2, 2), (3, 1)])
            if search_record(prem, concl, mode, (1, 1))["model"] is None and \
                    search_record(prem, concl, mode, bounds)["model"] is not None:
                cases.append((prem, concl, mode, bounds))
                picked += 1
    return cases


def search_cases():
    """Inputs of the search part; only used to write the data file."""
    rng = random.Random(11)
    seqs = _corpus_sequents(11, 60)
    dropped = sorted({(p[:i] + p[i + 1:], c) for p, c in seqs for i in range(len(p))})
    swapped = sorted({(p, o) for (p, c), (_, o) in zip(seqs, rng.sample(seqs, len(seqs)))
                      if o != c})
    cases = []
    for cands in (dropped, swapped):
        rng.shuffle(cands)
        picked = 0
        for prem, concl in cands:
            if picked == 8:
                break
            if search_record(prem, concl, "bqlcd_r", (1, 2))["model"] is not None:
                cases.append((list(prem), concl, "bqlcd_r", (3, 2)))
                picked += 1
    valid = sorted(_corpus_sequents(0, 200),
                   key=lambda s: (len(s[0]), sum(map(len, s[0])) + len(s[1]), s))
    cases += [(list(p), c, "bqlcd_r", (3, 2)) for p, c in valid[:4]]
    return cases + LANDMARKS + EXTRA + random_cases() + QUANTIFIED_SEARCH


PROOF_CORPUS = (3, 40)           # generate_corpus seed and size
HAND_PROOFS = {
    "curry": curry_derivation, "display one": display_one,
    "display two": display_two, "nested stratum": nested_stratum_example,
    "mp from leaves": mp_from_leaves, "and chain": lambda: deep_and_chain(3),
    "or elim with side context": or_elim_with_side_context,
    "exists elim with side context": exists_elim_with_side_context,
    "mp chain": lambda: mp_chain(20),
    "detachment paired with itself": detachment_paired_with_itself,
    "or elim on a repeated disjunct": or_elim_on_a_repeated_disjunct,
    "nested witness chain": lambda: nested_witness_chain(20),
}


def _error(exc):
    return [type(exc).__name__, str(exc)]


def _outcome(fn, *args):
    """The JSON of the proof ``fn(*args)`` with canonical leaf ids, or the
    exception it raised."""
    try:
        return proof_to_json(canonical_leaf_ids(fn(*args)))
    except TransformError as exc:
        return _error(exc)


def _nd_outputs(t):
    """Reduction, the axiomatic compilation of the reduced proof, and relative
    deduction with the unsafe open assumptions on the left and the rest on
    the side."""
    try:
        red = reduce_proof(t)
    except TransformError as exc:
        out = [_error(exc)]
    else:
        opens = sorted(open_assumptions(red.proof), key=pretty)
        out = [red.n, red.source_stratum, proof_to_json(red.proof),
               _outcome(nd_to_axiomatic, red.proof),
               _outcome(nd_to_axiomatic, red.proof, opens)]
    unsafe, safe = (sorted(a, key=pretty) for a in split_assumptions(t))
    n = max(stratum(t), 0)
    return out + [_outcome(relative_deduction, t, unsafe, safe, k) for k in (n, n + 1)]


def hand_axiomatic():
    """Axiomatic eliminations whose subproofs detach, so the translation
    reduces, pads and unguards them, and one whose witness is unused."""
    guarded = node("imp_elim", f("r"), [assume(f("p"), "a"), assume(f("p -> r"), "g")])
    or_case = node("or_elim", f("r"), [assume(f("p | q"), "m"), guarded,
                                       assume(f("r"), "b")], {"a"})
    witnessed = node("exists_int", f("exists y. P(y)"), [assume(f("P(#0)"), "w")])
    body = node("imp_elim", f("q"), [witnessed, assume(f("(exists y. P(y)) -> q"), "g")])
    ex_case = node("exists_elim", f("q"), [assume(f("exists x. P(x)"), "m"), body], {"w"})
    unused = node("exists_elim", f("q"), [assume(f("exists x. P(x)"), "m"),
                                          assume(f("q"), "b")])
    return [or_case, ex_case, unused]


def proofs_cases():
    """(name, function, arguments) for every input of the proofs part."""
    corpus = generate_corpus(*PROOF_CORPUS)
    cases = [(f"corpus {i}", _nd_outputs, (t,)) for i, t in enumerate(corpus)]
    cases += [(f"theorem {i}", _nd_outputs, (t,))
              for i, t in enumerate(closed_theorem_corpus())]
    cases += [(name, _nd_outputs, (make(),)) for name, make in HAND_PROOFS.items()]
    cases += [(f"axiomatic {i}", _outcome, (axiomatic_to_nd, t))
              for i, t in enumerate(axiomatic_corpus() + hand_axiomatic())]
    cases += [(f"schema {schema}", _outcome, (nd_axiom_proof, schema, f(text)))
              for schema, text in AXIOM_INSTANCES]
    return cases


def proofs_record(name, fn, args):
    text = json.dumps(fn(*args), sort_keys=True)
    return {"name": name, "digest": hashlib.sha256(text.encode()).hexdigest()[:16]}


def test_golden_differential():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    for case in golden["search"]:
        got = search_record(case["premises"], case["conclusion"], case["mode"],
                            tuple(case["bounds"]))
        assert got == case
    universes = {(name, budget): u for name, u, budget in truth_cases()}
    for case in golden["truth"]:
        key = (case["name"], case["budget"])
        assert truth_record(*key[:1], universes[key], key[1]) == case
    assert [proofs_record(*c) for c in proofs_cases()] == golden["proofs"]


def test_golden_countermodels_pass_the_oracle():
    # every recorded countermodel, re-checked by the naive evaluator: the
    # premises hold at the witness and the conclusion does not
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    refuted = [case for case in golden["search"] if case["model"] is not None]
    for case in refuted:
        gamma, phi = parse_sequent(case["premises"], case["conclusion"])
        model, w = model_from_json(case["model"]), case["witness"]
        assert all(oracle_sat(model, w, g) for g in gamma), case["conclusion"]
        assert not oracle_sat(model, w, phi), case["conclusion"]
    assert len(refuted) >= 99


if __name__ == "__main__":
    golden = {"search": [search_record(*c) for c in search_cases()],
              "truth": [truth_record(*c) for c in truth_cases()],
              "proofs": [proofs_record(*c) for c in proofs_cases()]}
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
