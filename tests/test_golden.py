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
towers of heights 2 to 7 at depth budgets h-1 and h+1, for the tower of
height 15 at budget 0 (17 codes, one world, past ``bradyfp._LATTICE_CODES``),
for universes with quantified sentences, which take the jump through its
quantifier cases, and for seeded random quantifier-free universes of 4 to 6
and of 7 to 9 sentences.

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

The checks part holds one digest per proof and system of its check report:
the violations as (node, constraint, message) in order, the stratum, and the
open, unsafe and safe assumption sets sorted by ``pretty``.  Its proofs are
the inputs of the proofs part with their reduced, unboxed and translated
outputs, leaf ids made canonical; one axiom node per schema; one proof
breaking each of C2-C5; a few identity and affixing steps; and seeded
mutants of those inputs' JSON: a fresh atom or an open formula put for one
label, a discharge dropped or added, a rule renamed, a premise dropped or
repeated.  Each is checked in the six systems of ``CHECK_SYSTEMS``.

Rewrite the data file only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import copy
import functools
import hashlib
import json
import os
import random

from bqlcd import bradyfp
from bqlcd.bradyfp import (
    add_loop_and_verify, chain_model, detect_convergence, extend_chain, initial_chain,
    make_universe, run_universe, satisfaction_record, tb_instance, universe_from_json,
    verify_monotonicity,
)
from bqlcd.kripke import (
    MODES, SearchBounds, countermodel_search, model_from_json, model_to_json, satisfies,
)
from bqlcd.proofgen import (
    axiomatic_corpus, closed_theorem_corpus, generate_corpus, random_sentence,
)
from bqlcd.proofkernel import (
    AX_RULES, IDENTITY_RULES, ND_RULES, Proof, ProofJsonError, assume,
    analyze, canonical_leaf_ids, check_analysis, fold, node, open_assumptions, proof_from_json,
    proof_size, proof_to_json, split_assumptions, stratum,
)
from bqlcd.syntax import (
    BOTTOM, TOP, And, Atom, Const, Imp, Or, Var, parse_inferring, pretty, subformulas,
)
from bqlcd.transform import (
    TransformError, axiomatic_to_nd, nd_axiom_proof, nd_to_axiomatic, reduce_proof,
    relative_deduction, unbox,
)
from oracle import oracle_sat
from proofcases import (
    AXIOM_INSTANCES, CONSTRAINT_CASES, curry_derivation, deep_and_chain, display_one,
    display_two, f, detachment_paired_with_itself, exists_elim_with_side_context, mp_chain,
    mp_from_leaves, nested_stratum_example, nested_witness_chain,
    or_elim_on_a_repeated_disjunct, or_elim_with_side_context,
)
from universes import tower_universe

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden.json")

UNIVERSE_FILES = ("curry_universe.json", "tower_universe.json",
                  "truth_teller_universe.json")
UNIVERSE_BUDGET = 5
TOWER_HEIGHTS = range(2, 8)
# one world of a tower with more codes than the lattice check takes
POOL_TOWER = 15
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
    cases.append((f"tower {POOL_TOWER}", tower_universe(POOL_TOWER), 0))
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


def _once(fn):
    """``fn`` run once per argument tuple in a session, so that the proofs
    and checks parts share its outputs; a TransformError it raised is
    raised again at each call."""
    @functools.cache
    def run(*args):
        try:
            return fn(*args), None
        except TransformError as exc:
            return None, exc

    def call(*args):
        got, exc = run(*args)
        if exc is not None:
            raise exc
        return got
    return call


reduce_once, translate_once, to_nd_once, axiom_proof_once = map(
    _once, (reduce_proof, nd_to_axiomatic, axiomatic_to_nd, nd_axiom_proof))


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
        red = reduce_once(t)
    except TransformError as exc:
        out = [_error(exc)]
    else:
        opens = sorted(open_assumptions(red.proof), key=pretty)
        out = [red.n, red.source_stratum, proof_to_json(red.proof),
               _outcome(translate_once, red.proof),
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


@functools.cache
def proof_inputs():
    """(name, proof) for the natural-deduction inputs of the proofs part,
    and apart for its axiomatic ones, built once per session."""
    nd = [(f"corpus {i}", t) for i, t in enumerate(generate_corpus(*PROOF_CORPUS))]
    nd += [(f"theorem {i}", t) for i, t in enumerate(closed_theorem_corpus())]
    nd += [(name, make()) for name, make in HAND_PROOFS.items()]
    ax = [(f"axiomatic {i}", t) for i, t in enumerate(axiomatic_corpus() + hand_axiomatic())]
    return nd, ax


def proofs_cases():
    """(name, function, arguments) for every input of the proofs part."""
    nd, ax = proof_inputs()
    cases = [(name, _nd_outputs, (t,)) for name, t in nd]
    cases += [(name, _outcome, (to_nd_once, t)) for name, t in ax]
    cases += [(f"schema {schema}", _outcome, (axiom_proof_once, schema, f(text)))
              for schema, text in AXIOM_INSTANCES]
    return cases


def _digest(data):
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def proofs_record(name, fn, args):
    return {"name": name, "digest": _digest(fn(*args))}


CHECK_SYSTEMS = ("nbqlcd_r", "nbqlcd", "nbqlcd[0]", "nbqlcd_r+eq", "bd+", "tjk+")


def _step(rule, concl, *premises, discharges=()):
    """One ``rule`` step; a premise given as text is an assumption leaf."""
    return node(rule, f(concl), [assume(f(p), f"h{i}") if isinstance(p, str) else p
                                 for i, p in enumerate(premises)], discharges)


# single steps of the rules, and for the messages, that no other unmutated
# proof of the checks part reaches
SHAPE_CASES = {
    "eq_int": lambda: _step("eq_int", "c = c"),
    "eq_elim": lambda: _step("eq_elim", "R(c, d)", "c = d", "R(c, c)"),
    "eq_elim replacing a stranger": lambda: _step("eq_elim", "R(d, q0)", "c = d", "R(c, c)"),
    "eq_elim from a non-identity": lambda: _step("eq_elim", "P(d)", "q", "P(c)"),
    "id_xm": lambda: _step("id_xm", "c = d | (c = d -> false)"),
    "affixing": lambda: _step("affixing", "(q -> r) -> (p -> s)", "p -> q", "r -> s"),
    "vacuous forall_int": lambda: _step("forall_int", "forall x. p", "q"),
    "forall_int from a mismatched instance":
        lambda: _step("forall_int", "forall x. R(x, x)", "R(#0, #1)"),
    "exists_elim on a constant instance": lambda: _step(
        "exists_elim", "exists y. P(y)", "exists x. P(x)",
        node("exists_int", f("exists y. P(y)"), [assume(f("P(c)"), "w")]), discharges={"w"}),
    "exists_elim discharging two instances": lambda: _step(
        "exists_elim", "P(#0) & P(#1)", "exists x. P(x)",
        node("and_int", f("P(#0) & P(#1)"), [assume(f("P(#0)"), "w0"), assume(f("P(#1)"), "w1")]),
        discharges={"w0", "w1"}),
    "assumption with a premise":
        lambda: Proof("assume", f("p"), (_step("top_int", "true"),), leaf_id="h"),
}

MUTATIONS = ("fresh atom", "open formula", "dropped discharge", "extra discharge",
             "renamed rule", "premise count")
MUTANT_BASE_SIZE = 30     # the mutants change unmutated proofs of at most 30 nodes
UNAIMED_MUTANTS = 6       # mutants of a kind that aims at no rule
RENAMES = (sorted(ND_RULES | IDENTITY_RULES | AX_RULES)
           + ["no_such_rule", "axiom:identity", "axiom:weakening", "axiom:no_such_schema"])
# an atom the mutants put for a label, then read back as an open formula
OPEN_MARK = "zopen"


def check_inputs():
    """(name, proof) for every unmutated proof of the checks part, among
    them the translations of the two long chains, of about 2,400 and 3,100
    nodes, whose many violations have deep names."""
    nd, ax = proof_inputs()
    out = []
    for name, t in nd:
        out.append((name, t))
        try:
            red = reduce_once(t)
        except TransformError:
            continue
        out += [(f"{name} reduced", red.proof), (f"{name} unboxed", unbox(red.proof, red.n)),
                (f"{name} translated", translate_once(red.proof))]
    for name, t in ax:
        out += [(name, t), (f"{name} translated", to_nd_once(t))]
    for schema, text in AXIOM_INSTANCES:
        out += [(f"schema {schema}", node(f"axiom:{schema}", f(text))),
                (f"schema {schema} translated", axiom_proof_once(schema, f(text)))]
    out += [(name, make()) for cases in (CONSTRAINT_CASES, SHAPE_CASES)
            for name, make in cases.items()]
    return [(name, canonical_leaf_ids(t)) for name, t in out]


def _places(data):
    """(node, its place under the node above it) for the nodes of a proof's
    JSON in pre-order."""
    out, stack = [], [(data, "the root")]
    while stack:
        d, place = stack.pop()
        out.append((d, place))
        stack += [(c, f"premise {i} of {d['rule']}")
                  for i, c in reversed(list(enumerate(d.get("children", []))))]
    return out


def _aims(kind, d, place):
    """What a mutation of ``kind`` at the node ``d`` aims at: a rule it
    breaks or puts in, a premise place, or ``any``."""
    rule = d.get("rule", "assume").split(":")[0]
    if kind == "fresh atom":
        return [rule, place]
    if kind == "open formula":
        return ["any"]
    if kind == "dropped discharge":
        return ["any"] if d.get("discharges") else []
    if "rule" not in d:
        return []
    if kind == "renamed rule":
        return [r for r in RENAMES if not (r.startswith("axiom:") and d.get("children"))]
    return [rule]


def _mutate(kind, aim, d, data, rng):
    """Mutate the node ``d`` of the JSON ``data`` in place."""
    if kind in ("fresh atom", "open formula"):
        d["assume" if "assume" in d else "conclusion"] = \
            "fresh" if kind == "fresh atom" else OPEN_MARK
    elif kind == "dropped discharge":
        d["discharges"].pop(rng.randrange(len(d["discharges"])))
    elif kind == "extra discharge":
        ids = [x["id"] for x, _ in _places(data) if "assume" in x] + ["nowhere"]
        d["discharges"] = sorted({*d.get("discharges", ()), rng.choice(ids)})
    elif kind == "renamed rule":
        d["rule"] = aim
    else:
        kids = d.setdefault("children", [])
        if kids and rng.random() < 0.5:
            kids.pop(rng.randrange(len(kids)))
        else:
            kids.append(copy.deepcopy(rng.choice(kids)) if kids else {"assume": "p", "id": "x"})


def _opened(t):
    """``t`` with each ``OPEN_MARK`` label replaced by an open formula."""
    mark, phi = Atom(OPEN_MARK, ()), Atom("P", (Var("x"),))
    return fold(t, lambda nd, kids: Proof(
        nd.rule, phi if nd.conclusion == mark else nd.conclusion, tuple(kids),
        nd.discharges, nd.leaf_id))


def check_mutants(inputs):
    """(name, proof or loader error) for seeded mutants of the JSON of the
    small unmutated proofs: of each kind, one at a seeded node for each
    rule it aims at, or ``UNAIMED_MUTANTS`` at seeded nodes."""
    rng = random.Random(27)
    bases = [(name, proof_to_json(t)) for name, t in inputs
             if proof_size(t) <= MUTANT_BASE_SIZE]
    places = [_places(data) for _, data in bases]
    texts = [json.dumps(data) for _, data in bases]
    out = []
    for kind in MUTATIONS:
        sites = {}
        for b, base_places in enumerate(places):
            for n, (d, place) in enumerate(base_places):
                for aim in _aims(kind, d, place):
                    sites.setdefault(aim, []).append((b, n))
        for aim in sorted(sites):
            picks = sites[aim]
            picks = (rng.sample(picks, min(UNAIMED_MUTANTS, len(picks))) if aim == "any"
                     else [rng.choice(picks)])
            for b, n in picks:
                name, data = bases[b][0], json.loads(texts[b])
                _mutate(kind, aim, _places(data)[n][0], data, rng)
                try:
                    got = _opened(proof_from_json(data))
                except ProofJsonError as exc:
                    got = _error(exc)
                out.append((f"{kind} ({aim}) at node {n} of {name}", got))
    return out


def report_data(an, system):
    report = check_analysis(an, system)
    return [[[v.node, v.constraint, v.message] for v in report.violations], report.stratum,
            *(sorted(map(pretty, s)) for s in
              (report.open_assumptions, report.unsafe_open, report.safe_open))]


def check_record(name, t):
    """The digest of the loader error, or of the report in each system."""
    if isinstance(t, list):
        return {"name": name, "digests": [_digest(t)]}
    an = analyze(t)
    digests = [_digest(report_data(an, system)) for system in CHECK_SYSTEMS]
    return {"name": name, "digests": digests}


def check_cases():
    inputs = check_inputs()
    return inputs + check_mutants(inputs)


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


def test_truth_reports_do_not_depend_on_the_lattice_bound(monkeypatch):
    # with the lattice check bounded at two codes, every universe under the
    # real bound runs its chain, monotonicity checks and loop the way the
    # ones past it do, and must report what the golden file recorded
    with open(GOLDEN) as fh:
        want = {(c["name"], c["budget"]): c for c in json.load(fh)["truth"]}
    cases = [c for c in truth_cases() if len(c[1].code) <= bradyfp._LATTICE_CODES]
    monkeypatch.setattr(bradyfp, "_LATTICE_CODES", 2)
    for name, u, budget in cases:
        assert truth_record(name, u, budget) == want[name, budget], (name, budget)


def test_traces_agree_with_the_standalone_functions():
    # each world's trace keeps the record and the monotonicity verdict its
    # jump's pass showed; both functions compute theirs afresh
    for name, u, budget in truth_cases():
        state, _ = detect_convergence(initial_chain(u), budget)
        for a, tr in enumerate(state.traces):
            assert tr.record == satisfaction_record(state, a), (name, budget, a)
            # None past the lattice bound, where only the pool check runs
            if tr.monotone is not None:
                assert tr.monotone == verify_monotonicity(state, a), (name, budget, a)


def test_tarski_check_agrees_with_the_formula_path():
    # at every loop point of a 5-deep chain, the biconditionals the loop
    # check reports failing are exactly those ``satisfies`` finds false when
    # it evaluates ``tb_instance`` on the looped chain model
    failing = {}
    for name, u, _ in truth_cases():
        if name in failing:
            continue
        state = initial_chain(u)
        for _ in range(5):
            state = extend_chain(state)
        failing[name] = []
        for theta in range(state.depth + 1):
            report = add_loop_and_verify(state, theta)
            got = [s for f_ in report["failures"]
                   if f_["check"] == "tarski_biconditionals" for s in f_["sentences"]]
            model = chain_model(u, state.t_ext[:theta + 1], loop=True)
            want = [pretty(phi) for phi in u.sentences
                    if not satisfies(model, f"w{theta}", tb_instance(u, phi))]
            assert got == want, (name, theta)
            failing[name].append(bool(want))
    # both verdicts are reached: the tower fails above its height, Curry
    # holds once the conditional has dropped out
    assert failing["tower_universe.json"] == [True] * 5 + [False]
    assert failing["curry_universe.json"] == [True] + [False] * 5


def test_golden_check_reports():
    with open(GOLDEN) as fh:
        want = json.load(fh)["checks"]
    got = [check_record(*c) for c in check_cases()]
    assert [c["name"] for c in got] == [c["name"] for c in want]
    for g, w in zip(got, want):
        assert g == w, g["name"]


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
              "proofs": [proofs_record(*c) for c in proofs_cases()],
              "checks": [check_record(*c) for c in check_cases()]}
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
