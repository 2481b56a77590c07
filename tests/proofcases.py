"""Shared proof fixtures: the Curry derivation and the displayed examples."""

from bqlcd.proofkernel import Proof, assume, node
from bqlcd.syntax import And, Atom, Const, Imp, Or, BOTTOM, TOP, parse_inferring


def f(text):
    return parse_inferring(text)[0]


def fo(text, names=("x", "y", "z")):
    """Parse an open formula; the listed names read as free variables."""
    return parse_inferring(text, free_vars=names)[0]


TC = f("T(c)")
CURRY_NEG = Imp(TC, BOTTOM)
TB_FWD = Imp(TC, Imp(TC, BOTTOM))      # truth of the code implies the sentence
TB_BWD = Imp(Imp(TC, BOTTOM), TC)


def curry_half(tag):
    """Conditional proof of T(c) -> false from the forward biconditional half.

    Discharges both occurrences of T(c); the starred one sits in the right
    subtree of the outer modus ponens, so the discharge breaks C5.
    """
    star = assume(TC, f"star{tag}")
    tb1 = assume(TB_FWD, f"tb_fwd{tag}")
    inner = node("imp_elim", CURRY_NEG, [star, tb1])
    plain = assume(TC, f"plain{tag}")
    outer = node("imp_elim", BOTTOM, [plain, inner])
    return node("imp_int", CURRY_NEG, [outer], {f"star{tag}", f"plain{tag}"})


def curry_derivation():
    """The full closed-off derivation of falsity from the two halves."""
    half_a = curry_half("_a")
    tb2 = assume(TB_BWD, "tb_bwd")
    tc_proof = node("imp_elim", TC, [half_a, tb2])
    half_b = curry_half("_b")
    return node("imp_elim", BOTTOM, [tc_proof, half_b])


def display_one():
    """beta -> gamma inferred from alpha and alpha -> (beta -> gamma)."""
    alpha, beta, gamma = f("alpha"), f("beta"), f("gamma")
    l1 = assume(alpha, "l1")
    l2 = assume(Imp(alpha, Imp(beta, gamma)), "l2")
    return node("imp_elim", Imp(beta, gamma), [l1, l2])


def display_two():
    """delta via a chained conditional inside the right premise."""
    alpha, beta, gamma, delta = f("alpha"), f("beta"), f("gamma"), f("delta")
    bg = Imp(beta, gamma)
    l1 = assume(alpha, "l1")
    l2 = assume(Imp(alpha, bg), "l2")
    l3 = assume(Imp(bg, delta), "l3")
    chained = node("int_trans", Imp(alpha, delta), [l2, l3])
    return node("imp_elim", delta, [l1, chained])


def nested_stratum_example():
    """Stratum-1 proof: an inner modus ponens feeds the right premise of a
    second one, whose result feeds the left premise of a third."""
    psi, chi, alpha = f("p"), f("q"), f("r")
    top_leaf = node("top_int", TOP)
    guard = assume(Imp(TOP, Imp(psi, chi)), "g")
    d2 = node("imp_elim", Imp(psi, chi), [top_leaf, guard])
    psi_leaf = assume(psi, "h1")
    d1 = node("imp_elim", chi, [psi_leaf, d2])
    out_leaf = assume(Imp(chi, alpha), "h2")
    return node("imp_elim", alpha, [d1, out_leaf])


def mp_from_leaves():
    p, q = f("p"), f("q")
    return node("imp_elim", q, [assume(p, "m1"), assume(Imp(p, q), "m2")])


def or_elim_with_side_context():
    """Stratum-0 case analysis with detachments in both branches; the
    disjunct occurrences sit in minor position, hence stay safe and
    dischargeable."""
    p, q, r = f("p"), f("q"), f("r")
    maj = assume(Or(p, q), "mj")
    mp1 = node("imp_elim", r, [assume(p, "dl"), assume(Imp(p, r), "g1")])
    mp2 = node("imp_elim", r, [assume(q, "dr"), assume(Imp(q, r), "g2")])
    return node("or_elim", r, [maj, mp1, mp2], {"dl", "dr"})


def exists_elim_with_side_context():
    """Stratum-0 witness elimination whose body also uses assumptions other
    than the witness, one of them under a detachment."""
    maj = assume(f("exists x. P(x)"), "e")
    wit = assume(f("P(#5)"), "w")
    mp = node("imp_elim", f("q"), [assume(f("s"), "m"), assume(f("s -> q"), "g")])
    side = node("and_int", f("r & q"), [assume(f("r"), "sr"), mp])
    pair = node("and_int", f("P(#5) & (r & q)"), [wit, side])
    body = node("exists_int", f("exists y. P(y) & (r & q)"), [pair])
    return node("exists_elim", f("exists y. P(y) & (r & q)"), [maj, body], {"w"})


# one instance of every axiom schema
AXIOM_INSTANCES = [
    ("identity", "p -> p"),
    ("imp_top", "q -> true"),
    ("ex_falso", "false -> r"),
    ("and_comp", "(r -> p) & (r -> q) -> (r -> p & q)"),
    ("and_elim_l", "p & q -> p"),
    ("and_elim_r", "p & q -> q"),
    ("or_int_l", "p -> p | q"),
    ("or_int_r", "q -> p | q"),
    ("or_comp", "(p -> r) & (q -> r) -> (p | q -> r)"),
    ("distribution", "p & (q | r) -> (p & q) | (p & r)"),
    ("forall_imp", "(forall x. p -> P(x)) -> (p -> forall x. P(x))"),
    ("forall_inst", "(forall x. P(x)) -> P(c)"),
    ("exists_int", "P(c) -> (exists x. P(x))"),
    ("exists_imp", "(forall x. P(x) -> p) -> ((exists x. P(x)) -> p)"),
    ("cd", "(forall x. p | P(x)) -> p | (forall x. P(x))"),
    ("inf_distribution", "p & (exists x. P(x)) -> (exists x. p & P(x))"),
    ("transitivity", "(p -> q) & (q -> r) -> (p -> r)"),
    ("suffixing", "(p -> q) -> ((q -> r) -> (p -> r))"),
    ("prefixing", "(p -> q) -> ((r -> p) -> (r -> q))"),
    ("weakening", "p -> (q -> p)"),
]


def deep_and_chain(rounds):
    """``p`` carried through ``rounds`` conjunctions with a fresh ``q`` leaf,
    each taken apart again: 3 * rounds + 1 nodes, 2 * rounds deep, with
    conclusions no deeper than ``p & q``."""
    p, q = f("p"), f("q")
    t = assume(p, "p")
    for i in range(rounds):
        t = node("and_elim_l", p, [node("and_int", And(p, q), [t, assume(q, f"q{i}")])])
    return t


def mp_chain(rounds):
    """A modus ponens carried through ``rounds`` conjunctions with a fresh
    ``r`` leaf, each taken apart again: a stratum-0 proof of ``q`` with
    3 * rounds + 3 nodes."""
    p, q, r = f("p"), f("q"), f("r")
    t = node("imp_elim", q, [assume(p, "m1"), assume(Imp(p, q), "m2")])
    for i in range(rounds):
        t = node("and_elim_l", q, [node("and_int", And(q, r), [t, assume(r, f"r{i}")])])
    return t


def detachment_paired_with_itself():
    """``p & p`` from two detachments of ``p``: both conjuncts repeat one
    premise."""
    p, q = f("p"), f("q")
    halves = [node("imp_elim", p, [assume(q, f"m{i}"), assume(Imp(q, p), f"g{i}")])
              for i in (1, 2)]
    return node("and_int", And(p, p), halves)


def or_elim_on_a_repeated_disjunct():
    """Case analysis on ``p | p`` with a detachment in each branch."""
    p, r = f("p"), f("r")
    maj = assume(Or(p, p), "mj")
    mp1 = node("imp_elim", r, [assume(p, "dl"), assume(Imp(p, r), "g1")])
    mp2 = node("imp_elim", r, [assume(p, "dr"), assume(Imp(p, r), "g2")])
    return node("or_elim", r, [maj, mp1, mp2], {"dl", "dr"})


def nested_witness_chain(depth):
    """``depth`` nested witness eliminations over a modus ponens: each body
    pairs its witness ``P(#0)`` with the next level and takes the pair apart
    again.  A stratum-0 proof of ``q`` with 5 * depth + 3 nodes."""
    p, q, wit_formula = f("p"), f("q"), f("P(#0)")
    t = node("imp_elim", q, [assume(p, "m1"), assume(Imp(p, q), "m2")])
    for i in range(depth):
        wit = assume(wit_formula, f"w{i}")
        body = node("and_elim_r", q, [node("and_int", And(wit_formula, q), [wit, t])])
        t = node("exists_elim", q, [assume(f("exists x. P(x)"), f"e{i}"), body], {wit.leaf_id})
    return t
