"""Seeded random generation of kernel-valid proofs.

The generator proposes rule applications over a growing pool and keeps only
candidates the checker accepts, so every emitted tree is valid by
construction-plus-filtering.  Used by the acceptance battery and the
self-test command.
"""

from __future__ import annotations

import itertools
import random

from .kripke import make_model, transitive_closure
from .proofkernel import (
    assume, canonical_leaf_ids, check_proof, node, open_assumptions, proof_depth,
    relabel_fresh,
)
from .syntax import (
    And, Atom, Const, Exists, Forall, Imp, Or, Param, TOP, BOTTOM, Var,
    generalize_param, parse_inferring, substitute,
)
from .transform import (
    _fresh_param, boxn, close_antecedent, nd_axiom_proof, pad_box, unbox,
)


def _f(text):
    return parse_inferring(text)[0]


_ATOMS = [Atom("p"), Atom("q"), Atom("r"), Atom("P", (Const("c"),)), TOP, BOTTOM]


def random_sentence(rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(_ATOMS)
    kind = rng.randrange(4 if depth < 2 else 5)
    if kind == 0:
        return And(random_sentence(rng, depth - 1), random_sentence(rng, depth - 1))
    if kind == 1:
        return Or(random_sentence(rng, depth - 1), random_sentence(rng, depth - 1))
    if kind == 2 or kind == 3:
        return Imp(random_sentence(rng, depth - 1), random_sentence(rng, depth - 1))
    body = rng.choice([Atom("P", (Var("x"),)),
                       Or(Atom("P", (Var("x"),)), Atom("q")),
                       Imp(Atom("p"), Atom("P", (Var("x"),)))])
    return (Forall if rng.random() < 0.5 else Exists)("x", body)


_MAX_DEPTH = 6          # deeper proofs stay out of the generator's pool


class ProofGenerator:
    def __init__(self, seed=0):
        self.rng = random.Random(seed)
        self.pool: list = []
        self._seed_pool()

    def _accept(self, t):
        if t is None or proof_depth(t) > _MAX_DEPTH:
            return None
        report = check_proof(t, "nbqlcd_r")
        if not report.valid or len(report.open_assumptions) > 4:
            return None
        self.pool.append(t)
        return t

    def _seed_pool(self):
        rng = self.rng
        for _ in range(6):
            self._accept(assume(random_sentence(rng)))
        self._accept(node("top_int", TOP))
        self._accept(assume(_f("exists x. P(x)")))
        self._accept(assume(_f("forall x. P(x) | q")))
        self._accept(assume(_f("forall y. P(y)")))
        for schema, text in [("identity", "p -> p"), ("weakening", "p -> (q -> p)"),
                             ("and_elim_l", "p & q -> p"),
                             ("transitivity", "(p -> q) & (q -> r) -> (p -> r)")]:
            # a fresh copy: pooled proofs that shared leaf ids could not be combined
            self._accept(relabel_fresh(nd_axiom_proof(schema, _f(text))))

    def _pick(self, pred=None):
        items = [t for t in self.pool if pred is None or pred(t)]
        return self.rng.choice(items) if items else None

    # ------------------------------------------------------------------ moves

    def _move_and_int(self):
        a, b = self._pick(), self._pick()
        if a and b:
            return node("and_int", And(a.conclusion, b.conclusion), [a, b])

    def _move_and_elim(self):
        t = self._pick(lambda x: isinstance(x.conclusion, And))
        if t:
            side = self.rng.random() < 0.5
            rule = "and_elim_l" if side else "and_elim_r"
            concl = t.conclusion.left if side else t.conclusion.right
            return node(rule, concl, [t])

    def _move_or_int(self):
        t = self._pick()
        if t:
            other = random_sentence(self.rng, 1)
            if self.rng.random() < 0.5:
                return node("or_int_l", Or(t.conclusion, other), [t])
            return node("or_int_r", Or(other, t.conclusion), [t])

    def _move_imp_int(self):
        t = self._pick()
        if not t:
            return None
        opens = sorted(open_assumptions(t), key=str)
        if opens and self.rng.random() < 0.7:
            ante = self.rng.choice(opens)
        else:
            ante = random_sentence(self.rng, 1)
        return close_antecedent(t, ante)

    def _move_imp_elim(self):
        major = self._pick(lambda x: isinstance(x.conclusion, Imp))
        if not major:
            return None
        ante = major.conclusion.left
        minor = self._pick(lambda x: x.conclusion == ante)
        if minor is None or self.rng.random() < 0.3:
            minor = assume(ante)
        return node("imp_elim", major.conclusion.right, [minor, major])

    def _move_internal(self):
        a = self._pick(lambda x: isinstance(x.conclusion, Imp))
        if not a:
            return None
        kind = self.rng.randrange(3)
        if kind == 0:
            b = self._pick(lambda x: isinstance(x.conclusion, Imp)
                           and x.conclusion.left == a.conclusion.right)
            if b:
                return node("int_trans",
                            Imp(a.conclusion.left, b.conclusion.right), [a, b])
        if kind == 1:
            b = self._pick(lambda x: isinstance(x.conclusion, Imp)
                           and x.conclusion.left == a.conclusion.left)
            if b:
                return node("int_and_int",
                            Imp(a.conclusion.left,
                                And(a.conclusion.right, b.conclusion.right)),
                            [a, b])
        b = self._pick(lambda x: isinstance(x.conclusion, Imp)
                       and x.conclusion.right == a.conclusion.right)
        if b:
            return node("int_or_elim",
                        Imp(Or(a.conclusion.left, b.conclusion.left),
                            a.conclusion.right), [a, b])

    def _move_forall_elim(self):
        t = self._pick(lambda x: isinstance(x.conclusion, Forall))
        if t:
            term = self.rng.choice([Const("c"), Param(0), Param(1)])
            concl = substitute(t.conclusion.body, t.conclusion.var, term)
            return node("forall_elim", concl, [t])

    def _move_forall_int(self):
        t = self._pick(lambda x: x.conclusion.params)
        if t:
            body = generalize_param(t.conclusion, min(t.conclusion.params), "x")
            return node("forall_int", Forall("x", body), [t])

    def _move_exists_int(self):
        t = self._pick()
        if not t:
            return None
        concl = t.conclusion
        candidates = sorted(concl.params) or [None]
        idx = self.rng.choice(candidates)
        if idx is None:
            return node("exists_int", Exists("x", concl), [t])
        body = generalize_param(concl, idx, "x")
        return node("exists_int", Exists("x", body), [t])

    def _move_exists_elim(self):
        major = self._pick(lambda x: isinstance(x.conclusion, Exists))
        if not major:
            return None
        ex = major.conclusion
        idx = _fresh_param(major, ex)
        witness = substitute(ex.body, ex.var, Param(idx))
        wit_leaf = assume(witness)
        body = node("exists_int", Exists("y", generalize_param(witness, idx, "y")),
                    [wit_leaf])
        return node("exists_elim", body.conclusion, [major, body],
                    {wit_leaf.leaf_id})

    def _move_or_elim(self):
        major = self._pick(lambda x: isinstance(x.conclusion, Or))
        if not major:
            return None
        disj = major.conclusion
        roll = self.rng.random()
        if roll < 0.4:
            dl, dr = assume(disj.left), assume(disj.right)
            left = node("or_int_l", disj, [dl])
            right = node("or_int_r", disj, [dr])
            return node("or_elim", disj, [major, left, right],
                        {dl.leaf_id, dr.leaf_id})
        if roll < 0.7:
            # detachment in each branch; the case assumptions stay in minor
            # position, so discharging them is safe
            goal = self.rng.choice([Atom("p"), Atom("q")])
            dl, dr = assume(disj.left), assume(disj.right)
            left = node("imp_elim", goal, [dl, assume(Imp(disj.left, goal))])
            right = node("imp_elim", goal, [dr, assume(Imp(disj.right, goal))])
            return node("or_elim", goal, [major, left, right],
                        {dl.leaf_id, dr.leaf_id})
        branch = self._pick()
        if branch:
            return node("or_elim", branch.conclusion,
                        [major, branch, branch])

    def _move_cd(self):
        t = self._pick(lambda x: isinstance(x.conclusion, Forall)
                       and isinstance(x.conclusion.body, Or))
        if t:
            body = t.conclusion.body
            if t.conclusion.var not in body.left.free:
                return node("cd", Or(body.left,
                                     Forall(t.conclusion.var, body.right)), [t])

    def _move_stratum_boost(self):
        target = random_sentence(self.rng, 1)
        guard = assume(Imp(TOP, target))
        return node("imp_elim", target, [node("top_int", TOP), guard])

    def step(self):
        moves = [self._move_and_int, self._move_and_elim, self._move_or_int,
                 self._move_imp_int, self._move_imp_elim, self._move_internal,
                 self._move_forall_elim, self._move_forall_int,
                 self._move_exists_int, self._move_exists_elim,
                 self._move_or_elim, self._move_cd, self._move_stratum_boost]
        move = self.rng.choice(moves)
        try:
            return self._accept(move())
        except (ValueError, KeyError, IndexError):
            return None


def generate_corpus(seed=0, size=200):
    """At least ``size`` distinct valid proofs, canonical leaf ids."""
    gen = ProofGenerator(seed=seed)
    out, seen = [], set()
    guard = 0
    while len(out) < size and guard < size * 200:
        guard += 1
        if guard % 40 == 0:
            gen._accept(assume(random_sentence(gen.rng)))
        t = gen.step()
        if t is None:
            continue
        c = canonical_leaf_ids(t)
        if c not in seen:
            seen.add(c)
            out.append(c)
    if len(out) < size:
        raise RuntimeError(f"generator stalled at {len(out)} proofs")
    return out


_THEOREM_TEXTS = [
    ("identity", "p -> p"),
    ("identity", "(p & q) -> (p & q)"),
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
    ("prefixing", "(p -> q) -> ((r -> p) -> (r -> q))"),
    ("weakening", "p -> (q -> p)"),
]


def closed_theorem_corpus():
    """Closed theorems with full-system proofs at strata -1, 0 and 1."""
    out = []
    for i, (schema, text) in enumerate(_THEOREM_TEXTS):
        base = nd_axiom_proof(schema, _f(text))
        if i % 3 == 1:
            base = unbox(pad_box(base, 0, 1), 1)          # stratum 0
        elif i % 3 == 2:
            base = unbox(boxn(unbox(pad_box(base, 0, 1), 1), 1), 1)  # stratum 1
        out.append(canonical_leaf_ids(base))
    return out


def axiomatic_corpus():
    """Twenty derivations in the strongest axiomatic system with the witness
    rule, mixing bare axioms, detachments, affixing and quantifier rules."""
    ax = lambda schema, text: node(f"axiom:{schema}", _f(text))
    out = []
    for schema, text in _THEOREM_TEXTS[:12]:
        out.append(ax(schema, text))
    wk = ax("weakening", "p -> (q -> p)")
    out.append(node("imp_elim", _f("q -> p"), [assume(_f("p"), "a1"), wk]))
    out.append(node("imp_elim", _f("q -> (p -> p)"),
                    [ax("identity", "p -> p"),
                     ax("weakening", "(p -> p) -> (q -> (p -> p))")]))
    out.append(node("affixing", _f("(q -> r) -> (p -> s)"),
                    [assume(_f("p -> q"), "a2"), assume(_f("r -> s"), "a3")]))
    out.append(node("and_int", _f("(p -> p) & (q -> q)"),
                    [ax("identity", "p -> p"), ax("identity", "q -> q")]))
    inst = node("forall_elim", _f("P(#0)"), [assume(_f("forall y. P(y)"), "a4")])
    out.append(node("forall_int", _f("forall x. P(x)"), [inst]))
    wit = assume(_f("P(#1)"), "a5")
    body = node("exists_int", _f("exists y. P(y)"), [wit])
    out.append(node("exists_elim", _f("exists y. P(y)"),
                    [assume(_f("exists x. P(x)"), "a6"), body], {"a5"}))
    dl, dr = assume(_f("p"), "a7"), assume(_f("q"), "a8")
    left = node("or_int_l", _f("p | q"), [dl])
    right = node("or_int_r", _f("p | q"), [dr])
    out.append(node("or_elim", _f("p | q"),
                    [assume(_f("p | q"), "a9"), left, right], {"a7", "a8"}))
    out.append(node("imp_elim", _f("p -> r"),
                    [node("and_int", _f("(p -> q) & (q -> r)"),
                          [assume(_f("p -> q"), "b1"), assume(_f("q -> r"), "b2")]),
                     ax("transitivity", "(p -> q) & (q -> r) -> (p -> r)")]))
    return [canonical_leaf_ids(t) for t in out]


# ---------------------------------------------------------------------------
# model and configuration samplers (selftest and invariant batteries)
# ---------------------------------------------------------------------------

def random_model(rng, max_worlds=4, max_domain=3):
    """A well-formed model with random transitive frame and persistent
    interpretations for p (nullary), P (unary) and the constant c."""
    k = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(k)]
    edges = transitive_closure(
        {(a, b) for a in worlds for b in worlds if rng.random() < 0.4}, worlds)
    m = rng.randint(1, max_domain)
    rels = {}
    arities = {"p": 0, "q": 0, "r": 0, "P": 1}
    for name, ar in arities.items():
        per = {w: {t for t in itertools.product(range(m), repeat=ar)
                   if rng.random() < 0.4} for w in worlds}
        changed = True
        while changed:
            changed = False
            for (a, b) in edges:
                if not per[a] <= per[b]:
                    per[b] |= per[a]
                    changed = True
        rels[name] = per
    consts = {"c": rng.randrange(m)}
    for i in range(3):
        consts[f"#{i}"] = rng.randrange(m)   # parameters act as fresh constants
    return make_model(worlds, edges, m, consts=consts,
                      rels=rels, rel_arity=arities)


def random_or_exists_free_sentence(rng, depth=3):
    """Sentences avoiding disjunction and the existential quantifier."""
    if depth == 0 or rng.random() < 0.35:
        return rng.choice([Atom("p"), Atom("P", (Const("c"),)), TOP, BOTTOM])
    kind = rng.randrange(3)
    if kind == 0:
        return And(random_or_exists_free_sentence(rng, depth - 1),
                   random_or_exists_free_sentence(rng, depth - 1))
    if kind == 1:
        return Imp(random_or_exists_free_sentence(rng, depth - 1),
                   random_or_exists_free_sentence(rng, depth - 1))
    body = rng.choice([Atom("P", (Var("x"),)),
                       Imp(Atom("p"), Atom("P", (Var("x"),))),
                       And(Atom("P", (Var("x"),)), Atom("p"))])
    return Forall("x", body)


def random_intersection_config(rng, max_members=3, max_domain=2):
    """A model plus (w, members) satisfying the intersection conditions: the
    members are reflexive, w sees exactly them (plus worlds they see), and
    every relation at w is the member intersection."""
    j = rng.randint(1, max_members)
    m = rng.randint(1, max_domain)
    members = [f"u{i}" for i in range(j)]
    worlds = ["w"] + members
    edges = {("w", u) for u in members} | {(u, u) for u in members}
    if rng.random() < 0.5:
        worlds.append("z")
        seen_by = rng.sample(members, rng.randint(1, j))
        for u in seen_by:
            edges.add((u, "z"))
            edges.add(("w", "z"))
        if rng.random() < 0.5:
            edges.add(("z", "z"))
    rels = {}
    for name, ar in (("p", 0), ("P", 1)):
        per = {}
        for w in worlds:
            if w == "w":
                continue
            per[w] = {t for t in itertools.product(range(m), repeat=ar)
                      if rng.random() < 0.5}
        changed = True
        while changed:
            changed = False
            for (a, b) in edges:
                if a == "w" or b == "w":
                    continue
                if not per[a] <= per[b]:
                    per[b] |= per[a]
                    changed = True
        inter = None
        for u in members:
            inter = per[u] if inter is None else inter & per[u]
        per["w"] = inter
        rels[name] = per
    model = make_model(worlds, edges, m, consts={"c": rng.randrange(m)},
                       rels=rels, rel_arity={"p": 0, "P": 1})
    return model, "w", tuple(members)
