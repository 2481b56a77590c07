"""Reference checker, written apart from the workbench's own evaluators.

It parses the ASCII formula grammar of the workbench into plain tuples,
evaluates them on Kripke models given as model JSON (the format of
``bqlcd.kripke.model_to_json``), and checks frames: transitivity,
reflexive witnesses, persistence and the identity relation.  It imports
nothing from ``bqlcd``, so a fault shared by the workbench's evaluators
cannot hide itself here.

Semantics (constant domain basic logic): atoms are read off the world's
relation table; ``&`` and ``|`` are local; ``A -> B`` holds at w iff every
successor of w (w itself only if the frame makes w reflexive) that
satisfies A satisfies B; quantifiers range over the shared domain at w.
"""

from __future__ import annotations

import itertools
import re


class Mismatch(Exception):
    """An output of the workbench disagrees with the reference."""


def expect(ok, message):
    if not ok:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(<->|->|#\d+|[A-Za-z_][A-Za-z0-9_]*|[()&|,=.])")


def _tokens(text):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"cannot read {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Reader:
    def __init__(self, text):
        self.toks = _tokens(text)
        self.i = 0
        self.bound = []

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, want=None):
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want or 'a token'}, got {tok!r}")
        self.i += 1
        return tok

    def formula(self):
        # a right-nested chain a -> b -> ... is read in a loop, so long
        # guards do not recurse
        parts = [self.disj()]
        while self.peek() == "->":
            self.take()
            parts.append(self.disj())
        out = _nest("imp", parts)
        if self.peek() == "<->":
            self.take()
            right = self.formula()
            return ("and", ("imp", out, right), ("imp", right, out))
        return out

    def disj(self):
        parts = [self.conj()]
        while self.peek() == "|":
            self.take()
            parts.append(self.conj())
        return _nest("or", parts)

    def conj(self):
        parts = [self.primary()]
        while self.peek() == "&":
            self.take()
            parts.append(self.primary())
        return _nest("and", parts)

    def primary(self):
        tok = self.peek()
        if tok in ("forall", "exists"):
            self.take()
            var = self.take()
            self.take(".")
            self.bound.append(var)
            body = self.formula()
            self.bound.pop()
            return ("all" if tok == "forall" else "ex", var, body)
        if tok == "(":
            self.take()
            inner = self.formula()
            self.take(")")
            if self.peek() == "=":        # a parenthesised term cannot occur
                raise ValueError("'=' after a parenthesised formula")
            return inner
        if tok == "true":
            self.take()
            return ("top",)
        if tok == "false":
            self.take()
            return ("bot",)
        name = self.take()
        args = self.args()
        if self.peek() == "=":
            self.take()
            return ("atom", "=", (self.term_from(name, args), self.term()))
        return ("atom", name, args)

    def args(self):
        if self.peek() != "(":
            return ()
        self.take("(")
        out = [self.term()]
        while self.peek() == ",":
            self.take()
            out.append(self.term())
        self.take(")")
        return tuple(out)

    def term(self):
        name = self.take()
        return self.term_from(name, self.args())

    def term_from(self, name, args):
        if args:
            return ("fn", name, args)
        if name in self.bound:
            return ("var", name)
        return ("const", name)


def _nest(op, parts):
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = (op, p, out)
    return out


def parse(text):
    r = _Reader(text)
    out = r.formula()
    if r.peek() is not None:
        raise ValueError(f"trailing input {r.peek()!r} in {text!r}")
    return out


def symbols(f, rels=None, consts=None, funs=None):
    """Relation arities, constant names and function names of a parsed
    formula; ``quantified`` tells whether a quantifier occurs."""
    rels = {} if rels is None else rels
    consts = set() if consts is None else consts
    funs = set() if funs is None else funs
    quantified = False

    def term(t):
        if t[0] == "const":
            consts.add(t[1])
        elif t[0] == "fn":
            funs.add(t[1])
            for a in t[2]:
                term(a)

    stack = [f]
    while stack:
        g = stack.pop()
        tag = g[0]
        if tag == "atom":
            rels[g[1]] = len(g[2])
            for t in g[2]:
                term(t)
        elif tag in ("and", "or", "imp"):
            stack += [g[1], g[2]]
        elif tag in ("all", "ex"):
            quantified = True
            stack.append(g[2])
    return rels, consts, funs, quantified


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

class Model:
    """A Kripke model read from model JSON; nothing is closed or repaired."""

    def __init__(self, data):
        self.worlds = [str(w) for w in data["worlds"]]
        self.edges = {(str(a), str(b)) for a, b in data.get("edges", [])}
        self.n = int(data["domain"])
        self.consts = {str(c): int(v) for c, v in data.get("consts", {}).items()}
        self.funs = {str(f): [int(v) for v in t] for f, t in data.get("funs", {}).items()}
        self.rels = {str(r): {str(w): {tuple(int(x) for x in t) for t in ts}
                              for w, ts in per.items()}
                     for r, per in data.get("rels", {}).items()}
        self.identity = data.get("identity", "absent")
        self.succ = {w: [u for u in self.worlds if (w, u) in self.edges]
                     for w in self.worlds}
        self.memo = {}      # id(formula) -> (formula, table)
        self.fv = {}        # id(formula) -> (formula, free variables)

    def term(self, t, env):
        tag = t[0]
        if tag == "var":
            return dict(env)[t[1]]
        if tag == "const":
            return self.consts[t[1]]
        idx = 0
        for a in t[2]:
            idx = idx * self.n + self.term(a, env)
        return self.funs[t[1]][idx]

    def ext(self, rel, w):
        per = self.rels.get(rel)
        if per is None and rel == "=":
            return {(a, a) for a in range(self.n)}
        return (per or {}).get(w, set())

    def sat(self, w, f):
        """Truth of the sentence ``f`` at world ``w``."""
        return w in self.table(f)[()]

    def table(self, f):
        """For every assignment to the free variables of ``f`` (a sorted
        tuple of (variable, element) pairs), the worlds where ``f`` holds.
        Subformulas are visited in post-order with an explicit stack, so
        deeply nested inputs need no recursion."""
        got = self.memo.get(id(f))
        if got is not None:
            return got[1]
        order, stack = [], [f]
        while stack:
            g = stack.pop()
            if id(g) in self.memo:
                continue
            order.append(g)
            if g[0] in ("and", "or", "imp"):
                stack += [g[1], g[2]]
            elif g[0] in ("all", "ex"):
                stack.append(g[2])
        for g in reversed(order):
            if id(g) not in self.memo:
                self.memo[id(g)] = (g, self._node(g))
        return self.memo[id(f)][1]

    def _node(self, g):
        tag = g[0]
        fv = _free(g, self.fv)
        envs = [tuple(zip(fv, vals)) for vals in itertools.product(range(self.n), repeat=len(fv))]
        worlds = self.worlds
        if tag == "top":
            return {(): frozenset(worlds)}
        if tag == "bot":
            return {(): frozenset()}
        if tag == "atom":
            return {env: frozenset(w for w in worlds if tuple(
                        self.term(t, env) for t in g[2]) in self.ext(g[1], w))
                    for env in envs}
        if tag in ("and", "or", "imp"):
            left, right = self.memo[id(g[1])][1], self.memo[id(g[2])][1]
            fl, fr = _free(g[1], self.fv), _free(g[2], self.fv)
            out = {}
            for env in envs:
                a = left[_restrict(env, fl)]
                b = right[_restrict(env, fr)]
                if tag == "and":
                    out[env] = a & b
                elif tag == "or":
                    out[env] = a | b
                else:
                    out[env] = frozenset(w for w in worlds if all(
                        u not in a or u in b for u in self.succ[w]))
            return out
        body = self.memo[id(g[2])][1]
        fb = _free(g[2], self.fv)
        out = {}
        for env in envs:
            parts = [body[_restrict(tuple(sorted(env + ((g[1], b),))), fb)]
                     for b in range(self.n)]
            if tag == "ex":
                out[env] = frozenset().union(*parts)
            else:
                out[env] = frozenset(worlds).intersection(*parts)
        return out


def _free(g, cache):
    """Sorted free variables of a parsed formula, cached by node identity."""
    got = cache.get(id(g))
    if got is not None:
        return got[1]
    tag = g[0]
    if tag == "atom":
        names = set()
        stack = list(g[2])
        while stack:
            t = stack.pop()
            if t[0] == "var":
                names.add(t[1])
            elif t[0] == "fn":
                stack.extend(t[2])
    elif tag in ("and", "or", "imp"):
        names = set(_free(g[1], cache)) | set(_free(g[2], cache))
    elif tag in ("all", "ex"):
        names = set(_free(g[2], cache)) - {g[1]}
    else:
        names = set()
    out = tuple(sorted(names))
    cache[id(g)] = (g, out)
    return out


def _restrict(env, names):
    return tuple(kv for kv in env if kv[0] in names)


def check_frame(m: Model):
    """Transitivity, persistence of every relation along the edges, and the
    identity relation of the model's identity mode."""
    for (a, b) in m.edges:
        expect(a in m.succ and b in m.succ, f"edge {a}->{b} leaves the model")
        for c in m.succ[b]:
            expect((a, c) in m.edges, f"not transitive: {a}<{b}<{c}")
    for r, per in m.rels.items():
        for (a, b) in m.edges:
            expect(per.get(a, set()) <= per.get(b, set()),
                   f"{r} does not persist from {a} to {b}")
    if m.identity == "absent":
        return
    diag = {(x, x) for x in range(m.n)}
    for w in m.worlds:
        eq = m.ext("=", w)
        if m.identity == "strict":
            expect(eq == diag, f"strict identity is not the diagonal at {w}")
            continue
        expect(diag <= eq, f"'=' not reflexive at {w}")
        expect(all((b, a) in eq for (a, b) in eq), f"'=' not symmetric at {w}")
        expect(all((a, d) in eq for (a, b) in eq for (c, d) in eq if b == c),
               f"'=' not transitive at {w}")
        for r, per in m.rels.items():
            for xs in per.get(w, set()):
                for ys in itertools.product(range(m.n), repeat=len(xs)):
                    if all((x, y) in eq for x, y in zip(xs, ys)):
                        expect(ys in per[w], f"'=' not compatible with {r} at {w}")


def check_countermodel(model_json, witness, premises, conclusion, mode):
    """The model is a well-formed frame and refutes premises |= conclusion
    at the witness, which is reflexive unless the mode is ``bqlcd``."""
    m = Model(model_json)
    check_frame(m)
    expect(witness in m.succ, f"witness {witness} is not a world")
    if mode != "bqlcd":
        expect((witness, witness) in m.edges, f"witness {witness} is not reflexive")
    for text in premises:
        expect(m.sat(witness, parse(text)), f"premise {text!r} fails at the witness")
    expect(not m.sat(witness, parse(conclusion)),
           f"conclusion {conclusion!r} holds at the witness")


def one_world_refutes(premises, conclusion):
    """True iff some model with one reflexive world and a one-element domain
    satisfies the premises and not the conclusion.  Such a model lies within
    any search bounds, so a search must find a countermodel."""
    parsed = [parse(t) for t in premises]
    goal = parse(conclusion)
    rels, consts, funs = {}, set(), set()
    for f in parsed + [goal]:
        symbols(f, rels, consts, funs)
    names = sorted(rels)
    for bits in range(2 ** len(names)):
        m = Model({"worlds": ["w"], "edges": [["w", "w"]], "domain": 1,
                   "consts": {c: 0 for c in consts},
                   "funs": {f: [0] for f in funs},
                   "rels": {r: {"w": [[0] * rels[r]] if bits >> i & 1 else []}
                            for i, r in enumerate(names)}})
        if all(m.sat("w", f) for f in parsed) and not m.sat("w", goal):
            return True
    return False


# ---------------------------------------------------------------------------
# the truth construction
# ---------------------------------------------------------------------------

def chain_json(codes, domain, t_ext, depth, loop=False):
    """Model JSON for the descending chain w0 > w1 > ... > w<depth>: every
    lower world sees every higher one, and with ``loop`` the bottom world
    also sees itself.  ``T`` holds the per-world extensions."""
    worlds = [f"w{a}" for a in range(depth + 1)]
    edges = [[worlds[b], worlds[a]] for b in range(depth + 1) for a in range(b)]
    if loop:
        edges.append([worlds[depth], worlds[depth]])
    return {"worlds": worlds, "edges": edges, "domain": domain,
            "consts": {f"q{k}": k for k in codes.values()},
            "rels": {"T": {w: [[c] for c in t_ext[w]] for w in worlds}},
            "identity": "absent"}


def check_chain(codes, domain, t_ext, theta):
    """Each chain world's extension is exactly the set of codes of the
    sentences true there; with a stabilisation point, the chain cut at
    ``theta`` and looped there keeps the same closure and satisfies every
    Tarski biconditional at the loop world."""
    parsed = {text: parse(text) for text in codes}
    depth = len(t_ext) - 1
    cuts = [(depth, False)] + ([(theta, True)] if theta is not None else [])
    for cut, loop in cuts:
        m = Model(chain_json(codes, domain, t_ext, cut, loop))
        check_frame(m)
        for a in range(cut + 1):
            w = f"w{a}"
            got = {codes[t] for t, f in parsed.items() if m.sat(w, f)}
            expect(got == set(t_ext[w]),
                   f"closure fails at {w}{' (looped)' if loop else ''}: "
                   f"true {sorted(got)}, extension {sorted(t_ext[w])}")
        if loop:
            w = f"w{cut}"
            for text, f in parsed.items():
                quote = ("atom", "T", (("const", f"q{codes[text]}"),))
                expect(m.sat(w, ("imp", quote, f)) and m.sat(w, ("imp", f, quote)),
                       f"Tarski biconditional for {text!r} fails at {w}")
