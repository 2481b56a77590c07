"""First-order syntax: signatures, terms, formulas, parsing and printing.

The term language has a countable stock of parameter constants written
``#0``, ``#1``, ... in text; they act as names for arbitrarily chosen
objects inside derivations and never collide with user constants.

Every rewrite of the terms in a formula (substitution, renaming and
generalising parameters) goes through ``map_terms``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Union


class ParseError(ValueError):
    """Raised on malformed formula text (carries a position when known)."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class SignatureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Param:
    index: int


@dataclass(frozen=True)
class Fn:
    name: str
    args: tuple["Term", ...]


Term = Union[Var, Const, Param, Fn]


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Atom:
    rel: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


Formula = Union[Top, Bottom, Atom, And, Or, Imp, Forall, Exists]

TOP = Top()
BOTTOM = Bottom()

BINARY = (And, Or, Imp)
QUANT = (Forall, Exists)


# ---------------------------------------------------------------------------
# signature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    """Symbol table shared by the parser, the models and the proof checker.

    Relations may have arity 0 (propositional letters).  Functions must have
    arity >= 1; nullary "functions" are constants.  When ``identity_mode`` is
    not ``absent``, the binary relation ``=`` is present and reserved.
    """

    constants: frozenset = frozenset()
    functions: Mapping[str, int] = field(default_factory=dict)
    relations: Mapping[str, int] = field(default_factory=dict)
    identity_mode: str = "absent"

    def __post_init__(self):
        cats = [set(self.constants), set(self.functions), set(self.relations) - {"="}]
        for i in range(len(cats)):
            for j in range(i + 1, len(cats)):
                dup = cats[i] & cats[j]
                if dup:
                    raise SignatureError(f"names in several categories: {sorted(dup)}")
        for name, ar in self.functions.items():
            if ar < 1:
                raise SignatureError(f"function {name} must have arity >= 1")
        for name, ar in self.relations.items():
            if ar < 0:
                raise SignatureError(f"relation {name} has negative arity")
        if self.identity_mode not in ("absent", "congruence", "strict"):
            raise SignatureError(f"bad identity mode {self.identity_mode!r}")
        if self.identity_mode != "absent" and self.relations.get("=") != 2:
            raise SignatureError("identity mode requires the binary relation '='")
        if "=" in self.relations and self.relations["="] != 2:
            raise SignatureError("'=' must be binary")


def sig(constants=(), functions=None, relations=None, identity_mode="absent"):
    return Signature(frozenset(constants), dict(functions or {}),
                     dict(relations or {}), identity_mode)


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------

def subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, Fn):
        for a in t.args:
            yield from subterms(a)


def term_free_vars(t: Term) -> frozenset:
    return frozenset(s.name for s in subterms(t) if isinstance(s, Var))


def free_vars(phi: Formula) -> frozenset:
    if isinstance(phi, Atom):
        return frozenset(s.name for a in phi.args for s in subterms(a)
                         if isinstance(s, Var))
    if isinstance(phi, BINARY):
        return free_vars(phi.left) | free_vars(phi.right)
    if isinstance(phi, QUANT):
        return free_vars(phi.body) - {phi.var}
    return frozenset()


def is_sentence(phi: Formula) -> bool:
    return not free_vars(phi)


def is_closed_term(t: Term) -> bool:
    return not term_free_vars(t)


def term_params(t: Term) -> frozenset:
    return frozenset(s.index for s in subterms(t) if isinstance(s, Param))


def formula_params(phi: Formula) -> frozenset:
    if isinstance(phi, Atom):
        return frozenset(s.index for a in phi.args for s in subterms(a)
                         if isinstance(s, Param))
    if isinstance(phi, BINARY):
        return formula_params(phi.left) | formula_params(phi.right)
    if isinstance(phi, QUANT):
        return formula_params(phi.body)
    return frozenset()


def parameters_of(x) -> frozenset:
    """Exact set of parameter indices occurring in a formula or proof tree.

    Anything with ``conclusion``/``children``/``formula`` attributes (proof
    nodes) is walked structurally.
    """
    if isinstance(x, (Top, Bottom, Atom, And, Or, Imp, Forall, Exists)):
        return formula_params(x)
    if isinstance(x, (Var, Const, Param, Fn)):
        return term_params(x)
    out = frozenset()
    concl = getattr(x, "conclusion", None)
    if concl is not None:
        out |= formula_params(concl)
    for child in getattr(x, "children", ()):
        out |= parameters_of(child)
    return out


def map_term(t: Term, leaf) -> Term:
    """``t`` with every leaf term ``s`` (any term but an ``Fn``) replaced by
    ``leaf(s)``."""
    if isinstance(t, Fn):
        return Fn(t.name, tuple(map_term(a, leaf) for a in t.args))
    return leaf(t)


def map_terms(phi: Formula, leaf, bound=None) -> Formula:
    """``phi`` with every argument term rewritten by ``map_term(_, leaf)``;
    the walk does not enter a quantifier binding the variable ``bound``."""
    if isinstance(phi, Atom):
        return Atom(phi.rel, tuple(map_term(a, leaf) for a in phi.args))
    if isinstance(phi, BINARY):
        return type(phi)(map_terms(phi.left, leaf, bound),
                         map_terms(phi.right, leaf, bound))
    if isinstance(phi, QUANT) and phi.var != bound:
        return type(phi)(phi.var, map_terms(phi.body, leaf, bound))
    return phi


def substitute(phi: Formula, var: str, t: Term) -> Formula:
    """Replace every free occurrence of ``var`` in ``phi`` by the closed term ``t``."""
    if not is_closed_term(t):
        raise ValueError(f"substituted term must be closed: {pretty_term(t)}")
    return _subst(phi, var, t)


def _subst(phi, var, t):
    return map_terms(phi, lambda s: t if isinstance(s, Var) and s.name == var else s,
                     var)


def replace_param(phi: Formula, old: int, new: int) -> Formula:
    """Rename parameter ``#old`` to ``#new`` everywhere in ``phi``."""
    return map_terms(phi, lambda s: Param(new)
                     if isinstance(s, Param) and s.index == old else s)


def generalize_param(phi: Formula, index: int, var: str) -> Formula:
    """Replace every occurrence of parameter ``#index`` by the variable ``var``."""
    return map_terms(phi, lambda s: Var(var)
                     if isinstance(s, Param) and s.index == index else s)


def match_instantiation(body: Formula, var: str, target: Formula):
    """Closed term ``t`` with ``substitute(body, var, t) == target``.

    Returns ``(ok, t)``.  ``t`` is the term that ``target`` has at the first
    position where ``body`` has ``var`` free, whether it matches or not;
    it is ``None`` when there is no such position.  When ``var`` is not free
    in ``body`` any term works, and ``ok`` is ``body == target``.
    """
    if var not in free_vars(body):
        return (body == target, None)
    cand = _find_instantiation(body, var, target)
    ok = (cand is not None and is_closed_term(cand)
          and _subst(body, var, cand) == target)
    return (ok, cand)


def _find_instantiation(body, var, target):
    """First term sitting in ``target`` at a position where ``body`` has free ``var``."""
    if isinstance(body, Atom) and isinstance(target, Atom):
        for bt, tt in zip(body.args, target.args):
            got = _find_instantiation_term(bt, var, tt)
            if got is not None:
                return got
        return None
    if isinstance(body, BINARY) and type(body) is type(target):
        return (_find_instantiation(body.left, var, target.left)
                or _find_instantiation(body.right, var, target.right))
    if isinstance(body, QUANT) and type(body) is type(target) and body.var != var:
        return _find_instantiation(body.body, var, target.body)
    return None


def _find_instantiation_term(bt, var, tt):
    if isinstance(bt, Var) and bt.name == var:
        return tt
    if isinstance(bt, Fn) and isinstance(tt, Fn) and bt.name == tt.name:
        for b, t in zip(bt.args, tt.args):
            got = _find_instantiation_term(b, var, t)
            if got is not None:
                return got
    return None


def box(n: int, phi: Formula) -> Formula:
    """n-fold guard ``true -> ... -> phi``; box(0) is phi itself."""
    if n < 0:
        raise ValueError("box depth must be >= 0")
    for _ in range(n):
        phi = Imp(TOP, phi)
    return phi


def big_conj(formulas) -> Formula:
    """Right-nested conjunction of the list, in order; empty list gives true."""
    formulas = list(formulas)
    if not formulas:
        return TOP
    out = formulas[-1]
    for phi in reversed(formulas[:-1]):
        out = And(phi, out)
    return out


def subformulas(phi: Formula) -> Iterator[Formula]:
    yield phi
    if isinstance(phi, BINARY):
        yield from subformulas(phi.left)
        yield from subformulas(phi.right)
    elif isinstance(phi, QUANT):
        yield from subformulas(phi.body)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_UNICODE = {
    "∧": "&", "∨": "|", "→": "->", "↔": "<->",
    "⊤": "true", "⊥": "false", "∀": "forall ", "∃": "exists ",
}

_TOKEN_RE = re.compile(r"\s*(->|<->|[()&|=.,]|#\d+|[A-Za-z_][A-Za-z0-9_]*)")


def _tokenize(text: str):
    for uni, ascii_ in _UNICODE.items():
        text = text.replace(uni, ascii_)
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    out.append((None, len(text)))
    return out


class _Parser:
    """Recursive descent over the grammar; `->` is right-associative and
    weakest, `&` binds tighter than `|`, quantifiers take maximal scope."""

    def __init__(self, tokens, sig, infer, free_names):
        self.toks = tokens
        self.i = 0
        self.sig = sig
        self.infer = infer
        self.free_names = set(free_names)
        self.bound: list[str] = []
        # grow-only tables used in inference mode
        self.constants = set(sig.constants) if sig else set()
        self.functions = dict(sig.functions) if sig else {}
        self.relations = dict(sig.relations) if sig else {}

    def peek(self):
        return self.toks[self.i][0]

    def next(self):
        tok, pos = self.toks[self.i]
        self.i += 1
        return tok, pos

    def expect(self, what):
        tok, pos = self.next()
        if tok != what:
            raise ParseError(f"expected {what!r}, found {tok!r}", pos)

    def fail(self, msg):
        raise ParseError(msg, self.toks[self.i][1])

    def formula(self):
        left = self.imp()
        if self.peek() == "<->":
            self.next()
            right = self.imp()
            return And(Imp(left, right), Imp(right, left))
        return left

    def imp(self):
        left = self.disj()
        if self.peek() == "->":
            self.next()
            return Imp(left, self.imp())
        return left

    def disj(self):
        left = self.conj()
        if self.peek() == "|":
            self.next()
            return Or(left, self.disj())
        return left

    def conj(self):
        left = self.unit()
        if self.peek() == "&":
            self.next()
            return And(left, self.conj())
        return left

    def unit(self):
        tok, pos = self.toks[self.i]
        if tok == "(":
            self.next()
            out = self.formula()
            self.expect(")")
            return out
        if tok == "true":
            self.next()
            return TOP
        if tok == "false":
            self.next()
            return BOTTOM
        if tok in ("forall", "exists"):
            self.next()
            var, vpos = self.next()
            if (var is None or var in ("true", "false", "forall", "exists")
                    or not (var[0].isalpha() or var[0] == "_")):
                raise ParseError("expected a variable after quantifier", vpos)
            self.expect(".")
            self.bound.append(var)
            body = self.formula()
            self.bound.pop()
            return (Forall if tok == "forall" else Exists)(var, body)
        if tok is None:
            raise ParseError("unexpected end of input", pos)
        return self.atom_or_identity()

    def atom_or_identity(self):
        tok, pos = self.toks[self.i]
        # relation applications are recognised up front; anything else is a
        # term, which must then continue as an identity atom or stand alone
        # as a propositional letter
        if tok is not None and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            if self._is_relation(tok):
                return self.relation_atom()
        t = self.term()
        if self.peek() == "=":
            self.next()
            t2 = self.term()
            self._note_relation("=", 2, pos)
            self._register_term_constants(t)
            self._register_term_constants(t2)
            return Atom("=", (t, t2))
        # bare name in formula position: propositional letter
        if isinstance(t, Const) and t.name not in self.constants:
            self._note_relation(t.name, 0, pos)
            return Atom(t.name)
        raise ParseError(f"term {pretty_term(t)} is not a formula", pos)

    def _is_relation(self, name):
        if name in self.relations:
            return True
        if self.infer:
            # a known constant/function is never a relation; fresh names in
            # formula position become relations unless an identity sign
            # puts them in term position
            if name in self.constants or name in self.functions:
                return False
            if name in self.bound or name in self.free_names:
                return False
            j = self.i + 1
            if self.toks[j][0] == "(":
                depth, k = 0, j
                while self.toks[k][0] is not None:
                    tok = self.toks[k][0]
                    if tok == "(":
                        depth += 1
                    elif tok == ")":
                        depth -= 1
                        if depth == 0:
                            return self.toks[k + 1][0] != "="
                    k += 1
                return True
            return self.toks[j][0] != "="
        return False

    def _register_term_constants(self, t):
        # inference mode: fresh names that really sit in term position
        if not self.infer:
            return
        if isinstance(t, Const) and t.name not in self.constants \
                and t.name not in self.functions and t.name not in self.relations:
            self.constants.add(t.name)
        elif isinstance(t, Fn):
            for a in t.args:
                self._register_term_constants(a)

    def _note_relation(self, name, arity, pos):
        known = self.relations.get(name)
        if known is not None:
            if known != arity:
                raise ParseError(f"relation {name} used with arity {arity}, expected {known}", pos)
            return
        if not self.infer:
            raise ParseError(f"unknown relation {name!r}", pos)
        if name in self.constants or name in self.functions:
            raise ParseError(f"{name!r} used both as term and relation", pos)
        self.relations[name] = arity

    def relation_atom(self):
        name, pos = self.next()
        args = ()
        if self.peek() == "(":
            self.next()
            args = (self.term(),)
            while self.peek() == ",":
                self.next()
                args += (self.term(),)
            self.expect(")")
        self._note_relation(name, len(args), pos)
        for a in args:
            self._register_term_constants(a)
        return Atom(name, args)

    def term(self):
        tok, pos = self.next()
        if tok is None:
            raise ParseError("unexpected end of input", pos)
        if tok.startswith("#"):
            return Param(int(tok[1:]))
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            raise ParseError(f"expected a term, found {tok!r}", pos)
        if tok in ("true", "false", "forall", "exists"):
            raise ParseError(f"keyword {tok!r} is not a term", pos)
        if self.peek() == "(":
            self.next()
            args = (self.term(),)
            while self.peek() == ",":
                self.next()
                args += (self.term(),)
            self.expect(")")
            known = self.functions.get(tok)
            if known is None:
                if not self.infer:
                    raise ParseError(f"unknown function {tok!r}", pos)
                if tok in self.constants or tok in self.relations:
                    raise ParseError(f"{tok!r} used inconsistently", pos)
                self.functions[tok] = len(args)
            elif known != len(args):
                raise ParseError(f"function {tok} used with arity {len(args)}, expected {known}", pos)
            return Fn(tok, args)
        if tok in self.bound:
            return Var(tok)
        if tok in self.free_names:
            return Var(tok)
        if tok in self.constants:
            return Const(tok)
        if tok in self.functions or tok in self.relations:
            raise ParseError(f"{tok!r} used both as term and "
                             f"{'function' if tok in self.functions else 'relation'}", pos)
        if self.infer:
            # classification of fresh names is finished by the caller
            return Const(tok)
        raise ParseError(f"unknown symbol {tok!r}", pos)


def parse_formula(text: str, sig: Signature, free_vars=()) -> Formula:
    """Parse ``text`` against the signature; unknown symbols are errors.

    ``free_vars`` names are read as free variables (for open formulas).
    """
    p = _Parser(_tokenize(text), sig, infer=False, free_names=free_vars)
    out = p.formula()
    tok, pos = p.toks[p.i]
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", pos)
    return out


def parse_inferring(text: str, seed: Signature | None = None, free_vars=()):
    """Parse with signature inference: fresh names in formula position become
    relations, fresh names in term position constants.  Returns
    ``(formula, signature)``."""
    base = seed or Signature()
    p = _Parser(_tokenize(text), base, infer=True, free_names=free_vars)
    out = p.formula()
    tok, pos = p.toks[p.i]
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", pos)
    inferred = Signature(frozenset(p.constants), dict(p.functions),
                         dict(p.relations), base.identity_mode)
    return out, inferred


def infer_signature(texts_or_formulas, identity_mode="absent") -> Signature:
    """Join signature over parsed texts and/or formula objects."""
    constants, functions, relations = set(), {}, {}
    cur = Signature()
    formulas = []
    for item in texts_or_formulas:
        if isinstance(item, str):
            phi, cur = parse_inferring(item, seed=cur)
            formulas.append(phi)
        else:
            formulas.append(item)
    constants |= set(cur.constants)
    functions.update(cur.functions)
    relations.update(cur.relations)
    for phi in formulas:
        _collect_symbols(phi, constants, functions, relations)
    if identity_mode != "absent":
        relations["="] = 2
    return Signature(frozenset(constants), functions, relations, identity_mode)


def _collect_symbols(phi, constants, functions, relations):
    if isinstance(phi, Atom):
        prev = relations.get(phi.rel)
        if prev is not None and prev != len(phi.args):
            raise SignatureError(f"relation {phi.rel} used with two arities")
        relations[phi.rel] = len(phi.args)
        for t in (s for a in phi.args for s in subterms(a)):
            if isinstance(t, Const):
                constants.add(t.name)
            elif isinstance(t, Fn):
                prev = functions.get(t.name)
                if prev is not None and prev != len(t.args):
                    raise SignatureError(f"function {t.name} used with two arities")
                functions[t.name] = len(t.args)
    elif isinstance(phi, BINARY):
        _collect_symbols(phi.left, constants, functions, relations)
        _collect_symbols(phi.right, constants, functions, relations)
    elif isinstance(phi, QUANT):
        _collect_symbols(phi.body, constants, functions, relations)


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

def pretty_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Param):
        return f"#{t.index}"
    return f"{t.name}({', '.join(pretty_term(a) for a in t.args)})"


_PREC = {Imp: 1, Or: 2, And: 3}
_OPS = {Imp: "->", Or: "|", And: "&"}


def pretty(phi: Formula) -> str:
    """Minimal-parenthesis rendering; ``parse(pretty(phi)) == phi``."""
    return _render(phi, 0)


def _render(phi, ctx):
    if isinstance(phi, Top):
        return "true"
    if isinstance(phi, Bottom):
        return "false"
    if isinstance(phi, Atom):
        if phi.rel == "=" and len(phi.args) == 2:
            s = f"{pretty_term(phi.args[0])} = {pretty_term(phi.args[1])}"
            return s
        if not phi.args:
            return phi.rel
        return f"{phi.rel}({', '.join(pretty_term(a) for a in phi.args)})"
    if isinstance(phi, QUANT):
        kw = "forall" if isinstance(phi, Forall) else "exists"
        s = f"{kw} {phi.var}. {_render(phi.body, 0)}"
        return f"({s})" if ctx > 0 else s
    prec = _PREC[type(phi)]
    s = f"{_render(phi.left, prec + 1)} {_OPS[type(phi)]} {_render(phi.right, prec)}"
    return f"({s})" if ctx > prec else s
