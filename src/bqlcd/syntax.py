"""First-order syntax: signatures, terms, formulas, parsing and printing.

The term language has a countable stock of parameter constants written
``#0``, ``#1``, ... in text; they act as names for arbitrarily chosen
objects inside derivations and never collide with user constants.

Every rewrite of the terms in a formula (substitution, renaming and
generalising parameters) goes through ``map_terms``.

The parser gives each name the kind its place gives it, with no lookahead:
the head of an atom is a relation unless ``=`` follows it; inside a term a
name with arguments is a function, a bound (or given free) name a variable
and any other name a constant.  A bound name heads an atom only if already
a relation; against a fixed signature, a head not known as a relation is
read as a term.  ``Symbols.note`` checks every use of a name, in texts and
formula objects alike, and adds fresh names only when inferring.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass, field
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
# terms and formulas
# ---------------------------------------------------------------------------

class _Node:
    """Base of terms and formulas.  Every concrete class is a frozen dataclass
    with ``__slots__`` and no instance dict; each field's slot is on its
    concrete class.  ``free`` is the set of the node's free variable names
    and ``params`` the set of its parameter indices, the two slots of this
    class.  The ``__init__`` of a node writes its fields and both facts in
    one step, through the slots' setters bound once (``_setters`` holds the
    fields' setters, in field order), computing the facts from its parts'
    facts; an empty set is the one shared ``frozenset()``.  The facts are
    not dataclass fields, so neither takes part in ``repr``, ``==`` or
    ``hash``.  A copy or a pickle rebuilds the node through its constructor,
    which computes the facts again."""

    __slots__ = ("free", "params")

    def __init__(self):
        _set_free(self, _EMPTY)
        _set_params(self, _EMPTY)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    # ``dataclass(slots=True)`` rebuilds each class, after which the frozen
    # ``__setattr__`` and ``__delattr__`` it generated fail with TypeError on
    # a name that is not a field; each concrete class drops them for these,
    # which refuse every name, the facts included.
    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


_EMPTY = frozenset()
_set_free = _Node.free.__set__
_set_params = _Node.params.__set__


class _Applied(_Node):
    """``Fn`` and ``Atom``: a head and argument terms."""

    __slots__ = ()

    def _build(self, head, args):
        set_head, set_args = self._setters
        set_head(self, head)
        set_args(self, args)
        free = params = _EMPTY
        for part in args:
            if part.free:
                free = free | part.free if free else part.free
            if part.params:
                params = params | part.params if params else part.params
        _set_free(self, free)
        _set_params(self, params)


class _Binary(_Node):
    """``And``, ``Or`` and ``Imp``: the fields and the facts are written in
    one step, since formulas are built in every hot loop."""

    __slots__ = ()

    def __init__(self, left, right):
        set_left, set_right = self._setters
        set_left(self, left)
        set_right(self, right)
        a, b = left.free, right.free
        _set_free(self, a | b if a and b else a or b)
        a, b = left.params, right.params
        _set_params(self, a | b if a and b else a or b)


class _Binder(_Node):
    """``Forall`` and ``Exists``: a bound variable and a body."""

    __slots__ = ()

    def __init__(self, var, body):
        set_var, set_body = self._setters
        set_var(self, var)
        set_body(self, body)
        free = body.free
        _set_free(self, free - {var} or _EMPTY if var in free else free)
        _set_params(self, body.params)


@dataclass(frozen=True, slots=True, init=False)
class Var(_Node):
    name: str

    def __init__(self, name):
        (set_name,) = self._setters
        set_name(self, name)
        _set_free(self, frozenset((name,)))
        _set_params(self, _EMPTY)


@dataclass(frozen=True, slots=True, init=False)
class Const(_Node):
    name: str

    def __init__(self, name):
        (set_name,) = self._setters
        set_name(self, name)
        _set_free(self, _EMPTY)
        _set_params(self, _EMPTY)


@dataclass(frozen=True, slots=True, init=False)
class Param(_Node):
    index: int

    def __init__(self, index):
        (set_index,) = self._setters
        set_index(self, index)
        _set_free(self, _EMPTY)
        _set_params(self, frozenset((index,)))


@dataclass(frozen=True, slots=True, init=False)
class Fn(_Applied):
    name: str
    args: tuple["Term", ...]

    def __init__(self, name, args):
        self._build(name, args)


Term = Union[Var, Const, Param, Fn]


@dataclass(frozen=True, slots=True, init=False)
class Top(_Node):
    pass


@dataclass(frozen=True, slots=True, init=False)
class Bottom(_Node):
    pass


@dataclass(frozen=True, slots=True, init=False)
class Atom(_Applied):
    rel: str
    args: tuple[Term, ...] = ()

    def __init__(self, rel, args=()):
        self._build(rel, args)


@dataclass(frozen=True, slots=True, init=False)
class And(_Binary):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True, init=False)
class Or(_Binary):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True, init=False)
class Imp(_Binary):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True, init=False)
class Forall(_Binder):
    var: str
    body: "Formula"


@dataclass(frozen=True, slots=True, init=False)
class Exists(_Binder):
    var: str
    body: "Formula"


# each concrete class drops the frozen ``__setattr__`` and ``__delattr__``
# of ``dataclass`` for ``_Node``'s and keeps the setters of its fields' slots
for _cls in (Var, Const, Param, Fn, Top, Bottom, Atom, And, Or, Imp, Forall, Exists):
    del _cls.__setattr__, _cls.__delattr__
    _cls._setters = tuple(getattr(_cls, name).__set__ for name in _cls.__match_args__)


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


def free_vars(phi: Formula) -> frozenset:
    return phi.free


def is_sentence(phi: Formula) -> bool:
    return not phi.free


def parameters_of(x) -> frozenset:
    """Exact set of parameter indices occurring in a term, a formula or a
    proof tree: anything else is walked through its ``conclusion`` and
    ``children`` attributes."""
    if isinstance(x, _Node):
        return x.params
    out, stack = set(), [x]
    while stack:
        nd = stack.pop()
        out |= nd.conclusion.params
        stack.extend(nd.children)
    return frozenset(out)


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
    if t.free:
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
    if var not in body.free:
        return (body == target, None)
    cand = _find_instantiation(body, var, target)
    ok = (cand is not None and not cand.free
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

_KEYWORDS = ("true", "false", "forall", "exists")

# the binary connectives, weakest first
_BINARY_LEVELS = (("->", Imp), ("|", Or), ("&", And))

# each kind of name in messages; sorted kinds put "term" first
_KIND_WORDS = {"const": "term", "fn": "function", "rel": "relation"}


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


def _is_name(tok) -> bool:
    return tok is not None and (tok[0].isalpha() or tok[0] == "_")


class Symbols:
    """The names of a signature, each with its kind (``"const"``, ``"fn"``
    or ``"rel"``) and arity.  ``note`` checks every use of a name, in texts
    and in formula objects alike; a fresh name is added when ``infer`` is
    set and is an error otherwise."""

    def __init__(self, sig: Signature, infer: bool):
        self.infer = infer
        self.kinds = {name: ("const", 0) for name in sig.constants}
        self.kinds.update((name, ("fn", n)) for name, n in sig.functions.items())
        self.kinds.update((name, ("rel", n)) for name, n in sig.relations.items())

    def note(self, kind, name, arity, pos=None):
        known = self.kinds.get(name)
        if known == (kind, arity):
            return
        if known is None:
            if self.infer:
                self.kinds[name] = (kind, arity)
                return
            what = "symbol" if kind == "const" else _KIND_WORDS[kind]
            raise ParseError(f"unknown {what} {name!r}", pos)
        if known[0] == kind:
            raise ParseError(f"{_KIND_WORDS[kind]} {name} used with arity "
                             f"{arity}, expected {known[1]}", pos)
        first, second = sorted((kind, known[0]))
        raise ParseError(f"{name!r} used both as {_KIND_WORDS[first]} and "
                         f"{_KIND_WORDS[second]}", pos)

    def parse(self, text: str, free_vars=()) -> Formula:
        """Parse ``text``, reading ``free_vars`` names as free variables."""
        p = _Parser(_tokenize(text), self, free_vars)
        out = p.formula()
        tok, pos = p.toks[p.i]
        if tok is not None:
            raise ParseError(f"trailing input {tok!r}", pos)
        return out

    def read(self, phi: Formula) -> None:
        """Note every symbol of the formula object ``phi``."""
        stack = [phi]
        try:
            while stack:
                x = stack.pop()
                if isinstance(x, Atom):
                    self.note("rel", x.rel, len(x.args))
                    stack.extend(reversed(x.args))
                elif isinstance(x, Fn):
                    self.note("fn", x.name, len(x.args))
                    stack.extend(reversed(x.args))
                elif isinstance(x, Const):
                    self.note("const", x.name, 0)
                elif isinstance(x, BINARY):
                    stack += (x.right, x.left)
                elif isinstance(x, QUANT):
                    stack.append(x.body)
        except ParseError as exc:
            raise SignatureError(str(exc)) from None

    def signature(self, identity_mode="absent") -> Signature:
        tables = {"const": {}, "fn": {}, "rel": {}}
        for name, (kind, arity) in self.kinds.items():
            tables[kind][name] = arity
        if identity_mode != "absent":
            tables["rel"]["="] = 2
        return Signature(frozenset(tables["const"]), tables["fn"], tables["rel"],
                         identity_mode)


class _Parser:
    """Recursive descent over the grammar; `->` is right-associative and
    weakest, `&` binds tighter than `|`, quantifiers take maximal scope.
    Names get their kinds by position, as the module docstring says."""

    def __init__(self, tokens, symbols, free_names):
        self.toks = tokens
        self.i = 0
        self.symbols = symbols
        # the free names act as bound around the whole text
        self.bound: list[str] = list(free_names)

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

    def formula(self):
        left = self.binary()
        if self.peek() == "<->":
            self.next()
            right = self.binary()
            return And(Imp(left, right), Imp(right, left))
        return left

    def binary(self, level=0):
        """The operands of ``_BINARY_LEVELS[level]``, folded to the right by
        a loop, so a long chain costs no recursion.  The operands of the
        last level, ``&``, are units."""
        op, cls = _BINARY_LEVELS[level]
        parts = [self.binary(level + 1) if level < 2 else self.unit()]
        while self.peek() == op:
            self.next()
            parts.append(self.binary(level + 1) if level < 2 else self.unit())
        out = parts.pop()
        while parts:
            out = cls(parts.pop(), out)
        return out

    def unit(self):
        tok, pos = self.toks[self.i]
        if tok == "(":
            self.next()
            out = self.formula()
            self.expect(")")
            return out
        if tok in ("true", "false"):
            self.next()
            return TOP if tok == "true" else BOTTOM
        if tok in ("forall", "exists"):
            self.next()
            var, vpos = self.next()
            if not _is_name(var) or var in _KEYWORDS:
                raise ParseError("expected a variable after quantifier", vpos)
            self.expect(".")
            self.bound.append(var)
            body = self.formula()
            self.bound.pop()
            return (Forall if tok == "forall" else Exists)(var, body)
        if tok is None:
            raise ParseError("unexpected end of input", pos)
        return self.atom()

    def atom(self):
        tok, pos = self.toks[self.i]
        symbols = self.symbols
        # a head is a relation, unless "=" follows and makes it a term
        if _is_name(tok) and (symbols.kinds.get(tok, ("",))[0] == "rel" or
                              symbols.infer and tok not in self.bound):
            self.next()
            args = self.args() if self.peek() == "(" else ()
            if self.peek() != "=":
                symbols.note("rel", tok, len(args), pos)
                return Atom(tok, args)
            symbols.note("fn" if args else "const", tok, len(args), pos)
            left = Fn(tok, args) if args else Const(tok)
        else:
            left = self.term()
            if self.peek() != "=":
                raise ParseError(f"term {pretty_term(left)} is not a formula", pos)
        self.next()
        right = self.term()
        symbols.note("rel", "=", 2, pos)
        return Atom("=", (left, right))

    def args(self):
        self.next()
        out = [self.term()]
        while self.peek() == ",":
            self.next()
            out.append(self.term())
        self.expect(")")
        return tuple(out)

    def term(self):
        tok, pos = self.next()
        if tok is None:
            raise ParseError("unexpected end of input", pos)
        if tok.startswith("#"):
            return Param(int(tok[1:]))
        if not _is_name(tok):
            raise ParseError(f"expected a term, found {tok!r}", pos)
        if tok in _KEYWORDS:
            raise ParseError(f"keyword {tok!r} is not a term", pos)
        if self.peek() == "(":
            args = self.args()
            self.symbols.note("fn", tok, len(args), pos)
            return Fn(tok, args)
        if tok in self.bound:
            return Var(tok)
        self.symbols.note("const", tok, 0, pos)
        return Const(tok)


def parse_formula(text: str, sig: Signature, free_vars=()) -> Formula:
    """Parse ``text`` against the signature; unknown symbols are errors.

    ``free_vars`` names are read as free variables (for open formulas).
    """
    return Symbols(sig, infer=False).parse(text, free_vars)


def parse_inferring(text: str, seed: Signature | None = None, free_vars=()):
    """Parse with signature inference: each fresh name gets the kind its
    place gives it.  Returns ``(formula, signature)``, the signature being
    ``seed`` grown by the fresh names."""
    base = seed or Signature()
    symbols = Symbols(base, infer=True)
    out = symbols.parse(text, free_vars)
    return out, symbols.signature(base.identity_mode)


def infer_signature(texts_or_formulas, identity_mode="absent") -> Signature:
    """Join signature over texts and/or formula objects, read in order into
    one growing table.  A clash raises ``ParseError`` in a text and
    ``SignatureError`` in a formula object."""
    symbols = Symbols(Signature(), infer=True)
    for item in texts_or_formulas:
        if isinstance(item, str):
            symbols.parse(item)
        else:
            symbols.read(item)
    return symbols.signature(identity_mode)


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
