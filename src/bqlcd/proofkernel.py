"""Natural-deduction proof trees and checking.

A proof is a rule-labelled tree of sentences.  Assumption leaves carry ids;
nodes that discharge assumptions list the leaf ids they close.  The checker
enforces, per system:

  C1  only sentences occur in proofs;
  C2  the universal-introduction parameter is fresh for the generalised
      formula and for every open assumption of its subproof;
  C3  the existential-elimination parameter is fresh for the matrix, the
      conclusion and every open assumption of the body besides the witness;
  C4  every open occurrence of the witness assumption is discharged;
  C5  an occurrence sitting inside the right (conditional) premise of a
      modus ponens application below the discharging node may not be
      discharged.

System ids: ``nbqlcd_r`` (full), ``nbqlcd`` = ``nbqlcd[-1]`` (no modus
ponens), ``nbqlcd[n]`` (right premises of modus ponens capped at stratum
n-1), the axiomatic systems ``bd+``, ``djd+``, ``tjd+``, ``tjkd+``, ``tjk+``,
and identity variants ``<nd system>+eq`` / ``<nd system>+eqxm``.

Each axiom schema is written once, as a formula over metavariables, in the
table ``SCHEMAS``.  The first time a schema is used it is compiled into two
straight-line functions, a matcher that the checker and ``match_schema`` run
and a builder that ``schema_instance`` runs for the translations;
a traceback names them ``<schema NAME>``.  Thirteen rules each internalise
an axiom schema read as a rule; ``INTERNALISED`` lists them, and the
checker, the axiom templates and both translations read it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
from dataclasses import dataclass

from .syntax import (
    And, Atom, BINARY, Bottom, Exists, Fn, Forall, Imp, Or, Param, QUANT, TOP,
    Formula, ParseError, Signature, Symbols, _Node, match_instantiation,
    parameters_of, parse_inferring, pretty, replace_param,
)


class ProofJsonError(ValueError):
    pass


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

ASSUME = "assume"

ND_RULES = frozenset({
    "top_int", "bot_elim", "and_int", "and_elim_l", "and_elim_r",
    "or_int_l", "or_int_r", "or_elim", "imp_int", "imp_elim",
    "int_trans", "int_and_int", "int_or_elim", "int_forall_int",
    "int_exists_elim", "forall_int", "forall_elim", "cd",
    "exists_int", "exists_elim",
})

IDENTITY_RULES = frozenset({"eq_int", "eq_elim", "id_xm"})

AX_RULES = frozenset({
    "top_int", "bot_elim", "and_int", "and_elim_l", "and_elim_r",
    "or_int_l", "or_int_r", "or_elim", "imp_elim",
    "forall_int", "forall_elim", "cd", "exists_int", "exists_elim",
    "affixing",
})

DISCHARGING = frozenset({"imp_int", "or_elim", "exists_elim"})

CHILD_COUNT = {
    "top_int": 0, "eq_int": 0, "id_xm": 0,
    "bot_elim": 1, "and_elim_l": 1, "and_elim_r": 1, "or_int_l": 1,
    "or_int_r": 1, "imp_int": 1, "int_forall_int": 1, "int_exists_elim": 1,
    "forall_int": 1, "forall_elim": 1, "cd": 1, "exists_int": 1,
    "and_int": 2, "imp_elim": 2, "int_trans": 2, "int_and_int": 2,
    "int_or_elim": 2, "exists_elim": 2, "eq_elim": 2, "affixing": 2,
    "or_elim": 3,
}


@dataclass(frozen=True, slots=True, init=False)
class Proof:
    """A proof node: a frozen dataclass with ``__slots__`` and no instance
    dict, built in one step through setters bound once.  A copy or a pickle
    rebuilds it through the constructor."""
    rule: str
    conclusion: Formula
    children: tuple = ()
    discharges: frozenset = frozenset()
    leaf_id: str | None = None

    def __init__(self, rule, conclusion, children=(), discharges=frozenset(),
                 leaf_id=None):
        set_rule, set_conclusion, set_children, set_discharges, set_leaf_id = \
            _PROOF_SETTERS
        set_rule(self, rule)
        set_conclusion(self, conclusion)
        set_children(self, children)
        set_discharges(self, discharges)
        set_leaf_id(self, leaf_id)

    def __reduce__(self):
        return Proof, (self.rule, self.conclusion, self.children, self.discharges,
                       self.leaf_id)

    def is_assumption(self):
        return self.rule == ASSUME


# the ``__set__`` of each field's slot, in field order
_PROOF_SETTERS = tuple(getattr(Proof, name).__set__ for name in Proof.__match_args__)
# refuse every name with FrozenInstanceError, as a formula does (see ``_Node``)
Proof.__setattr__, Proof.__delattr__ = _Node.__setattr__, _Node.__delattr__


_fresh_leaf_counter = itertools.count()


def assume(phi: Formula, leaf_id=None) -> Proof:
    if leaf_id is None:
        leaf_id = f"t{next(_fresh_leaf_counter)}"
    return Proof(ASSUME, phi, leaf_id=leaf_id)


def relabel_fresh(p: Proof) -> Proof:
    """Copy with leaf ids fresh from ``assume``'s counter (to insert a proof twice)."""
    return relabel_leaves(p, lambda i: f"t{next(_fresh_leaf_counter)}")


def node(rule: str, conclusion: Formula, children=(), discharges=()) -> Proof:
    return Proof(rule, conclusion, tuple(children), frozenset(discharges))


def _preorder(t: Proof):
    """The nodes of ``t`` in pre-order, children left to right."""
    nodes, stack = [], [t]
    while stack:
        nd = stack.pop()
        nodes.append(nd)
        stack += reversed(nd.children)
    return nodes


def fold(t: Proof, f):
    """``f(node, values)`` at every node, ``values`` being ``f``'s results
    at the node's children, in post-order with children left to right, as
    in a recursion over the tree; returns the result at the root."""
    values, stack = [], [(t, False)]
    while stack:
        nd, ready = stack.pop()
        if ready:
            first = len(values) - len(nd.children)
            got = f(nd, values[first:])
            del values[first:]
            values.append(got)
        elif nd.children:
            stack.append((nd, True))
            stack += [(c, False) for c in reversed(nd.children)]
        else:
            values.append(f(nd, []))
    return values[0]


def proof_size(t: Proof) -> int:
    return len(_preorder(t))


def proof_depth(t: Proof) -> int:
    return fold(t, lambda nd, depths: max(depths, default=-1) + 1)


# ---------------------------------------------------------------------------
# tree analysis
# ---------------------------------------------------------------------------

@dataclass
class Analysis:
    """One pass over a proof.  Node i is the i-th node in pre-order, and its
    subtree is nodes ``i .. end[i] - 1``."""
    nodes: list            # index -> Proof
    kids: list             # index -> indices of the children
    end: list              # index -> one past the last node of its subtree
    strata: list           # index -> stratum of its subtree
    right_of: list         # index -> nearest modus ponens with it in its right premise, or -1
    leaf_node: dict        # leaf id -> index
    leaf_formula: dict     # leaf id -> Formula
    discharged_by: dict    # leaf id -> index of the discharging node
    problems: list         # (kind, index, message): structural issues

    def open_leaves_in(self, i):
        """Leaves in the subtree at i not discharged by a node inside it."""
        end = self.end[i]
        return [lid for lid, j in self.leaf_node.items() if i <= j < end
                and not i <= self.discharged_by.get(lid, -1) < end]

    def unsafe_for(self, leaf_id, i=0):
        """Some modus ponens inside the subtree at i, which holds the leaf,
        has the leaf in its right (conditional-premise) subtree."""
        return self.right_of[self.leaf_node[leaf_id]] >= i

    def names(self, wanted):
        """Index -> ``r``, then the child positions on the way down, for the
        nodes of the sorted list ``wanted`` and those above them: one walk
        down, entering only the subtrees that hold a wanted node."""
        out, stack = {}, [(0, "r")] if wanted else []
        while stack:
            i, name = stack.pop()
            out[i] = name
            for pos, k in enumerate(self.kids[i]):
                if bisect.bisect_left(wanted, k) < bisect.bisect_left(wanted, self.end[k]):
                    stack.append((k, f"{name}.{pos}"))
        return out


def analyze(t: Proof) -> Analysis:
    """One walk in pre-order off an explicit stack records each node, its
    children, ``right_of``, the leaves and the discharging nodes; one
    reverse loop then fills ``end`` and ``strata``."""
    nodes, kids, right_of, discharging = [], [], [], []
    leaf_node, leaf_formula, discharged_by, problems = {}, {}, {}, []
    stack = [(t, -1, -1)]
    pop, push = stack.pop, stack.append
    while stack:
        nd, parent, right = pop()
        i = len(nodes)
        nodes.append(nd)
        right_of.append(right)
        if parent >= 0:
            kids[parent].append(i)
        ch, rule = nd.children, nd.rule
        kids.append([] if ch else ())
        if len(ch) > 1 and rule == "imp_elim":
            for pos in range(len(ch) - 1, -1, -1):
                push((ch[pos], i, i if pos == 1 else right))
        else:
            for c in reversed(ch):
                push((c, i, right))
        if rule == ASSUME:
            lid = nd.leaf_id
            if lid in leaf_node:
                problems.append(("discharge", i, f"duplicate leaf id {lid!r}"))
            leaf_node[lid] = i
            leaf_formula[lid] = nd.conclusion
        if nd.discharges:
            discharging.append(i)
    n = len(nodes)
    end, strata = list(range(1, n + 1)), [-1] * n
    for i in range(n - 1, -1, -1):
        ks = kids[i]
        if ks:
            end[i] = end[ks[-1]]
            s = strata[ks[0]]
            if len(ks) > 1:
                for k in ks:
                    if strata[k] > s:
                        s = strata[k]
                if nodes[i].rule == "imp_elim" and strata[ks[1]] >= s:
                    s = strata[ks[1]] + 1
            strata[i] = s
    for i in discharging:
        for lid in sorted(nodes[i].discharges):
            if lid not in leaf_node:
                problems.append(("discharge", i, f"discharge of unknown leaf {lid!r}"))
            elif not i < leaf_node[lid] < end[i]:
                problems.append(("discharge", i,
                                 f"leaf {lid!r} is not in the subtree it is discharged from"))
            elif lid in discharged_by:
                problems.append(("discharge", i, f"leaf {lid!r} discharged twice"))
            else:
                discharged_by[lid] = i
    return Analysis(nodes, kids, end, strata, right_of, leaf_node, leaf_formula,
                    discharged_by, problems)


def unsafe_leaves(t: Proof) -> frozenset:
    """Leaf ids (open or discharged) lying in the right subtree of some
    modus ponens application."""
    an = analyze(t)
    return frozenset(lid for lid in an.leaf_node if an.unsafe_for(lid))


def open_assumptions(t: Proof) -> frozenset:
    return _opens(analyze(t))[0]


def split_assumptions(t: Proof):
    """(unsafe_open, safe_only_open) sentence sets; the first is the minimal
    left component of a split-context reading of the proof."""
    return _opens(analyze(t))[1:]


def _opens(an):
    """The open assumption sentences, those of them with an unsafe
    occurrence, and the rest."""
    lids = an.open_leaves_in(0)
    unsafe = frozenset(an.leaf_formula[lid] for lid in lids if an.unsafe_for(lid))
    opens = frozenset(an.leaf_formula[lid] for lid in lids)
    return opens, unsafe, opens - unsafe


def stratum(t: Proof) -> int:
    """-1 without modus ponens; otherwise one more than the right-premise
    stratum, maximised over the tree."""
    return analyze(t).strata[0]


# ---------------------------------------------------------------------------
# axiom schemas
# ---------------------------------------------------------------------------

# Each schema is written once, over the formula metavariables A, B, C and
# the variable metavariable x.  In ``forall_inst`` and ``exists_int`` the
# formula B must moreover be A with a closed term put for x.
SCHEMAS = {name: parse_inferring(text)[0] for name, text in {
    "identity": "A -> A",
    "imp_top": "A -> true",
    "ex_falso": "false -> A",
    "and_comp": "(A -> B) & (A -> C) -> (A -> B & C)",
    "and_elim_l": "A & B -> A",
    "and_elim_r": "A & B -> B",
    "or_int_l": "A -> A | B",
    "or_int_r": "B -> A | B",
    "or_comp": "(A -> C) & (B -> C) -> (A | B -> C)",
    "distribution": "A & (B | C) -> A & B | A & C",
    "forall_imp": "(forall x. A -> B) -> (A -> (forall x. B))",
    "forall_inst": "(forall x. A) -> B",
    "exists_int": "B -> (exists x. A)",
    "exists_imp": "(forall x. A -> B) -> ((exists x. A) -> B)",
    "cd": "(forall x. A | B) -> A | (forall x. B)",
    "inf_distribution": "A & (exists x. B) -> (exists x. A & B)",
    "transitivity": "(A -> B) & (B -> C) -> (A -> C)",
    "suffixing": "(A -> B) -> ((B -> C) -> (A -> C))",
    "prefixing": "(A -> B) -> ((C -> A) -> (C -> B))",
    "weakening": "A -> (B -> A)",
}.items()}

_INSTANTIATING = frozenset({"forall_inst", "exists_int"})


def match_schema(name: str, f: Formula):
    """The metavariable bindings under which ``f`` instantiates the schema,
    or None; a repeated metavariable binds equal parts of ``f``.  The keys
    come in the order a left to right walk of the schema first meets them.
    Runs the schema's matcher, compiled the first time the schema is used."""
    bindings = _KERNELS[name][0](f)
    if bindings is not None and name in _INSTANTIATING and not match_instantiation(
            bindings["A"], bindings["x"], bindings["B"])[0]:
        return None
    return bindings


def schema_instance(name: str, **bindings) -> Formula:
    """The schema with every metavariable replaced by its binding.  Runs
    the schema's builder, compiled the first time the schema is used."""
    return _KERNELS[name][1](bindings)


class _Kernels(dict):
    """Schema name -> (matcher, builder), each compiled on first use, so
    importing the package compiles nothing."""

    def __missing__(self, name):
        got = self[name] = _compile_schema(name, SCHEMAS[name])
        return got


_KERNELS = _Kernels()


def _compile_schema(name, pat):
    """Two straight-line functions for the schema ``pat``.  ``match(f)``
    walks ``pat`` left to right in type tests and field reads, compares a
    repeated metavariable's parts by ``is``, then ``==``, and returns the
    bindings or None.  ``build(bindings)`` constructs the instance; a
    constant such as ``true`` is the schema's own object."""
    namespace, seen, test = {}, {}, []

    def walk(p, at):
        if isinstance(p, Atom):
            if p.rel in seen:
                test.append(f"if {at} is not {seen[p.rel]} and {seen[p.rel]} != {at}: "
                            f"return None")
            else:
                seen[p.rel] = at
            return
        kind = type(p).__name__
        namespace[kind] = type(p)
        test.append(f"if type({at}) is not {kind}: return None")
        if isinstance(p, QUANT):
            if p.var in seen:
                test.append(f"if {seen[p.var]} != {at}.var: return None")
            else:
                seen[p.var] = f"{at}v"
                test.append(f"{at}v = {at}.var")
            test.append(f"{at}b = {at}.body")
            walk(p.body, f"{at}b")
        elif isinstance(p, BINARY):
            for side, field in (("l", "left"), ("r", "right")):
                test.append(f"{at}{side} = {at}.{field}")
                walk(getattr(p, field), at + side)

    def instance(p):
        if isinstance(p, Atom):
            return p.rel
        if isinstance(p, QUANT):
            return f"{type(p).__name__}({p.var}, {instance(p.body)})"
        if isinstance(p, BINARY):
            return f"{type(p).__name__}({instance(p.left)}, {instance(p.right)})"
        const = f"K{len(namespace)}"
        namespace[const] = p
        return const

    walk(pat, "f")
    found = ", ".join(f"{meta!r}: {local}" for meta, local in seen.items())
    reads = "".join(f"    {meta} = bindings[{meta!r}]\n" for meta in seen)
    source = ("def match(f):\n" + "".join(f"    {line}\n" for line in test)
              + f"    return {{{found}}}\n\n"
              + f"def build(bindings):\n{reads}    return {instance(pat)}\n")
    exec(compile(source, f"<schema {name}>", "exec"), namespace)
    return namespace["match"], namespace["build"]


BASE_AXIOMS = frozenset({
    "identity", "imp_top", "ex_falso", "and_comp", "and_elim_l", "and_elim_r",
    "or_int_l", "or_int_r", "or_comp", "distribution", "forall_imp",
    "forall_inst", "exists_int", "exists_imp", "cd", "inf_distribution",
})

AXIOMS_BY_LEVEL = {
    "b": BASE_AXIOMS,
    "dj": BASE_AXIOMS | {"transitivity"},
    "tj": BASE_AXIOMS | {"transitivity", "suffixing", "prefixing"},
    "tjk": BASE_AXIOMS | {"transitivity", "suffixing", "prefixing", "weakening"},
}

# rule -> (axiom schema, message when the node does not fit): premises P
# (or P1, P2) and conclusion C fit the rule iff ``internal_instance`` of
# them instantiates the schema
INTERNALISED = {
    "bot_elim": ("ex_falso", "premise must be the falsity constant"),
    "and_elim_l": ("and_elim_l", "conclusion is not the left conjunct of the premise"),
    "and_elim_r": ("and_elim_r", "conclusion is not the right conjunct of the premise"),
    "or_int_l": ("or_int_l", "premise is not the left disjunct of the conclusion"),
    "or_int_r": ("or_int_r", "premise is not the right disjunct of the conclusion"),
    "forall_elim": ("forall_inst", "conclusion is not an instance of the premise"),
    "exists_int": ("exists_int", "premise is not an instance of the conclusion"),
    "cd": ("cd", "conclusion does not pull the quantifier inside the disjunction"),
    "int_forall_int": ("forall_imp", "premise is not the internalised form of the conclusion"),
    "int_exists_elim": ("exists_imp", "premise is not the internalised form of the conclusion"),
    "int_trans": ("transitivity", "premises do not chain"),
    "int_and_int": ("and_comp", "premises do not combine under one antecedent"),
    "int_or_elim": ("or_comp", "premises do not combine under one consequent"),
}


def internal_instance(premises, concl: Formula) -> Formula:
    """``P -> C``, or ``P1 & P2 -> C`` for two premises."""
    return Imp(premises[0] if len(premises) == 1 else And(*premises), concl)


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class System:
    kind: str                       # "nd" or "ax"
    stratum_bound: int | None = None  # nd: None = unrestricted, -1 = none
    identity: str = "absent"
    level: str = "tjk"              # ax only
    exists_elim: bool = True        # ax only

    def __post_init__(self):
        if self.identity not in IDENTITY_SUFFIXES:
            raise ValueError(f"unknown identity mode {self.identity!r}, expected one of "
                             f"{', '.join(IDENTITY_SUFFIXES)}")
        if self.stratum_bound is not None and self.stratum_bound < -1:
            raise ValueError(f"stratum bound must be -1 or more, got {self.stratum_bound}")

    @property
    def name(self):
        if self.kind == "ax":
            return _AX_NAMES[self.level, self.exists_elim]
        base = "nbqlcd_r" if self.stratum_bound is None else (
            "nbqlcd" if self.stratum_bound == -1 else f"nbqlcd[{self.stratum_bound}]")
        return base + IDENTITY_SUFFIXES[self.identity]


# axiomatic system name -> (axiom level, whether witness elimination is a rule)
AX_SYSTEMS = {"bd+": ("b", True), "djd+": ("dj", True), "tjd+": ("tj", True),
              "tjkd+": ("tjk", True), "tjk+": ("tjk", False)}
_AX_NAMES = {v: k for k, v in AX_SYSTEMS.items()}
# identity mode -> suffix of the nd system name
IDENTITY_SUFFIXES = {"absent": "", "congruence": "+eq", "strict": "+eqxm"}


@functools.lru_cache(maxsize=32)
def parse_system(s) -> System:
    if isinstance(s, System):
        return s
    text = s.strip().lower()
    identity = next((mode for mode, suffix in IDENTITY_SUFFIXES.items()
                     if suffix and text.endswith(suffix)), "absent")
    text = text[:len(text) - len(IDENTITY_SUFFIXES[identity])]
    if text in AX_SYSTEMS:
        if identity != "absent":
            raise ValueError("identity rules are only wired into the nd systems")
        level, ee = AX_SYSTEMS[text]
        return System("ax", level=level, exists_elim=ee)
    if text == "nbqlcd_r":
        return System("nd", None, identity)
    if text == "nbqlcd":
        return System("nd", -1, identity)
    if text.startswith("nbqlcd[") and text.endswith("]"):
        return System("nd", int(text[7:-1]), identity)
    raise ValueError(f"unknown system {s!r}")


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

@dataclass
class Violation:
    node: str
    constraint: str
    message: str

    def to_json(self):
        return {"node": self.node, "constraint": self.constraint, "message": self.message}


@dataclass
class CheckReport:
    valid: bool
    violations: list
    stratum: int
    open_assumptions: frozenset
    unsafe_open: frozenset
    safe_open: frozenset
    nodes: int                      # the number of nodes checked

    def to_json(self):
        return {"valid": self.valid,
                "violations": [v.to_json() for v in self.violations]}


def check_proof(t: Proof, system) -> CheckReport:
    """Check ``t`` in ``system`` (a ``System`` or its name).  The report lists
    the analysis' structural problems, then each node's violations, nodes in
    pre-order.  Only reported nodes are named, in one walk down, by their child
    positions: ``r.2.0`` is the first premise of the root's third premise."""
    return check_analysis(analyze(t), system)


def check_analysis(an: Analysis, system) -> CheckReport:
    """``check_proof`` of the proof that ``an`` analyses.  Each node with a
    sentence for its label goes to its rule's checker in ``_rule_table``."""
    system = parse_system(system)
    table = _rule_table(system)
    found = [(i, kind, msg) for kind, i, msg in an.problems]
    for i, nd in enumerate(an.nodes):
        if nd.conclusion.free:
            got = (("C1", f"label is not a sentence: {pretty(nd.conclusion)}"),)
        else:
            got = (table.get(nd.rule) or _unlisted(nd.rule, system))(nd, i, an)
        if got:
            found += [(i, kind, msg) for kind, msg in got]
    names = an.names(sorted({i for i, _, _ in found}))
    out = [Violation(names[i], kind, msg) for i, kind, msg in found]
    return CheckReport(not out, out, an.strata[0], *_opens(an), len(an.nodes))


@functools.lru_cache(maxsize=32)
def _rule_table(system: System) -> dict:
    """Rule -> the checker ``(node, index, analysis)`` of a node with that
    rule in ``system``, for ``assume``, each rule of any system and each
    ``axiom:`` schema; it returns None or the node's (constraint, message)
    pairs."""
    if system.kind == "ax":
        allowed = AX_RULES if system.exists_elim else AX_RULES - {"exists_elim"}
    else:
        allowed = ND_RULES | {"congruence": {"eq_int", "eq_elim"},
                              "strict": IDENTITY_RULES}.get(system.identity, set())
        if system.stratum_bound == -1:
            allowed = allowed - {"imp_elim"}
    leaf = (("rule", "assumption leaves have no children or discharges"),)
    table = {ASSUME: lambda nd, i, an: leaf if nd.children or nd.discharges else None}
    for rule in ND_RULES | IDENTITY_RULES | AX_RULES:
        table[rule] = (functools.partial(_check_step, _SHAPES[rule], system)
                       if rule in allowed else
                       _reporter("system", f"rule {rule} is not part of {system.name}"))
    for schema in SCHEMAS:
        table[f"axiom:{schema}"] = _axiom_checker(schema, system)
    return table


def _reporter(constraint, message):
    found = ((constraint, message),)
    return lambda nd, i, an: found


def _unlisted(rule, system):
    """The checker of a rule the table lacks: an unknown rule or schema."""
    if rule.startswith("axiom:"):
        return _axiom_checker(rule[6:], system)
    return _reporter("rule", f"unknown rule {rule!r}")


def _axiom_checker(schema, system):
    """The checker of ``axiom:<schema>`` nodes: the schema's compiled matcher."""
    if system.kind != "ax":
        return _reporter("system", "axiom leaves only occur in the axiomatic systems")
    premises = (("rule", "axiom nodes take no premises"),)
    if schema not in SCHEMAS or schema not in AXIOMS_BY_LEVEL[system.level]:
        fault = ((("rule", f"unknown axiom schema {schema!r}"),) if schema not in SCHEMAS
                 else (("system", f"axiom {schema} is not available in {system.name}"),))
        return lambda nd, i, an: premises if nd.children or nd.discharges else fault
    match = (functools.partial(match_schema, schema) if schema in _INSTANTIATING
             else _KERNELS[schema][0])

    def check(nd, i, an):
        if nd.children or nd.discharges:
            return premises
        if match(nd.conclusion) is None:
            return (("rule", f"conclusion does not instantiate {schema}: "
                             f"{pretty(nd.conclusion)}"),)
    return check


def _check_step(shape, system, nd, i, an):
    """The checker of a node whose rule ``system`` has: premise count,
    discharges on a rule that makes none, then the rule's ``shape``."""
    want = CHILD_COUNT[nd.rule]
    if len(nd.children) != want:
        return _fault(f"{nd.rule} expects {want} premises, got {len(nd.children)}")
    found = shape(nd, i, an, system)
    if nd.discharges and nd.rule not in DISCHARGING:
        return (("discharge", f"rule {nd.rule} cannot discharge assumptions"), *(found or ()))
    return found


def _discharge_faults(nd, i, an, slots, system):
    """``slots``: (premise index, required formula) pairs.  Every discharged
    leaf must be an open occurrence of a slot formula inside the matching
    premise; in the simplified systems it must additionally be safe there
    (C5).  The axiomatic systems discharge unrestrictedly."""
    found = []
    for lid in sorted(nd.discharges):
        if an.discharged_by.get(lid) != i:
            continue  # unknown or misplaced, reported during the analysis
        j = an.leaf_node[lid]
        if not any(k <= j < an.end[k] and an.leaf_formula[lid] == want for k, want in slots):
            found.append(("discharge",
                          f"leaf {lid!r} ({pretty(an.leaf_formula[lid])}) does not match "
                          f"a dischargeable assumption of this rule"))
        elif system.kind == "nd" and an.unsafe_for(lid, i):
            found.append(("C5", f"leaf {lid!r} occurs unsafely and may not be discharged"))
    return found


def _eigenparam_for_forall(nd):
    """(index or None, error) for a universal introduction node."""
    concl, premise = nd.conclusion, nd.children[0].conclusion
    if not isinstance(concl, Forall):
        return None, "conclusion is not universally quantified"
    body, v = concl.body, concl.var
    if v not in body.free:
        if premise != body:
            return None, "vacuous generalisation must repeat its premise"
        return None, None
    ok, t = match_instantiation(body, v, premise)
    if not isinstance(t, Param):
        return None, "premise does not instantiate the conclusion with a parameter"
    if not ok:
        return None, "premise does not match the generalised formula"
    return t.index, None


def _eigenparam_for_exists(nd, an):
    """(index or None, witness_formula or None, error)."""
    major, body_node = nd.children
    ex = major.conclusion
    if not isinstance(ex, Exists):
        return None, None, "major premise is not existentially quantified"
    matrix, v = ex.body, ex.var
    discharged = sorted(nd.discharges)
    if v not in matrix.free:
        return None, matrix, None
    if not discharged:
        return None, None, None  # vacuous: any fresh parameter works
    formulas = {an.leaf_formula[lid] for lid in discharged if lid in an.leaf_formula}
    if len(formulas) != 1:
        return None, None, "discharged witness occurrences are not uniform"
    xi = formulas.pop()
    ok, t = match_instantiation(matrix, v, xi)
    if not (ok and isinstance(t, Param)):
        return None, None, "discharged assumptions are not a parameter instance of the matrix"
    return t.index, xi, None


# rule -> its shape check ``(node, index, analysis, system)``, run on a node
# with the rule's number of premises; it returns None or (constraint, message)
# pairs

def _fault(message):
    return (("rule", message),)


def _shape_internalised(nd, i, an, system):
    if nd.rule == "forall_elim" and not isinstance(nd.children[0].conclusion, Forall):
        return _fault("premise is not universally quantified")
    if nd.rule == "exists_int" and not isinstance(nd.conclusion, Exists):
        return _fault("conclusion is not existentially quantified")
    schema, message = INTERNALISED[nd.rule]
    premises = [c.conclusion for c in nd.children]
    if match_schema(schema, internal_instance(premises, nd.conclusion)) is None:
        return _fault(message)


def _shape_top_int(nd, i, an, system):
    if nd.conclusion != TOP:
        return _fault("the truth constant is the only conclusion here")


def _shape_and_int(nd, i, an, system):
    concl, (left, right) = nd.conclusion, nd.children
    if not (type(concl) is And and concl.left == left.conclusion
            and concl.right == right.conclusion):
        return _fault("conclusion is not the conjunction of the premises")


def _shape_or_elim(nd, i, an, system):
    concl = nd.conclusion
    major, left, right = (c.conclusion for c in nd.children)
    if not isinstance(major, Or):
        return _fault("major premise is not a disjunction")
    if left != concl or right != concl:
        return _fault("branches must conclude the main conclusion")
    ks = an.kids[i]
    return _discharge_faults(nd, i, an, ((ks[1], major.left), (ks[2], major.right)), system)


def _shape_imp_int(nd, i, an, system):
    concl = nd.conclusion
    if not isinstance(concl, Imp):
        return _fault("conclusion of conditional proof must be a conditional")
    if nd.children[0].conclusion != concl.right:
        return _fault("premise must be the consequent of the conclusion")
    return _discharge_faults(nd, i, an, ((an.kids[i][0], concl.left),), system)


def _shape_imp_elim(nd, i, an, system):
    minor, major = nd.children[0].conclusion, nd.children[1].conclusion
    if not (isinstance(major, Imp) and major.left == minor and major.right == nd.conclusion):
        return _fault("premises do not fit modus ponens")
    bound = system.stratum_bound
    if bound is not None and bound >= 0 and system.kind == "nd":
        got = an.strata[an.kids[i][1]]
        if got >= bound:
            return (("system", f"right premise has stratum {got}, needs < {bound}"),)


def _shape_forall_int(nd, i, an, system):
    idx, err = _eigenparam_for_forall(nd)
    if err:
        return _fault(err)
    if idx is None:
        return None
    found = [("C2", f"parameter #{idx} occurs in the generalised formula")
             ] if idx in nd.conclusion.body.params else []
    return found + _pinned("C2", idx, an, an.open_leaves_in(an.kids[i][0]))


def _pinned(constraint, idx, an, lids):
    """A fault for each leaf of ``lids`` whose formula has the parameter."""
    return [(constraint, f"parameter #{idx} occurs in open assumption "
                         f"{pretty(an.leaf_formula[lid])}")
            for lid in lids if idx in an.leaf_formula[lid].params]


def _shape_exists_elim(nd, i, an, system):
    concl = nd.conclusion
    if nd.children[1].conclusion != concl:
        return _fault("body must conclude the main conclusion")
    idx, xi, err = _eigenparam_for_exists(nd, an)
    if err:
        return _fault(err)
    body = an.kids[i][1]
    kept = [lid for lid in an.open_leaves_in(body) if lid not in nd.discharges]
    found = []
    if xi is not None:
        found += _discharge_faults(nd, i, an, ((body, xi),), system)
        # C4: every open occurrence of the witness inside the body is closed here
        found += [("C4", f"open witness occurrence {lid!r} is not discharged")
                  for lid in kept if an.leaf_formula[lid] == xi]
    if idx is not None:
        if idx in nd.children[0].conclusion.body.params:
            found.append(("C3", f"parameter #{idx} occurs in the quantified matrix"))
        if idx in concl.params:
            found.append(("C3", f"parameter #{idx} occurs in the conclusion"))
        found += _pinned("C3", idx, an, kept)
    return found


def _shape_affixing(nd, i, an, system):
    concl, (first, second) = nd.conclusion, (c.conclusion for c in nd.children)
    if not (isinstance(first, Imp) and isinstance(second, Imp) and isinstance(concl, Imp)
            and isinstance(concl.left, Imp) and isinstance(concl.right, Imp)
            and concl.left.left == first.right and concl.left.right == second.left
            and concl.right.left == first.left and concl.right.right == second.right):
        return _fault("premises do not fit the affixing rule")


def _shape_eq_int(nd, i, an, system):
    c = nd.conclusion
    if not (isinstance(c, Atom) and c.rel == "=" and len(c.args) == 2 and c.args[0] == c.args[1]):
        return _fault("conclusion is not a reflexive identity")


def _shape_eq_elim(nd, i, an, system):
    eq, before = nd.children[0].conclusion, nd.children[1].conclusion
    if not (isinstance(eq, Atom) and eq.rel == "=" and len(eq.args) == 2):
        return _fault("first premise must be an identity")
    if not _replaces(before, nd.conclusion, *eq.args):
        return _fault("conclusion does not replace occurrences of the identified term")


def _shape_id_xm(nd, i, an, system):
    c = nd.conclusion
    if not (isinstance(c, Or) and isinstance(c.left, Atom) and c.left.rel == "="
            and isinstance(c.right, Imp) and c.right.left == c.left
            and isinstance(c.right.right, Bottom)):
        return _fault("conclusion is not an identity excluded middle instance")


_SHAPES = {**dict.fromkeys(INTERNALISED, _shape_internalised),
           "top_int": _shape_top_int, "and_int": _shape_and_int, "or_elim": _shape_or_elim,
           "imp_int": _shape_imp_int, "imp_elim": _shape_imp_elim,
           "forall_int": _shape_forall_int, "exists_elim": _shape_exists_elim,
           "affixing": _shape_affixing, "eq_int": _shape_eq_int, "eq_elim": _shape_eq_elim,
           "id_xm": _shape_id_xm}


def _replaces(before, after, t1, t2):
    """``after`` is ``before`` with zero or more occurrences of t1 become t2."""
    if before == after:
        return True
    if type(before) is not type(after):
        return False
    if isinstance(before, Atom):
        if before.rel != after.rel or len(before.args) != len(after.args):
            return False
        return all(_replaces_term(a, b, t1, t2) for a, b in zip(before.args, after.args))
    if isinstance(before, (And, Or, Imp)):
        return (_replaces(before.left, after.left, t1, t2)
                and _replaces(before.right, after.right, t1, t2))
    if isinstance(before, (Forall, Exists)):
        return before.var == after.var and _replaces(before.body, after.body, t1, t2)
    return False


def _replaces_term(a, b, t1, t2):
    if a == b:
        return True
    if a == t1 and b == t2:
        return True
    if isinstance(a, Fn) and isinstance(b, Fn) and a.name == b.name \
            and len(a.args) == len(b.args):
        return all(_replaces_term(x, y, t1, t2) for x, y in zip(a.args, b.args))
    return False


# ---------------------------------------------------------------------------
# judgments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Judgment:
    gamma: tuple
    sigma: tuple
    stratum_claim: object        # int >= -1 or "r"
    conclusion: Formula


def check_judgment(j: Judgment, t: Proof, identity="absent"):
    """True iff the proof checks in the claimed system, concludes the stated
    sentence, its open assumptions fall inside both contexts together, and
    its unsafely-occurring open assumptions fall inside the left context."""
    bound = None if j.stratum_claim == "r" else int(j.stratum_claim)
    report = check_proof(t, System("nd", bound, identity))
    if not report.valid or t.conclusion != j.conclusion:
        return False, report
    allowed = set(j.gamma) | set(j.sigma)
    if not set(report.open_assumptions) <= allowed:
        return False, report
    if not set(report.unsafe_open) <= set(j.gamma):
        return False, report
    return True, report


# ---------------------------------------------------------------------------
# eigenvariable renaming
# ---------------------------------------------------------------------------

def eigenparameter(nd: Proof, an=None) -> int | None:
    """The inferred parameter of a quantifier node, when it is pinned.  An
    existential elimination's witness leaves are read off ``an``, the
    analysis of a proof that holds the node, or else of the node."""
    if nd.rule == "forall_int":
        return _eigenparam_for_forall(nd)[0]
    if nd.rule == "exists_elim":
        return _eigenparam_for_exists(nd, an or analyze(nd))[0]
    return None


def rename_eigenvariables(t: Proof, avoid, an=None) -> Proof:
    """Rename quantifier parameters so none of them lies in ``avoid``; ``t``
    itself when none does.  ``an`` is the analysis of ``t``, when the caller
    has one.

    Conclusion and open assumptions are untouched (their parameters are never
    eigenparameters of a valid proof), so grafting the result into a host
    that uses ``avoid`` stays checkable.  In post-order, each renamed node's
    parameter becomes the next index above ``t``'s and ``avoid``'s in its
    premise (a witness elimination's body), the innermost renaming winning.
    """
    an, avoid = an or analyze(t), set(avoid)
    old = {i: idx for i, nd in enumerate(an.nodes) if (idx := eigenparameter(nd, an)) in avoid}
    if not old:
        return t
    fresh = itertools.count(max(parameters_of(t) | avoid) + 1)
    new = {i: next(fresh) for i in sorted(old, key=lambda i: (an.end[i], -i))}
    maps = [{}] * len(an.nodes)
    for i, ks in enumerate(an.kids):
        for k in ks:
            maps[k] = maps[i]
        if i in old:
            body = ks[1] if an.nodes[i].rule == "exists_elim" else ks[0]
            maps[body] = {**maps[i], old[i]: new[i]}
    out = [None] * len(an.nodes)
    for i in reversed(range(len(out))):
        nd, phi = an.nodes[i], an.nodes[i].conclusion
        for idx in maps[i].keys() & phi.params:
            phi = replace_param(phi, idx, maps[i][idx])
        out[i] = Proof(nd.rule, phi, tuple(out[k] for k in an.kids[i]), nd.discharges, nd.leaf_id)
    return out[0]


# ---------------------------------------------------------------------------
# canonical form and JSON
# ---------------------------------------------------------------------------

def relabel_leaves(t: Proof, name) -> Proof:
    """Copy with the i-th distinct leaf id, in depth-first order, renamed
    to ``name(i)``; discharges of ids with no leaf are dropped."""
    mapping = {}
    for nd in _preorder(t):
        if nd.is_assumption() and nd.leaf_id not in mapping:
            mapping[nd.leaf_id] = name(len(mapping))
    return fold(t, lambda nd, kids: Proof(
        nd.rule, nd.conclusion, tuple(kids),
        frozenset(mapping[x] for x in nd.discharges if x in mapping),
        mapping.get(nd.leaf_id) if nd.leaf_id else None))


def canonical_leaf_ids(t: Proof) -> Proof:
    return relabel_leaves(t, lambda i: f"a{i}")


def proofs_equal(a: Proof, b: Proof) -> bool:
    return canonical_leaf_ids(a) == canonical_leaf_ids(b)


def proof_to_json(t: Proof) -> dict:
    return fold(t, _node_json)


def _node_json(nd, children):
    if nd.is_assumption():
        return {"assume": pretty(nd.conclusion), "id": nd.leaf_id}
    out = {"rule": nd.rule, "conclusion": pretty(nd.conclusion), "children": children}
    if nd.discharges:
        out["discharges"] = sorted(nd.discharges)
    return out


def proof_from_json(data) -> Proof:
    """Build a proof from its JSON form, parsing each formula text once
    against a signature inferred as the texts are read.  Nodes are read in
    pre-order, each node's discharges once its children are built."""
    symbols = Symbols(Signature(), infer=True)
    counter = itertools.count()

    def entry(d, key, kind, default=None):
        value = d.get(key, default)
        if not isinstance(value, kind):
            raise ProofJsonError(f"proof node field {key!r} must be a "
                                 f"{kind.__name__}, got {type(value).__name__}")
        return value

    # (node, None) to read; (node, (rule, conclusion, child count)) to build
    built, stack = [], [(data, None)]
    try:
        while stack:
            d, head = stack.pop()
            if head is not None:
                rule, phi, n = head
                discharges = frozenset(str(x) for x in entry(d, "discharges", list, []))
                first = len(built) - n
                got = Proof(rule, phi, tuple(built[first:]), discharges)
                del built[first:]
                built.append(got)
            elif not isinstance(d, dict):
                raise ProofJsonError(f"proof nodes must be objects, got {type(d).__name__}")
            elif "assume" in d:
                if d.get("children") or d.get("discharges"):
                    raise ProofJsonError("assumption leaves have no children or discharges")
                phi = symbols.parse(entry(d, "assume", str))
                lid = d.get("id")
                lid = f"L{next(counter)}" if lid is None or lid == "" else str(lid)
                built.append(Proof(ASSUME, phi, leaf_id=lid))
            elif "conclusion" not in d or "rule" not in d:
                raise ProofJsonError("proof node needs 'rule' and 'conclusion'")
            else:
                phi = symbols.parse(entry(d, "conclusion", str))
                children = entry(d, "children", list, [])
                stack.append((d, (str(d["rule"]), phi, len(children))))
                stack += [(c, None) for c in reversed(children)]
    except ParseError as exc:
        raise ProofJsonError(str(exc)) from exc
    return built[0]


def load_proof(path) -> Proof:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProofJsonError(f"not valid JSON: {exc}") from exc
    return proof_from_json(data)
