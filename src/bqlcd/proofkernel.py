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
straight-line functions, a matcher that ``match_schema`` runs for the
checker and a builder that ``schema_instance`` runs for the translations;
a traceback names them ``<schema NAME>``.  Thirteen rules each internalise
an axiom schema read as a rule; ``INTERNALISED`` lists them, and the
checker, the axiom templates and both translations read it.
"""

from __future__ import annotations

import bisect
import itertools
import json
from dataclasses import dataclass, replace

from .syntax import (
    And, Atom, BINARY, Bottom, Exists, Fn, Forall, Imp, Or, Param, QUANT, TOP,
    Formula, ParseError, Signature, Symbols, match_instantiation, parameters_of,
    parse_inferring, pretty, replace_param,
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


@dataclass(frozen=True)
class Proof:
    rule: str
    conclusion: Formula
    children: tuple = ()
    discharges: frozenset = frozenset()
    leaf_id: str | None = None

    def is_assumption(self):
        return self.rule == ASSUME


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
    """The nodes of ``t`` in pre-order, children left to right, and the
    indices of each node's children."""
    nodes, kids, stack = [], [], [(t, -1)]
    push = stack.append
    while stack:
        nd, parent = stack.pop()
        i = len(nodes)
        if parent >= 0:
            kids[parent].append(i)
        for c in reversed(nd.children):
            push((c, i))
        nodes.append(nd)
        kids.append([])
    return nodes, kids


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
    return len(_preorder(t)[0])


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

    def in_subtree(self, leaf_id, i):
        return i <= self.leaf_node[leaf_id] < self.end[i]

    def open_leaves_in(self, i):
        """Leaves in the subtree at i not discharged by a node inside it."""
        end = self.end[i]
        return [lid for lid, j in self.leaf_node.items() if i <= j < end
                and not i <= self.discharged_by.get(lid, -1) < end]

    def unsafe_for(self, leaf_id, i=0):
        """Some modus ponens inside the subtree at i, which holds the leaf,
        has the leaf in its right (conditional-premise) subtree."""
        return self.right_of[self.leaf_node[leaf_id]] >= i

    def name(self, i):
        """``r``, then the child positions on the way down to node i."""
        out, j = "r", 0
        while j != i:
            pos = bisect.bisect_right(self.kids[j], i) - 1
            out += f".{pos}"
            j = self.kids[j][pos]
        return out


def analyze(t: Proof) -> Analysis:
    nodes, kids = _preorder(t)
    end, strata = list(range(1, len(nodes) + 1)), [-1] * len(nodes)
    for i in reversed(range(len(nodes))):
        ks = kids[i]
        if ks:
            end[i] = end[ks[-1]]
            s = -1
            for k in ks:
                if strata[k] > s:
                    s = strata[k]
            if len(ks) > 1 and nodes[i].rule == "imp_elim" and strata[ks[1]] >= s:
                s = strata[ks[1]] + 1
            strata[i] = s
    leaf_node, leaf_formula, discharged_by, problems = {}, {}, {}, []
    right_of = [-1] * len(nodes)
    discharging = []
    for i, nd in enumerate(nodes):
        if nd.rule == ASSUME:
            if nd.leaf_id in leaf_node:
                problems.append(("discharge", i, f"duplicate leaf id {nd.leaf_id!r}"))
            leaf_node[nd.leaf_id] = i
            leaf_formula[nd.leaf_id] = nd.conclusion
        ks = kids[i]
        if ks:
            for k in ks:
                right_of[k] = right_of[i]
            if len(ks) > 1 and nd.rule == "imp_elim":
                right_of[ks[1]] = i
        if nd.discharges:
            discharging.append(i)
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

    def to_json(self):
        return {"valid": self.valid,
                "violations": [v.to_json() for v in self.violations]}


def check_proof(t: Proof, system) -> CheckReport:
    """Check ``t`` in ``system`` (a ``System`` or its name).  The report lists
    the analysis' structural problems, then each node's violations, nodes in
    pre-order.  A node is named by its child positions from the root:
    ``r.2.0`` is the first premise of the root's third premise."""
    return check_analysis(analyze(t), system)


def check_analysis(an: Analysis, system) -> CheckReport:
    """``check_proof`` of the proof that ``an`` analyses."""
    system = parse_system(system)
    out = [Violation(an.name(i), kind, msg) for kind, i, msg in an.problems]
    allowed = _allowed_rules(system)
    for i, nd in enumerate(an.nodes):
        _check_node(nd, i, an, system, allowed, out)
    return CheckReport(not out, out, an.strata[0], *_opens(an))


def _allowed_rules(system: System):
    if system.kind == "ax":
        rules = set(AX_RULES)
        if not system.exists_elim:
            rules.discard("exists_elim")
        return rules
    rules = set(ND_RULES)
    if system.identity in ("congruence", "strict"):
        rules |= {"eq_int", "eq_elim"}
    if system.identity == "strict":
        rules.add("id_xm")
    if system.stratum_bound == -1:
        rules.discard("imp_elim")
    return rules


def _check_node(nd, i, an, system, allowed, out):
    def bad(constraint, message):
        out.append(Violation(an.name(i), constraint, message))

    if nd.conclusion.free:
        bad("C1", f"label is not a sentence: {pretty(nd.conclusion)}")
        return
    if nd.is_assumption():
        if nd.children or nd.discharges:
            bad("rule", "assumption leaves have no children or discharges")
        return

    rule = nd.rule
    if rule.startswith("axiom:"):
        _check_axiom_node(nd, rule[6:], system, bad)
        return
    if rule not in allowed:
        if rule in ND_RULES | IDENTITY_RULES | AX_RULES:
            bad("system", f"rule {rule} is not part of {system.name}")
        else:
            bad("rule", f"unknown rule {rule!r}")
        return
    want = CHILD_COUNT.get(rule)
    if want is not None and len(nd.children) != want:
        bad("rule", f"{rule} expects {want} premises, got {len(nd.children)}")
        return
    if nd.discharges and rule not in DISCHARGING:
        bad("discharge", f"rule {rule} cannot discharge assumptions")
    _check_shape(nd, i, an, system, bad)


def _check_axiom_node(nd, schema, system, bad):
    if system.kind != "ax":
        bad("system", "axiom leaves only occur in the axiomatic systems")
        return
    if nd.children or nd.discharges:
        bad("rule", "axiom nodes take no premises")
        return
    if schema not in SCHEMAS:
        bad("rule", f"unknown axiom schema {schema!r}")
        return
    if schema not in AXIOMS_BY_LEVEL[system.level]:
        bad("system", f"axiom {schema} is not available in {system.name}")
        return
    if match_schema(schema, nd.conclusion) is None:
        bad("rule", f"conclusion does not instantiate {schema}: {pretty(nd.conclusion)}")


def _check_discharges(nd, i, an, bad, slots, enforce_c5):
    """``slots``: list of (child_index, required_formula).  Every discharged
    leaf must be an open occurrence of a slot formula inside the matching
    child; in the simplified systems it must additionally be safe there
    (C5).  The axiomatic systems discharge unrestrictedly."""
    for lid in sorted(nd.discharges):
        if an.discharged_by.get(lid) != i:
            continue  # unknown or misplaced, reported during the analysis
        if not any(an.in_subtree(lid, an.kids[i][pos]) and an.leaf_formula[lid] == want
                   for pos, want in slots):
            bad("discharge",
                f"leaf {lid!r} ({pretty(an.leaf_formula[lid])}) does not match "
                f"a dischargeable assumption of this rule")
            continue
        if enforce_c5 and an.unsafe_for(lid, i):
            bad("C5", f"leaf {lid!r} occurs unsafely and may not be discharged")


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


def _check_shape(nd, i, an, system, bad):
    rule, concl = nd.rule, nd.conclusion
    kids = [c.conclusion for c in nd.children]

    if rule == "forall_elim" and not isinstance(kids[0], Forall):
        bad("rule", "premise is not universally quantified")
    elif rule == "exists_int" and not isinstance(concl, Exists):
        bad("rule", "conclusion is not existentially quantified")
    elif rule in INTERNALISED:
        schema, message = INTERNALISED[rule]
        if match_schema(schema, internal_instance(kids, concl)) is None:
            bad("rule", message)
    elif rule == "top_int":
        if concl != TOP:
            bad("rule", "the truth constant is the only conclusion here")
    elif rule == "and_int":
        if concl != And(kids[0], kids[1]):
            bad("rule", "conclusion is not the conjunction of the premises")
    elif rule == "or_elim":
        major = kids[0]
        if not isinstance(major, Or):
            bad("rule", "major premise is not a disjunction")
            return
        if kids[1] != concl or kids[2] != concl:
            bad("rule", "branches must conclude the main conclusion")
            return
        _check_discharges(nd, i, an, bad,
                          [(1, major.left), (2, major.right)],
                          system.kind == "nd")
    elif rule == "imp_int":
        if not isinstance(concl, Imp):
            bad("rule", "conclusion of conditional proof must be a conditional")
            return
        if kids[0] != concl.right:
            bad("rule", "premise must be the consequent of the conclusion")
            return
        _check_discharges(nd, i, an, bad, [(0, concl.left)],
                          system.kind == "nd")
    elif rule == "imp_elim":
        if not (isinstance(kids[1], Imp) and kids[1].left == kids[0]
                and kids[1].right == concl):
            bad("rule", "premises do not fit modus ponens")
            return
        if system.kind == "nd" and system.stratum_bound is not None \
                and system.stratum_bound >= 0:
            got = an.strata[an.kids[i][1]]
            if got >= system.stratum_bound:
                bad("system",
                    f"right premise has stratum {got}, needs < {system.stratum_bound}")
    elif rule == "forall_int":
        idx, err = _eigenparam_for_forall(nd)
        if err:
            bad("rule", err)
            return
        if idx is not None:
            if idx in concl.body.params:
                bad("C2", f"parameter #{idx} occurs in the generalised formula")
            for lid in an.open_leaves_in(an.kids[i][0]):
                if idx in an.leaf_formula[lid].params:
                    bad("C2", f"parameter #{idx} occurs in open assumption "
                              f"{pretty(an.leaf_formula[lid])}")
    elif rule == "exists_elim":
        if kids[1] != concl:
            bad("rule", "body must conclude the main conclusion")
            return
        idx, xi, err = _eigenparam_for_exists(nd, an)
        if err:
            bad("rule", err)
            return
        major = kids[0]
        body = an.kids[i][1]
        if xi is not None:
            _check_discharges(nd, i, an, bad, [(1, xi)],
                              system.kind == "nd")
            # C4: every open occurrence of the witness inside the body is closed here
            for lid in an.open_leaves_in(body):
                if an.leaf_formula[lid] == xi and lid not in nd.discharges:
                    bad("C4", f"open witness occurrence {lid!r} is not discharged")
        if idx is not None:
            if idx in major.body.params:
                bad("C3", f"parameter #{idx} occurs in the quantified matrix")
            if idx in concl.params:
                bad("C3", f"parameter #{idx} occurs in the conclusion")
            for lid in an.open_leaves_in(body):
                if lid in nd.discharges:
                    continue
                if idx in an.leaf_formula[lid].params:
                    bad("C3", f"parameter #{idx} occurs in open assumption "
                              f"{pretty(an.leaf_formula[lid])}")
    elif rule == "affixing":
        ok = (isinstance(kids[0], Imp) and isinstance(kids[1], Imp)
              and isinstance(concl, Imp)
              and isinstance(concl.left, Imp) and isinstance(concl.right, Imp)
              and concl.left.left == kids[0].right
              and concl.left.right == kids[1].left
              and concl.right.left == kids[0].left
              and concl.right.right == kids[1].right)
        if not ok:
            bad("rule", "premises do not fit the affixing rule")
    elif rule == "eq_int":
        ok = (isinstance(concl, Atom) and concl.rel == "=" and len(concl.args) == 2
              and concl.args[0] == concl.args[1])
        if not ok:
            bad("rule", "conclusion is not a reflexive identity")
    elif rule == "eq_elim":
        eq = kids[0]
        if not (isinstance(eq, Atom) and eq.rel == "=" and len(eq.args) == 2):
            bad("rule", "first premise must be an identity")
            return
        t1, t2 = eq.args
        if not _replaces(kids[1], concl, t1, t2):
            bad("rule", "conclusion does not replace occurrences of the identified term")
    elif rule == "id_xm":
        ok = (isinstance(concl, Or) and isinstance(concl.left, Atom)
              and concl.left.rel == "=" and isinstance(concl.right, Imp)
              and concl.right.left == concl.left
              and isinstance(concl.right.right, Bottom))
        if not ok:
            bad("rule", "conclusion is not an identity excluded middle instance")


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

def _rename_params_in_tree(t: Proof, old: int, new: int) -> Proof:
    return fold(t, lambda nd, kids: replace(
        nd, conclusion=replace_param(nd.conclusion, old, new), children=tuple(kids)))


def eigenparameter(nd: Proof) -> int | None:
    """The inferred parameter of a quantifier node, when it is pinned."""
    if nd.rule == "forall_int":
        idx, _ = _eigenparam_for_forall(nd)
        return idx
    if nd.rule == "exists_elim":
        idx, _, _ = _eigenparam_for_exists(nd, analyze(nd))
        return idx
    return None


def rename_eigenvariables(t: Proof, avoid) -> Proof:
    """Rename quantifier parameters so none of them lies in ``avoid``.

    Conclusion and open assumptions are untouched (their parameters are never
    eigenparameters of a valid proof), so grafting the result into a host
    that uses ``avoid`` stays checkable.
    """
    avoid = set(avoid)
    used = parameters_of(t) | avoid
    counter = itertools.count(max(used) + 1 if used else 0)
    # each existential elimination's witness leaves are read off one
    # analysis of ``t``: in a valid proof, no renaming below the node
    # touches the leaves it discharges
    an = analyze(t)

    def go(nd, kids):
        nd = replace(nd, children=tuple(kids))
        if nd.rule == "forall_int":
            idx = _eigenparam_for_forall(nd)[0]
        elif nd.rule == "exists_elim":
            idx = _eigenparam_for_exists(nd, an)[0]
        else:
            idx = None
        if idx is not None and idx in avoid:
            new = next(counter)
            if nd.rule == "forall_int":
                sub = _rename_params_in_tree(nd.children[0], idx, new)
                nd = replace(nd, children=(sub,))
            else:
                body = _rename_params_in_tree(nd.children[1], idx, new)
                nd = replace(nd, children=(nd.children[0], body))
        return nd

    return fold(t, go)


# ---------------------------------------------------------------------------
# canonical form and JSON
# ---------------------------------------------------------------------------

def relabel_leaves(t: Proof, name) -> Proof:
    """Copy with the i-th distinct leaf id, in depth-first order, renamed
    to ``name(i)``; discharges of ids with no leaf are dropped."""
    mapping = {}
    for nd in _preorder(t)[0]:
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
