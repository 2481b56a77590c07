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
table ``SCHEMAS``.  ``match_schema`` reads it for the checker and
``schema_instance`` for the translations.  Thirteen rules each internalise
an axiom schema read as a rule; ``INTERNALISED`` lists them, and the
checker, the axiom templates and both translations read it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace

from .syntax import (
    And, Atom, BINARY, Bottom, Exists, Fn, Forall, Imp, Or, Param, QUANT, TOP,
    Formula, ParseError, Signature, Symbols, formula_params, free_vars,
    is_sentence, is_closed_term, match_instantiation, parameters_of,
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


def node(rule: str, conclusion: Formula, children=(), discharges=()) -> Proof:
    return Proof(rule, conclusion, tuple(children), frozenset(discharges))


def proof_size(t: Proof) -> int:
    return 1 + sum(proof_size(c) for c in t.children)


def proof_depth(t: Proof) -> int:
    return 0 if not t.children else 1 + max(proof_depth(c) for c in t.children)


# ---------------------------------------------------------------------------
# tree analysis
# ---------------------------------------------------------------------------

@dataclass
class Analysis:
    paths: dict            # path tuple -> Proof
    leaf_path: dict        # leaf id -> path
    leaf_formula: dict     # leaf id -> Formula
    discharged_by: dict    # leaf id -> path of discharging node
    imp_elims: tuple       # paths of imp_elim nodes
    problems: list         # structural issues found during indexing

    def in_subtree(self, leaf_id, path):
        lp = self.leaf_path[leaf_id]
        return lp[:len(path)] == path

    def open_in(self, leaf_id, path):
        """Open within the subtree at ``path``: not discharged by a node
        lying inside that subtree."""
        d = self.discharged_by.get(leaf_id)
        return d is None or d[:len(path)] != path

    def open_leaves_in(self, path):
        return [lid for lid, lp in self.leaf_path.items()
                if lp[:len(path)] == path and self.open_in(lid, path)]

    def unsafe_for(self, leaf_id, path=()):
        """Some modus ponens inside the subtree at ``path`` has this leaf in
        its right (conditional-premise) subtree."""
        lp = self.leaf_path[leaf_id]
        for pe in self.imp_elims:
            if pe[:len(path)] != path:
                continue
            right = pe + (1,)
            if lp[:len(right)] == right:
                return True
        return False


def analyze(t: Proof) -> Analysis:
    paths, leaf_path, leaf_formula, discharged_by = {}, {}, {}, {}
    imp_elims = []
    problems = []
    pending_discharges = []

    def walk(nd, path):
        paths[path] = nd
        if nd.is_assumption():
            if nd.leaf_id in leaf_path:
                problems.append(("discharge", path, f"duplicate leaf id {nd.leaf_id!r}"))
            leaf_path[nd.leaf_id] = path
            leaf_formula[nd.leaf_id] = nd.conclusion
        if nd.discharges:
            pending_discharges.append((path, nd.discharges))
        for i, c in enumerate(nd.children):
            walk(c, path + (i,))

    walk(t, ())
    for path, ids in pending_discharges:
        for lid in sorted(ids):
            if lid not in leaf_path:
                problems.append(("discharge", path, f"discharge of unknown leaf {lid!r}"))
                continue
            lp = leaf_path[lid]
            if lp[:len(path)] != path or lp == path:
                problems.append(("discharge", path,
                                 f"leaf {lid!r} is not in the subtree it is discharged from"))
                continue
            if lid in discharged_by:
                problems.append(("discharge", path, f"leaf {lid!r} discharged twice"))
                continue
            discharged_by[lid] = path
    for path, nd in paths.items():
        if nd.rule == "imp_elim":
            imp_elims.append(path)
    return Analysis(paths, leaf_path, leaf_formula, discharged_by,
                    tuple(imp_elims), problems)


def path_str(path) -> str:
    return "r" + "".join(f".{i}" for i in path)


def unsafe_leaves(t: Proof) -> frozenset:
    """Leaf ids (open or discharged) lying in the right subtree of some
    modus ponens application."""
    an = analyze(t)
    return frozenset(lid for lid in an.leaf_path if an.unsafe_for(lid))


def open_assumptions(t: Proof) -> frozenset:
    return _open_formulas(analyze(t))


def _open_formulas(an):
    return frozenset(an.leaf_formula[lid] for lid in an.open_leaves_in(()))


def split_assumptions(t: Proof):
    """(unsafe_open, safe_only_open) sentence sets; the first is the minimal
    left component of a split-context reading of the proof."""
    return _split_open(analyze(t))


def _split_open(an):
    unsafe = frozenset(an.leaf_formula[lid] for lid in an.open_leaves_in(())
                       if an.unsafe_for(lid))
    return unsafe, _open_formulas(an) - unsafe


def stratum(t: Proof, strata=None) -> int:
    """-1 without modus ponens; otherwise one more than the right-premise
    stratum, maximised over the tree.  ``strata``, when given, receives the
    stratum of every subtree, keyed by the subtree's ``id``."""
    values = [stratum(c, strata) for c in t.children]
    if t.rule == "imp_elim" and len(values) > 1:
        values.append(values[1] + 1)
    out = max(values, default=-1)
    if strata is not None:
        strata[id(t)] = out
    return out


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
    or None; a repeated metavariable binds equal parts of ``f``."""
    bindings: dict = {}
    if not _bind(SCHEMAS[name], f, bindings):
        return None
    if name in _INSTANTIATING and not match_instantiation(
            bindings["A"], bindings["x"], bindings["B"])[0]:
        return None
    return bindings


def _bind(pat, f, bindings):
    if isinstance(pat, Atom):
        got = bindings.setdefault(pat.rel, f)
        return got is f or got == f
    if type(pat) is not type(f):
        return False
    if isinstance(pat, QUANT):
        return (bindings.setdefault(pat.var, f.var) == f.var
                and _bind(pat.body, f.body, bindings))
    if isinstance(pat, BINARY):
        return _bind(pat.left, f.left, bindings) and _bind(pat.right, f.right, bindings)
    return True


def schema_instance(name: str, **bindings) -> Formula:
    """The schema with every metavariable replaced by its binding."""
    return _fill(SCHEMAS[name], bindings)


def _fill(pat, bindings):
    if isinstance(pat, Atom):
        return bindings[pat.rel]
    if isinstance(pat, QUANT):
        return type(pat)(bindings[pat.var], _fill(pat.body, bindings))
    if isinstance(pat, BINARY):
        return type(pat)(_fill(pat.left, bindings), _fill(pat.right, bindings))
    return pat


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
    system = parse_system(system)
    an = analyze(t)
    out = [Violation(path_str(p), kind, msg) for kind, p, msg in an.problems]
    allowed = _allowed_rules(system)
    strata = {}
    top = stratum(t, strata)
    for path, nd in sorted(an.paths.items()):
        _check_node(nd, path, an, system, allowed, strata, out)
    return CheckReport(not out, out, top, _open_formulas(an), *_split_open(an))


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


def _check_node(nd, path, an, system, allowed, strata, out):
    def bad(constraint, message):
        out.append(Violation(path_str(path), constraint, message))

    if not is_sentence(nd.conclusion):
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
    _check_shape(nd, path, an, system, strata, bad)


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


def _check_discharges(nd, path, an, bad, slots, enforce_c5):
    """``slots``: list of (child_index, required_formula).  Every discharged
    leaf must be an open occurrence of a slot formula inside the matching
    child; in the simplified systems it must additionally be safe there
    (C5).  The axiomatic systems discharge unrestrictedly."""
    for lid in sorted(nd.discharges):
        if lid not in an.leaf_path:
            continue  # already reported during indexing
        if an.discharged_by.get(lid) != path:
            continue
        placed = False
        for idx, want in slots:
            sub = path + (idx,)
            if an.in_subtree(lid, sub) and an.leaf_formula[lid] == want:
                placed = True
                break
        if not placed:
            bad("discharge",
                f"leaf {lid!r} ({pretty(an.leaf_formula[lid])}) does not match "
                f"a dischargeable assumption of this rule")
            continue
        if enforce_c5 and an.unsafe_for(lid, path):
            bad("C5", f"leaf {lid!r} occurs unsafely and may not be discharged")


def _eigenparam_for_forall(nd):
    """(index or None, error) for a universal introduction node."""
    concl, premise = nd.conclusion, nd.children[0].conclusion
    if not isinstance(concl, Forall):
        return None, "conclusion is not universally quantified"
    body, v = concl.body, concl.var
    if v not in free_vars(body):
        if premise != body:
            return None, "vacuous generalisation must repeat its premise"
        return None, None
    ok, t = match_instantiation(body, v, premise)
    if not isinstance(t, Param):
        return None, "premise does not instantiate the conclusion with a parameter"
    if not ok:
        return None, "premise does not match the generalised formula"
    return t.index, None


def _eigenparam_for_exists(nd, an, path):
    """(index or None, witness_formula or None, error)."""
    major, body_node = nd.children
    ex = major.conclusion
    if not isinstance(ex, Exists):
        return None, None, "major premise is not existentially quantified"
    matrix, v = ex.body, ex.var
    discharged = sorted(nd.discharges)
    if v not in free_vars(matrix):
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


def _check_shape(nd, path, an, system, strata, bad):
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
        _check_discharges(nd, path, an, bad,
                          [(1, major.left), (2, major.right)],
                          system.kind == "nd")
    elif rule == "imp_int":
        if not isinstance(concl, Imp):
            bad("rule", "conclusion of conditional proof must be a conditional")
            return
        if kids[0] != concl.right:
            bad("rule", "premise must be the consequent of the conclusion")
            return
        _check_discharges(nd, path, an, bad, [(0, concl.left)],
                          system.kind == "nd")
    elif rule == "imp_elim":
        if not (isinstance(kids[1], Imp) and kids[1].left == kids[0]
                and kids[1].right == concl):
            bad("rule", "premises do not fit modus ponens")
            return
        if system.kind == "nd" and system.stratum_bound is not None \
                and system.stratum_bound >= 0:
            got = strata[id(nd.children[1])]
            if got >= system.stratum_bound:
                bad("system",
                    f"right premise has stratum {got}, needs < {system.stratum_bound}")
    elif rule == "forall_int":
        idx, err = _eigenparam_for_forall(nd)
        if err:
            bad("rule", err)
            return
        if idx is not None:
            if idx in formula_params(concl.body):
                bad("C2", f"parameter #{idx} occurs in the generalised formula")
            for lid in an.open_leaves_in(path + (0,)):
                if idx in formula_params(an.leaf_formula[lid]):
                    bad("C2", f"parameter #{idx} occurs in open assumption "
                              f"{pretty(an.leaf_formula[lid])}")
    elif rule == "exists_elim":
        if kids[1] != concl:
            bad("rule", "body must conclude the main conclusion")
            return
        idx, xi, err = _eigenparam_for_exists(nd, an, path)
        if err:
            bad("rule", err)
            return
        major = kids[0]
        body_path = path + (1,)
        if xi is not None:
            _check_discharges(nd, path, an, bad, [(1, xi)],
                              system.kind == "nd")
            # C4: every open occurrence of the witness inside the body is closed here
            for lid in an.open_leaves_in(body_path):
                if an.leaf_formula[lid] == xi and lid not in nd.discharges:
                    bad("C4", f"open witness occurrence {lid!r} is not discharged")
        if idx is not None:
            if idx in formula_params(major.body):
                bad("C3", f"parameter #{idx} occurs in the quantified matrix")
            if idx in formula_params(concl):
                bad("C3", f"parameter #{idx} occurs in the conclusion")
            for lid in an.open_leaves_in(body_path):
                if lid in nd.discharges:
                    continue
                if idx in formula_params(an.leaf_formula[lid]):
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
              and concl.args[0] == concl.args[1] and is_closed_term(concl.args[0]))
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
    concl = replace_param(t.conclusion, old, new)
    children = tuple(_rename_params_in_tree(c, old, new) for c in t.children)
    return replace(t, conclusion=concl, children=children)


def eigenparameter(nd: Proof) -> int | None:
    """The inferred parameter of a quantifier node, when it is pinned."""
    if nd.rule == "forall_int":
        idx, _ = _eigenparam_for_forall(nd)
        return idx
    if nd.rule == "exists_elim":
        an = analyze(nd)
        idx, _, _ = _eigenparam_for_exists(nd, an, ())
        return idx
    return None


def rename_eigenvariables(t: Proof, avoid) -> Proof:
    """Rename quantifier parameters so none of them lies in ``avoid``.

    Conclusion and open assumptions are untouched (their parameters are never
    eigenparameters of a valid proof), so grafting the result into a host
    that uses ``avoid`` stays checkable.
    """
    avoid = set(avoid)
    used = set(parameters_of(t)) | avoid
    counter = itertools.count(max(used) + 1 if used else 0)

    def fresh():
        return next(counter)

    def go(nd):
        children = tuple(go(c) for c in nd.children)
        nd = replace(nd, children=children)
        idx = eigenparameter(nd)
        if idx is not None and idx in avoid:
            new = fresh()
            if nd.rule == "forall_int":
                sub = _rename_params_in_tree(nd.children[0], idx, new)
                nd = replace(nd, children=(sub,))
            else:
                body = _rename_params_in_tree(nd.children[1], idx, new)
                nd = replace(nd, children=(nd.children[0], body))
        return nd

    return go(t)


# ---------------------------------------------------------------------------
# canonical form and JSON
# ---------------------------------------------------------------------------

def relabel_leaves(t: Proof, name) -> Proof:
    """Copy with the i-th distinct leaf id, in depth-first order, renamed
    to ``name(i)``; discharges of ids with no leaf are dropped."""
    mapping = {}

    def collect(nd):
        if nd.is_assumption() and nd.leaf_id not in mapping:
            mapping[nd.leaf_id] = name(len(mapping))
        for c in nd.children:
            collect(c)

    collect(t)

    def rebuild(nd):
        children = tuple(rebuild(c) for c in nd.children)
        return replace(nd, children=children,
                       discharges=frozenset(mapping[x] for x in nd.discharges
                                            if x in mapping),
                       leaf_id=mapping.get(nd.leaf_id) if nd.leaf_id else None)

    return rebuild(t)


def canonical_leaf_ids(t: Proof) -> Proof:
    return relabel_leaves(t, lambda i: f"a{i}")


def proofs_equal(a: Proof, b: Proof) -> bool:
    return canonical_leaf_ids(a) == canonical_leaf_ids(b)


def proof_to_json(t: Proof) -> dict:
    if t.is_assumption():
        return {"assume": pretty(t.conclusion), "id": t.leaf_id}
    out = {"rule": t.rule, "conclusion": pretty(t.conclusion),
           "children": [proof_to_json(c) for c in t.children]}
    if t.discharges:
        out["discharges"] = sorted(t.discharges)
    return out


def proof_from_json(data) -> Proof:
    """Build a proof from its JSON form, parsing each formula text once
    against a signature inferred as the texts are read."""
    symbols = Symbols(Signature(), infer=True)
    counter = itertools.count()

    def entry(d, key, kind, default=None):
        value = d.get(key, default)
        if not isinstance(value, kind):
            raise ProofJsonError(f"proof node field {key!r} must be a "
                                 f"{kind.__name__}, got {type(value).__name__}")
        return value

    def build(d):
        if not isinstance(d, dict):
            raise ProofJsonError(f"proof nodes must be objects, got {type(d).__name__}")
        if "assume" in d:
            if d.get("children") or d.get("discharges"):
                raise ProofJsonError("assumption leaves have no children or discharges")
            phi = symbols.parse(entry(d, "assume", str))
            lid = str(d.get("id") or f"L{next(counter)}")
            return Proof(ASSUME, phi, leaf_id=lid)
        if "conclusion" not in d or "rule" not in d:
            raise ProofJsonError("proof node needs 'rule' and 'conclusion'")
        phi = symbols.parse(entry(d, "conclusion", str))
        children = tuple(build(c) for c in entry(d, "children", list, []))
        discharges = frozenset(str(x) for x in entry(d, "discharges", list, []))
        return Proof(str(d["rule"]), phi, children, discharges)

    try:
        return build(data)
    except ParseError as exc:
        raise ProofJsonError(str(exc)) from exc


def load_proof(path) -> Proof:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProofJsonError(f"not valid JSON: {exc}") from exc
    return proof_from_json(data)
