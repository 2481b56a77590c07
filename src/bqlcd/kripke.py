"""Finite Kripke models over transitive frames, evaluation and model search.

Worlds are strings, the quantification domain is ``range(n)`` and is shared
by all worlds.  ``edges`` holds the accessibility relation as (lower, upper)
pairs: ``(w, u)`` means w sees u, and everything true at w persists to u.
Consequence is evaluated at reflexive worlds only; dropping that restriction
is the ``bqlcd`` search mode.

The satisfaction clauses exist once, in ``_compile_sequent``: the search,
``world_masks`` (behind ``satisfies`` and the model checks) and ``bradyfp``
run its closures, which compute a formula's worlds as a bit mask.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field, replace

from .syntax import (
    And, Atom, Bottom, Const, Exists, Fn, Forall, Imp, Or, Param, Signature,
    Top, Var, big_conj, infer_signature, pretty,
    subformulas, subterms,
)


class ModelError(ValueError):
    pass


class IntersectionConfigError(ValueError):
    """Preconditions of the intersection configuration are violated."""


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KripkeModel:
    worlds: tuple
    edges: frozenset            # (w, u) pairs, transitively closed
    domain_size: int
    consts: dict = field(default_factory=dict)     # name -> element
    funs: dict = field(default_factory=dict)       # name -> flat row-major table
    fun_arity: dict = field(default_factory=dict)
    rels: dict = field(default_factory=dict)       # name -> {world: frozenset(tuples)}
    rel_arity: dict = field(default_factory=dict)
    identity: str = "absent"

    def successors(self, w):
        return tuple(u for u in self.worlds if (w, u) in self.edges)

    def reflexive_worlds(self):
        return tuple(w for w in self.worlds if (w, w) in self.edges)

    def rel_at(self, name, w):
        return self.rels.get(name, {}).get(w, frozenset())

    def domain(self):
        return range(self.domain_size)


def transitive_closure(pairs, worlds):
    """Warshall's algorithm; pairs through worlds outside ``worlds`` are kept
    but not closed over."""
    closed = set(pairs)
    for k in worlds:
        below = [a for a in worlds if (a, k) in closed]
        above = [b for b in worlds if (k, b) in closed]
        closed.update((a, b) for a in below for b in above)
    return frozenset(closed)


def make_model(worlds, edges, domain_size, consts=None, funs=None, fun_arity=None,
               rels=None, rel_arity=None, identity="absent"):
    worlds = tuple(worlds)
    edges = frozenset(tuple(e) for e in edges)
    rels = {r: dict(per) for r, per in (rels or {}).items()}
    rel_arity = dict(rel_arity or {})
    for r, per in rels.items():
        if r not in rel_arity:
            arities = {len(t) for ts in per.values() for t in ts}
            rel_arity[r] = arities.pop() if len(arities) == 1 else 0
        for w in worlds:
            per.setdefault(w, frozenset())
            per[w] = frozenset(tuple(t) for t in per[w])
    m = KripkeModel(worlds, edges, domain_size, dict(consts or {}), dict(funs or {}),
                    dict(fun_arity or {}), rels, rel_arity, identity)
    validate_model(m)
    return m


def validate_model(m: KripkeModel):
    """Exhaustive well-formedness check; raises ModelError on violation."""
    if not m.worlds:
        raise ModelError("model needs at least one world")
    if m.domain_size < 1:
        raise ModelError("domain must be non-empty")
    wset = set(m.worlds)
    # in a fixed order, so the first bad edge named does not depend on string
    # hash randomisation; repr orders world names of any type
    edges = sorted(m.edges, key=repr)
    for (w, u) in edges:
        if w not in wset or u not in wset:
            raise ModelError(f"edge ({w},{u}) uses an unknown world")
    for (w, u) in edges:
        for (x, z) in edges:
            if u == x and (w, z) not in m.edges:
                raise ModelError(f"accessibility not transitive: {w}<{u}<{z}")
    dom = set(m.domain())
    for c, v in m.consts.items():
        if v not in dom:
            raise ModelError(f"constant {c} denotes {v}, outside the domain")
    for f, table in m.funs.items():
        ar = m.fun_arity.get(f)
        if ar is None or len(table) != m.domain_size ** ar:
            raise ModelError(f"function table for {f} has the wrong size")
        if any(v not in dom for v in table):
            raise ModelError(f"function {f} maps outside the domain")
    for r, per in m.rels.items():
        ar = m.rel_arity[r]
        for w, tuples in per.items():
            if w not in wset:
                raise ModelError(f"relation {r} has an extension at the unknown world {w}")
            for t in tuples:
                if len(t) != ar or any(v not in dom for v in t):
                    raise ModelError(f"tuple {t} bad for relation {r} at {w}")
        for (w, u) in edges:
            if not per.get(w, frozenset()) <= per.get(u, frozenset()):
                raise ModelError(f"persistence fails for {r} between {w} and {u}")
    if m.identity not in ("absent", "congruence", "strict"):
        raise ModelError(f"identity must be absent, congruence or strict, not {m.identity!r}")
    if m.identity != "absent":
        _validate_identity(m)


def _validate_identity(m):
    per = m.rels.get("=")
    if per is None or m.rel_arity.get("=") != 2:
        raise ModelError("identity mode set but '=' missing or not binary")
    diag = frozenset((a, a) for a in m.domain())
    if m.identity == "strict":
        for w in m.worlds:
            if per[w] != diag:
                raise ModelError(f"strict identity requires the diagonal at {w}")
        return
    for w in m.worlds:
        eq = per[w]
        if not diag <= eq:
            raise ModelError(f"'=' not reflexive at {w}")
        if any((b, a) not in eq for (a, b) in eq):
            raise ModelError(f"'=' not symmetric at {w}")
        if any((a, d) not in eq for (a, b) in eq for (c, d) in eq if b == c):
            raise ModelError(f"'=' not transitive at {w}")
        fault = _congruence_fault(
            eq, m.domain_size,
            {f: (m.fun_arity[f], table) for f, table in m.funs.items()},
            {r: (m.rel_arity[r], rper[w]) for r, rper in m.rels.items() if r != "="})
        if fault is not None:
            raise ModelError(f"'=' {fault} at {w}")


def _congruence_fault(eq, m, funs, exts):
    """How the equivalence ``eq`` on ``range(m)`` fails to be a congruence
    for the functions (name -> (arity, table)) and relation extensions
    (name -> (arity, tuples)) of one world, or None when it is one."""
    for f, (ar, table) in funs.items():
        for xs in itertools.product(range(m), repeat=ar):
            for ys in itertools.product(range(m), repeat=ar):
                if all((x, y) in eq for x, y in zip(xs, ys)) and \
                        (table[_row(xs, m)], table[_row(ys, m)]) not in eq:
                    return f"not a congruence for {f}"
    for r, (ar, ext) in exts.items():
        for xs in ext:
            for ys in itertools.product(range(m), repeat=ar):
                if all((x, y) in eq for x, y in zip(xs, ys)) and ys not in ext:
                    return f"not compatible with {r}"
    return None


def _row(args, m):
    """Row-major index of an argument tuple over domain size m."""
    idx = 0
    for a in args:
        idx = idx * m + a
    return idx


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def world_masks(model: KripkeModel, formulas, asg=None) -> list:
    """One mask per formula over ``model.worlds``: bit i is set iff the
    formula holds at ``model.worlds[i]`` under the assignment ``asg``.  A
    relation the model does not interpret is false everywhere; a term it
    does not interpret, or a free variable ``asg`` leaves unassigned, raises
    ModelError."""
    formulas, asg = list(formulas), asg or {}
    arity = {}
    for phi in formulas:
        unassigned = sorted(phi.free - set(asg))
        if unassigned:
            raise ModelError(f"no assignment for variable {unassigned[0]}")
        for sub in subformulas(phi):
            if isinstance(sub, Atom):
                arity.setdefault(sub.rel, len(sub.args))
                for t in (t for arg in sub.args for t in subterms(arg)):
                    _check_interpreted(model, t)
    n, bit = model.domain_size, _bits(model)
    interp = []
    for r, ar in arity.items():
        table = [0] * n ** ar
        for w, tuples in model.rels.get(r, {}).items():
            for t in tuples:
                if len(t) == ar:
                    table[_row(t, n)] |= bit[w]
        interp.append(tuple(table))
    consts, funs = sorted(model.consts), sorted(model.funs)
    closures, set_frame, _ = _compile_sequent(formulas, _index(arity), _index(consts),
                                              _index(funs))
    set_frame(n, tuple((sum(bit[u] for u in model.successors(w)), bit[w])
                       for w in model.worlds))
    args = (tuple(interp), tuple(model.consts[c] for c in consts),
            tuple(model.funs[f] for f in funs), tuple(sorted(asg.items())))
    return [run(*args) for run in closures]


def _check_interpreted(model, t):
    if isinstance(t, Const) and t.name not in model.consts:
        raise ModelError(f"constant {t.name} not interpreted")
    if isinstance(t, Param) and f"#{t.index}" not in model.consts:
        raise ModelError(f"parameter #{t.index} not interpreted")
    if isinstance(t, Fn) and t.name not in model.funs:
        raise ModelError(f"function {t.name} not interpreted")


def _bits(model):
    return {w: 1 << i for i, w in enumerate(model.worlds)}


def _index(names):
    return {name: i for i, name in enumerate(names)}


def satisfies(model: KripkeModel, w, phi, asg=None) -> bool:
    if w not in model.worlds:
        raise ModelError(f"unknown world {w!r}")
    return bool(world_masks(model, [phi], asg)[0] & _bits(model)[w])


def entails_in_model(model: KripkeModel, gamma, phi) -> bool:
    """True iff no reflexive world satisfies all of gamma but not phi."""
    *premises, conclusion = world_masks(model, list(gamma) + [phi])
    bit = _bits(model)
    return not any(all(g & bit[w] for g in premises) and not conclusion & bit[w]
                   for w in model.reflexive_worlds())


def check_persistence(model: KripkeModel, phi) -> bool:
    """No (w, u, assignment) with w < u, w |= phi and u |/= phi."""
    fvs, bit = sorted(phi.free), _bits(model)
    for combo in itertools.product(model.domain(), repeat=len(fvs)):
        (mask,) = world_masks(model, [phi], dict(zip(fvs, combo)))
        if any(mask & bit[w] and not mask & bit[u] for (w, u) in model.edges):
            return False
    return True


# ---------------------------------------------------------------------------
# chains of worlds
# ---------------------------------------------------------------------------

def add_chain(model: KripkeModel, w, n: int) -> KripkeModel:
    """Append a descending chain of n fresh irreflexive worlds below ``w``.

    Every fresh world sees the ones added before it, ``w``, and everything
    ``w`` sees; relation interpretations at fresh worlds are empty (the
    minimal persistent choice).  Satisfaction at the original worlds is
    untouched.
    """
    if n < 1:
        raise ValueError("chain length must be >= 1")
    if w not in model.worlds:
        raise ModelError(f"unknown world {w!r}")
    used = set(model.worlds)
    fresh = []
    i = 1
    while len(fresh) < n:
        cand = f"u{i}"
        if cand not in used:
            fresh.append(cand)
            used.add(cand)
        i += 1
    edges = set(model.edges)
    above = [w] + [u for u in model.worlds if (w, u) in model.edges]
    for j, new in enumerate(fresh):
        for up in above + fresh[:j]:
            edges.add((new, up))
    rels = {r: {**per, **{new: frozenset() for new in fresh}}
            for r, per in model.rels.items()}
    return replace(model, worlds=model.worlds + tuple(fresh),
                   edges=frozenset(edges), rels=rels)


# ---------------------------------------------------------------------------
# intersection configurations
# ---------------------------------------------------------------------------

def _check_or_exists_free(phi):
    for sub in subformulas(phi):
        if isinstance(sub, (Or, Exists)):
            raise IntersectionConfigError(
                f"formula contains a banned connective: {pretty(sub)}")


def check_intersection_config(model: KripkeModel, w, us, phi) -> bool:
    """Whether ``w`` agrees with the family ``us`` on the given formula.

    Demands the configuration: the interpretation at w of every relation is
    the intersection over the family, every family member is reflexive and
    seen by w, and every proper successor of w is seen by some member.  A
    violated condition raises, it does not return False.
    """
    us = tuple(us)
    if not us:
        raise IntersectionConfigError("the family of worlds is empty")
    _check_or_exists_free(phi)
    for r in model.rels:
        inter = None
        for u in us:
            ext = model.rel_at(r, u)
            inter = ext if inter is None else inter & ext
        if model.rel_at(r, w) != inter:
            raise IntersectionConfigError(f"condition (i) fails for relation {r}")
    for u in us:
        if (u, u) not in model.edges:
            raise IntersectionConfigError(f"condition (ii): {u} is not reflexive")
        if (w, u) not in model.edges:
            raise IntersectionConfigError(f"condition (iii): {w} does not see {u}")
    for z in model.worlds:
        if (w, z) in model.edges and z != w:
            if not any((u, z) in model.edges for u in us):
                raise IntersectionConfigError(f"condition (iv): no family member sees {z}")
    (mask,) = world_masks(model, [phi])
    bit = _bits(model)
    return bool(mask & bit[w]) == all(mask & bit[u] for u in us)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def model_to_json(m: KripkeModel) -> dict:
    return {
        "worlds": list(m.worlds),
        "edges": sorted([w, u] for (w, u) in m.edges),
        "domain": m.domain_size,
        "consts": dict(sorted(m.consts.items())),
        "funs": {f: list(t) for f, t in sorted(m.funs.items())},
        "fun_arity": dict(sorted(m.fun_arity.items())),
        "rels": {r: {w: sorted(list(t) for t in per.get(w, frozenset()))
                     for w in m.worlds}
                 for r, per in sorted(m.rels.items())},
        "rel_arity": dict(sorted(m.rel_arity.items())),
        "identity": m.identity,
    }


def model_from_json(data: dict) -> KripkeModel:
    """Load a model; edges are transitively closed, then everything is
    re-validated (a closure that breaks persistence is an error)."""
    def obj(parent, key, name=None):
        got = parent.get(key, {})
        if not isinstance(got, dict):
            raise TypeError(f"{name or key} is not an object")
        return got

    try:
        worlds = [str(w) for w in data["worlds"]]
        edges = [(str(a), str(b)) for a, b in data.get("edges", [])]
        domain = int(data["domain"])
        rels = {}
        for r in obj(data, "rels"):
            rels[r] = {str(w): frozenset(tuple(int(x) for x in t) for t in tuples)
                       for w, tuples in obj(data["rels"], r, f"rels[{r!r}]").items()}
        consts = {str(c): int(v) for c, v in obj(data, "consts").items()}
        funs = {str(f): tuple(int(x) for x in t) for f, t in obj(data, "funs").items()}
        fun_arity = {str(f): int(a) for f, a in obj(data, "fun_arity").items()}
        rel_arity = {str(r): int(a) for r, a in obj(data, "rel_arity").items()}
        identity = data.get("identity", "absent")
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed model JSON: {exc}") from exc
    return make_model(worlds, transitive_closure(edges, worlds), domain, consts, funs,
                      fun_arity, rels, rel_arity, identity)


def signature_of_model(m: KripkeModel) -> Signature:
    return Signature(frozenset(c for c in m.consts if not c.startswith("#")),
                     dict(m.fun_arity), dict(m.rel_arity), m.identity)


# ---------------------------------------------------------------------------
# countermodel search
# ---------------------------------------------------------------------------

# _frames(k) scans all 2**(k*k) relations on k worlds and compares each
# transitive one under k! permutations: 2**16 relations at k = 4, but 2**25,
# 512 times as many, with 120 permutations each at k = 5.
MAX_WORLDS = 4


@dataclass(frozen=True)
class SearchBounds:
    max_worlds: int
    max_domain: int

    def __post_init__(self):
        if self.max_worlds < 1 or self.max_domain < 1:
            raise ValueError("search bounds must be >= 1")
        if self.max_worlds > MAX_WORLDS:
            raise ValueError(f"search bounds allow at most {MAX_WORLDS} worlds")


@dataclass
class SearchResult:
    model: KripkeModel | None
    witness: str | None
    exhausted: bool
    notes: tuple = ()
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def found(self):
        return self.model is not None


# search mode -> (identity mode, whether the witness world must be reflexive)
_MODES = {"bqlcd_r": ("absent", True), "bqlcd": ("absent", False),
          "strict": ("strict", True), "congruence": ("congruence", True)}
MODES = tuple(_MODES)

_FUN_TABLE_CAP = 4096
_REL_SPACE_CAP = 1 << 18
# Interpretations decided by one pass of the compiled sentences, one lane of
# k + 1 bits each: this bounds the size of the masks, not the search.
_LANES = 4096


_frame_cache: dict = {}


def _frames(k: int):
    """Canonical transitive frames on k labelled worlds, isomorphism-pruned,
    each as (relation, successors, upsets, roots): ``succ[a]`` lists the
    worlds a sees, and ``upsets`` the sets closed under succ.  A root sees
    every other world."""
    got = _frame_cache.get(k)
    if got is not None:
        return got
    nodes = tuple(range(k))
    pairs = [(a, b) for a in nodes for b in nodes]
    frames = []
    seen = set()
    perms = list(itertools.permutations(nodes))
    for bits in range(2 ** len(pairs)):
        rel = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
        ok = True
        for (a, b) in rel:
            for (c, d) in rel:
                if b == c and (a, d) not in rel:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        key = min(tuple(sorted((perm[a], perm[b]) for (a, b) in rel)) for perm in perms)
        if key in seen:
            continue
        seen.add(key)
        frames.append(rel)
    frames.sort(key=lambda rel: (len(rel), tuple(sorted(rel))))
    out = []
    for rel in frames:
        succ = tuple(tuple(b for b in nodes if (a, b) in rel) for a in nodes)
        upsets = tuple(sorted((frozenset(s) for r in range(k + 1)
                               for s in itertools.combinations(nodes, r)
                               if all(b in s for a in s for b in succ[a])),
                              key=lambda s: (len(s), tuple(sorted(s)))))
        roots = tuple(a for a in nodes if all(b in succ[a] for b in nodes if b != a))
        out.append((rel, succ, upsets, roots))
    _frame_cache[k] = out
    return out


def _eq_assignments(frame_succ, nodes, m):
    """Persistent per-world equivalence relations over domain size m, each
    as a tuple indexed by world."""
    # all equivalence relations on a tiny domain, built from set partitions
    def partitions(elems):
        if not elems:
            yield []
            return
        head, rest = elems[0], elems[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[head] + part[i]] + part[i + 1:]
            yield [[head]] + part
    rels = []
    for part in partitions(list(range(m))):
        rel = frozenset((a, b) for block in part for a in block for b in block)
        rels.append(rel)
    rels = sorted(set(rels), key=lambda r: (len(r), tuple(sorted(r))))
    for combo in itertools.product(rels, repeat=len(nodes)):
        ok = all(combo[a] <= combo[b] for a in nodes for b in frame_succ[a])
        if ok:
            yield combo


def countermodel_search(gamma, phi, bounds: SearchBounds, mode="bqlcd_r") -> SearchResult:
    """Exhaustive bounded search for a model refuting ``gamma |= phi``.

    Set-up is built once, as widely shared as it can be.  Once per process:
    the frames of each world count (``_frames``) and each cell's plan
    (``_cell_plan``), a cell being one (world count, domain size) pair.  A
    plan depends on the world count, the witness rule, the relations' row
    counts, the function-table counts, the identity mode and the lane count,
    never on the sentences, so searches share it.  Once per search: the
    compiled sentences, and the relation, function-table and constant spaces
    of each domain size (``_Sequent.cell``).  Once per cell: the plan is
    looked up.  Then the frames of each lane group (``_LaneGroup``) are set
    on the compiled closures, once per group.

    Deterministic: models are enumerated in a fixed order, world count k
    outermost, then domain size, then the frames of ``_frames(k)``, then
    constant vectors in ``itertools.product`` order, function tables, and
    the relation extensions and identity relations as one product of digits:
    one per relation row, relation by relation and tuple by tuple, then the
    identity digit, the last varying fastest.  One pass of the compiled
    sentences decides a block of up to ``_LANES`` interpretations, one lane
    of k + 1 bits per interpretation (see ``_compile_sequent``).  A block
    holds several consecutive frames of a cell whole, side by side, or part
    of one frame too large for a block, whose outer digits then pick the
    block in product order (see ``_cell_plan``).  The passes over a block
    run in (constant vector, function tables, outer digits) order, so the
    lowest set bit of the refuting lanes' witness mask is the first
    refuting world of the first refuting model of the first frame that has
    one in that pass.  A later pass may still refute an earlier frame of the
    block, so the hit is recorded, the lanes of its frame and of every later
    one are masked out, and the block's passes go on while lanes are left;
    the recorded hit is then the first model, which is returned.
    In mode ``congruence`` a lane counts only if the sentences of
    ``_congruence_sentences``, compiled with the sequent, hold at its
    frame's first witness, a reflexive root, whose implications range over
    every world.
    Two rules prune the order without changing that first model:

    - Root rule: the witness must be a root, a world that sees every other
      world (and is reflexive, except in mode ``bqlcd``); frames without such
      a root are skipped.  Truth at a world depends only on the submodel it
      generates, so a countermodel refuted at a non-root has one with fewer
      worlds, which the search met before.
    - Constant rule: the first constant denotes 0.  Permuting the domain
      maps every countermodel to one with that property in the same frame,
      and those vectors come first in product order.

    ``stats`` counts the frames searched, the frames skipped for want of a
    root, the constant vectors tried, the interpretations evaluated (up to
    and including the refuting one), all as a loop over the frames one by
    one in the order above would count them, and the passes, one per block
    decided.  A ``None`` model with ``exhausted=True`` is not a validity
    proof, only exhaustion of the bounds.
    """
    if mode not in MODES:
        raise ValueError(f"unknown search mode {mode!r}")
    gamma = list(gamma)
    identity, reflexive_witness = _MODES[mode]
    sig = infer_signature(gamma + [phi], identity_mode=identity)
    params = sorted(frozenset().union(*(f.params for f in gamma + [phi])))
    const_names = sorted(sig.constants) + [f"#{i}" for i in params]
    rel_names = sorted(r for r in sig.relations if not (identity != "absent" and r == "="))
    fun_names = sorted(sig.functions)
    quantified = any(isinstance(g, (Forall, Exists))
                     for f in gamma + [phi] for g in subformulas(f))
    uses_terms = bool(const_names or fun_names) or quantified or identity != "absent"
    max_domain = bounds.max_domain if uses_terms else 1
    if not quantified and not fun_names and identity == "absent":
        # quantifier- and function-free satisfaction only touches the
        # denotations of the occurring constants
        max_domain = min(max_domain, max(1, len(const_names)))

    rel_index = _index(rel_names)
    if identity != "absent":
        rel_index["="] = len(rel_names)
    congruence = _congruence_sentences(sig, rel_names) if identity == "congruence" else []
    seq = _Sequent(gamma, phi, const_names, rel_names, fun_names, sig, identity,
                   *_compile_sequent(gamma + congruence + [phi], rel_index,
                                     _index(const_names), _index(fun_names))[:2])
    for k in range(1, bounds.max_worlds + 1):
        for m in range(1, max_domain + 1):
            found = _search_cell(seq, k, m, reflexive_witness)
            if found is not None:
                return found
    return SearchResult(None, None, True, tuple(seq.notes), seq.stats)


def _congruence_sentences(sig, rel_names):
    """The sentences that hold at a reflexive root iff '=' is a congruence at
    every world: ``forall xs ys. (xs = ys -> f(xs) = f(ys))`` for each
    function f and ``forall xs ys. (xs = ys & R(xs) -> R(ys))`` for each
    relation R of arity >= 1, ``xs = ys`` standing for pointwise equations."""
    out = []
    for name in sorted(sig.functions) + [r for r in rel_names if sig.relations[r]]:
        ar = sig.functions.get(name) or sig.relations[name]
        xs, ys = (tuple(Var(f"{v}{i}") for i in range(ar)) for v in "xy")
        eqs = [Atom("=", pair) for pair in zip(xs, ys)]
        body = Imp(big_conj(eqs), Atom("=", (Fn(name, xs), Fn(name, ys)))) \
            if name in sig.functions else Imp(big_conj(eqs + [Atom(name, xs)]), Atom(name, ys))
        for v in reversed(xs + ys):
            body = Forall(v.name, body)
        out.append(body)
    return out


@dataclass
class _Sequent:
    """What one search fixes: the sentences, the signature's names in index
    order, the compiled sentences with their frame setter, the notes and
    counters of the result, and the spaces of each domain size."""
    gamma: list
    phi: object
    const_names: list
    rel_names: list
    fun_names: list
    sig: Signature
    identity: str
    compiled: list          # premises, congruence conditions, conclusion
    set_frame: object
    notes: list = field(default_factory=list)
    stats: dict = field(default_factory=lambda: {
        "frames": 0, "frames_unrooted": 0, "const_vectors": 0, "interpretations": 0,
        "passes": 0})
    cells: dict = field(default_factory=dict)

    def cell(self, m):
        """The spaces of domain size m, built once per search: the relations
        as (name, arity, argument tuples), each function's tables and the
        constant vectors."""
        got = self.cells.get(m)
        if got is None:
            sig, dom = self.sig, range(m)
            rel_specs = tuple((r, sig.relations[r],
                               tuple(itertools.product(dom, repeat=sig.relations[r])))
                              for r in self.rel_names)
            fun_spaces = tuple(tuple(itertools.product(dom, repeat=m ** sig.functions[f]))
                               for f in self.fun_names)
            # swapping the first constant's value with 0 in the domain maps
            # any countermodel on a frame to one with c0 = 0, and product
            # order tries those vectors first, so the first model found is kept
            const_space = tuple((0,) + rest for rest in itertools.product(
                dom, repeat=len(self.const_names) - 1)) if self.const_names else ((),)
            got = self.cells[m] = rel_specs, fun_spaces, const_space
        return got


def _compile_sequent(sentences, rel_index, const_index, fun_index):
    """The package's satisfaction clauses.  Each formula becomes a closure
    ``run(interp, const_vals, fun_tables, env)`` returning the mask of the
    worlds where it holds; ``interp[i]`` holds relation i's world mask per
    argument tuple, row-major, and ``env`` the assignment as (name, value)
    pairs, the last binding of a name winning.  Equal subformulas share one
    closure.  A closure keeps no state: its mask depends only on its
    arguments and on the frame last set.

    Also returns ``set_frame(m, groups, packed=None)``, which fixes the
    domain size and the frame as (successor mask, world bits) pairs, and
    ``implies(left, right)``, the implication clause on two masks.

    With ``packed``, every mask holds L interpretations side by side (SWAR):
    lane j is the ``width`` bits from ``j * width``, where ``width`` is one
    bit more than a frame's mask, and the lane's top bit is a guard that
    stays 0.  The lanes may hold different frames of one world count.  The
    groups are then (successor mask, world bits, one-lane world bits): the
    successor mask holds each lane's own frame's successors of the world,
    and the world bits are the world in every lane.  ``packed`` is every
    world in every lane, the guard bits and ``width - 1``, and ``interp``
    holds lane-packed masks.  ``implies`` decides every lane at once: a
    lane of ``t = bad & succ`` that is not 0 carries into its guard bit
    when the lane's low bits, all ones, are added.  Constants, functions
    and assignments are shared by all lanes.
    """
    m = full_mask = guard = shift = None
    groups = ()

    def set_frame(m_, groups_, packed=None):
        nonlocal m, groups, full_mask, guard, shift
        m = m_
        # one lane has no guard bits, so ``implies`` never reads its lane bits
        groups = groups_ if packed else tuple((succ, bits, 0) for succ, bits in groups_)
        full_mask, guard, shift = packed or (
            functools.reduce(operator.or_, (bits for _, bits in groups_), 0), 0, 0)

    def implies(left, right):
        bad = left & ~right
        got = 0
        for succ, bits, lane_bits in groups:
            t = bad & succ
            if not t:
                got |= bits
            elif guard:
                # a lane of t that is not 0 carries into its guard bit
                got |= ((guard & ~(t + full_mask)) >> shift) * lane_bits
        return got

    def term_val(t, env, const_vals, fun_tables):
        if isinstance(t, Const):
            return const_vals[const_index[t.name]]
        if isinstance(t, Param):
            return const_vals[const_index[f"#{t.index}"]]
        if isinstance(t, Var):
            return env[t.name]
        idx = 0
        for a in t.args:
            idx = idx * m + term_val(a, env, const_vals, fun_tables)
        return fun_tables[fun_index[t.name]][idx]

    @functools.cache
    def compile_(f_):
        if isinstance(f_, Top):
            return lambda interp, cv, ft, env: full_mask
        if isinstance(f_, Bottom):
            return lambda interp, cv, ft, env: 0
        if isinstance(f_, Atom):
            ridx = rel_index[f_.rel]
            args = f_.args
            if not args:
                return lambda interp, cv, ft, env: interp[ridx][0]

            def run_atom(interp, cv, ft, env):
                asg = dict(env)
                idx = 0
                for t in args:
                    idx = idx * m + term_val(t, asg, cv, ft)
                return interp[ridx][idx]
            return run_atom
        if isinstance(f_, (Forall, Exists)):
            body, var, forall = compile_(f_.body), f_.var, isinstance(f_, Forall)

            def run_quant(interp, cv, ft, env):
                got, stop = (full_mask, 0) if forall else (0, full_mask)
                for b in range(m):
                    val = body(interp, cv, ft, env + ((var, b),))
                    got = got & val if forall else got | val
                    if got == stop:
                        break
                return got
            return run_quant
        lk, rk = compile_(f_.left), compile_(f_.right)
        if isinstance(f_, And):
            return lambda interp, cv, ft, env: lk(interp, cv, ft, env) & rk(interp, cv, ft, env)
        if isinstance(f_, Or):
            return lambda interp, cv, ft, env: lk(interp, cv, ft, env) | rk(interp, cv, ft, env)
        return lambda interp, cv, ft, env: implies(lk(interp, cv, ft, env),
                                                   rk(interp, cv, ft, env))

    return [compile_(f_) for f_ in sentences], set_frame, implies


def _search_cell(seq, k, m, reflexive_witness):
    """Search the frames of k worlds at domain size m; returns the cell's
    first model as a SearchResult, or None.  The counters and notes are
    those of a loop over the cell's frames one by one."""
    sig, stats = seq.sig, seq.stats
    plan = _cell_plan(k, reflexive_witness, tuple(m ** sig.relations[r] for r in seq.rel_names),
                      tuple(m ** (m ** sig.functions[f]) for f in seq.fun_names), seq.identity,
                      None if seq.identity == "absent" else m, _LANES)
    hit, const_space = None, ()
    if plan.lane_groups:
        rel_specs, fun_spaces, const_space = seq.cell(m)
    for group in plan.lane_groups:
        hit, counts = _run_group(seq, group, plan.row_bounds, m, const_space, fun_spaces)
        stats["interpretations"] += sum(counts if hit is None else counts[:hit[0] + 1])
        if hit is not None:
            break
    frames = plan.frames
    if hit is not None:
        # a frame-by-frame loop never reaches the frames after the hit's
        frames = frames[:group.members[hit[0]][0] + 1]
    searched = sum(skip is None for _, _, skip, _, _ in frames)
    stats["frames"] += len(frames)
    if hit is None:
        stats["frames_unrooted"] += plan.unrooted
        stats["const_vectors"] += searched * len(const_space)
    else:
        stats["frames_unrooted"] += frames[-1][1]
        # the hit's frame met the constant vectors up to the hit's
        stats["const_vectors"] += (searched - 1) * len(const_space) + hit[1] + 1
    for _, _, skip, _, _ in frames:
        if skip is not None:
            note = skip.format(k=k, m=m, funs=seq.fun_names, rels=seq.rel_names)
            if note not in seq.notes:
                seq.notes.append(note)
    if hit is None:
        return None
    _, _, const_vals, fun_tables, digits, world = hit
    frame, _, _, upset_masks, eq_assignments = frames[-1]
    *rows, eq = digits
    rows = [upset_masks[i] for i in rows]
    model = _materialize_masks(seq, tuple(range(k)), frame, m, const_vals, fun_tables, rel_specs,
                               [rows[a:b] for a, b in plan.row_bounds[:-1]],
                               eq_assignments[eq])
    validate_model(model)
    *premises, conclusion = world_masks(model, seq.gamma + [seq.phi])
    assert all(g >> world & 1 for g in premises) and not conclusion >> world & 1
    return SearchResult(model, model.worlds[world], False, tuple(seq.notes), stats)


def _run_group(seq, group, row_bounds, m, const_space, fun_spaces):
    """Run the passes of one ``_LaneGroup`` in (constant vector, function
    tables, outer digits) order.  Returns the first hit in frame order, as
    (member index, constant vector index, constant vector, function tables,
    digits, world), or None, and the valid interpretations each member
    frame met, up to and including the hit in the hit's frame."""
    compiled, n, stats = seq.compiled, len(seq.gamma), seq.stats
    words, lanes, full, witnesses, firsts, spans = \
        group.words, group.lanes, group.full, group.witnesses, group.firsts, group.spans
    full_mask, guard, shift = group.packed
    width, worlds = shift + 1, (1 << shift) - 1
    counts = [0] * len(spans)
    hit, alive = None, -1
    # the valid lanes of the passes since ``last`` last changed, tallied per
    # member when it changes
    last = times = 0

    def tally():
        for i, span in enumerate(spans):
            counts[i] += (last & span).bit_count() * times

    seq.set_frame(m, group.succ_groups, group.packed)
    for ci, const_vals in enumerate(const_space):
        for fun_tables in itertools.product(*fun_spaces) if fun_spaces else [()]:
            for qs in itertools.product(*(range(len(w)) for w in words)):
                flat = [x for w, q in zip(words, qs) for x in w[q][0]]
                interp = tuple(tuple(flat[a:b]) for a, b in row_bounds)
                real = min(w[q][1] for w, q in zip(words, qs))
                valid = (full if real == lanes else _repeat(1, width, real)) & alive
                # a lane is a congruence model iff the congruence sentences
                # hold at its frame's first witness, a reflexive root; a lane
                # of ``held`` that is not 0 carries into its guard bit
                for run in compiled[n:-1]:
                    held = run(interp, const_vals, fun_tables, ()) & firsts
                    valid &= (held + full_mask & guard) >> shift
                stats["passes"] += 1
                phi_mask = compiled[-1](interp, const_vals, fun_tables, ())
                live = witnesses & valid * worlds & ~phi_mask
                for idx in range(n):
                    if not live:
                        break
                    live &= compiled[idx](interp, const_vals, fun_tables, ())
                if live:
                    low = (live & -live).bit_length() - 1
                    valid &= (2 << low) - 1
                if valid != last:
                    tally()
                    last, times = valid, 0
                times += 1
                if live:
                    lane, world = divmod(low, width)
                    i = sum(at <= lane for _, at, _ in group.members) - 1
                    _, at, layout = group.members[i]
                    hit = (i, ci, const_vals, fun_tables,
                           [q * chunk + (lane - at) // stride % chunk
                            for q, (stride, chunk) in zip(qs, layout)], world)
                    # only an earlier frame can still come first
                    alive = (1 << at * width) - 1
                    if not alive:
                        tally()
                        return hit, counts
    tally()
    return hit, counts


def _cap(tables, rows, n_upsets):
    """Why a frame with ``n_upsets`` upsets is skipped, as a note to format
    with k, m and the names of the functions (``funs``) and relations
    (``rels``), or None: the spaces are sized before any is built, each
    symbol's alone, then all of them together."""
    total = 1
    for i, count in enumerate(tables):
        if count > _FUN_TABLE_CAP:
            return f"skipped k={{k}} m={{m}}: function {{funs[{i}]}} has {count} tables"
        total *= count
    for i, r in enumerate(rows):
        count = n_upsets ** r
        if count > _REL_SPACE_CAP:
            return f"skipped k={{k}} m={{m}}: relation {{rels[{i}]}} has {count} interpretations"
        total *= count
    if total > _REL_SPACE_CAP:
        return (f"skipped k={{k}} m={{m}}: {total} interpretations of the relations and "
                f"functions together")
    return None


# Cell plans kept per process.  A plan depends on the world count, the mode
# and the signature's shape, not on the sentences, so searches share them:
# the ``search`` benchmark workload's round of 100 operations visits 324
# cells with 47 plans.
_CELL_PLANS = 1024


@dataclass(frozen=True)
class _CellPlan:
    """What ``_search_cell`` needs of a cell (see ``_cell_plan``)."""
    frames: tuple       # rooted frames: (relation, unrooted frames before it,
                        # skip note, upset masks, '=' relations)
    unrooted: int
    row_bounds: tuple   # the slice of the flat rows each relation, then '=', takes
    lane_groups: tuple  # _LaneGroup, in frame order


@dataclass(frozen=True)
class _LaneGroup:
    """Consecutive frames of a cell whose interpretations fill blocks with one
    layout: whole frames side by side in one block, or one frame too large
    for a block across the blocks of ``_lane_layout``.  A member frame's
    lanes start at its offset; every field but ``members`` is lane-packed
    over the group's ``lanes``."""
    members: tuple      # (frame position, lane offset, digit layout) per frame
    words: tuple        # per digit and outer index q: (row words, real lanes)
    lanes: int
    full: int           # bit 0 of every lane
    succ_groups: tuple  # the frames for ``set_frame``
    packed: tuple
    witnesses: int      # each lane's frame's witnesses
    firsts: int         # each lane's frame's first witness
    spans: tuple        # every bit of each member's lanes


@functools.lru_cache(maxsize=_CELL_PLANS)
def _cell_plan(k, reflexive_witness, rows, tables, identity, m, max_lanes):
    """The plan of the cell of k worlds, given the witness rule (whether the
    witness must be reflexive), the number of rows of each relation, the
    number of tables of each function, the identity mode, the domain size m
    where identity is not absent (else None), and the most lanes a block may
    have.

    Lists the rooted frames of ``_frames(k)`` in order, each with the
    number of unrooted frames before it, why it is skipped, if it is (see
    ``_cap``), its upsets as world masks and the identity digit's values,
    the per-world '=' relations (one ``None`` without identity).  The
    interpretations of the frames not skipped are cut into ``_LaneGroup``:
    consecutive frames whose whole products fit share one block, and a frame
    larger than a block has its blocks to itself.

    The interpretations are the product of one digit per relation row,
    relation by relation and tuple by tuple, then the identity digit, the
    last varying fastest.  A digit's values are the masks it gives its
    rows: an upset to a relation row, the m * m world masks to '=' (none
    without identity, so interp[-1] is then empty)."""
    nodes = range(k)
    pairs = () if identity == "absent" else tuple(itertools.product(range(m), repeat=2))
    ends = tuple(itertools.accumulate(rows + (len(pairs),)))
    frames, lane_groups, pending, used, unrooted = [], [], [], 0, 0
    for rel, succ, upsets, roots in _frames(k):
        # a countermodel refuted at a non-root w restricts to the submodel
        # generated by w, which has fewer worlds and was searched before, so
        # the first countermodel has a root witness
        witnesses = tuple(a for a in roots if (a, a) in rel) if reflexive_witness else roots
        if not witnesses:
            unrooted += 1
            continue
        upset_masks = tuple(sum(1 << a for a in s) for s in upsets)
        if identity == "absent":
            eq_assignments = (None,)
        elif identity == "strict":
            eq_assignments = ((frozenset((a, a) for a in range(m)),) * k,)
        else:
            eq_assignments = tuple(_eq_assignments(succ, nodes, m))
        skip = _cap(tables, rows, len(upsets))
        frames.append((rel, unrooted, skip, upset_masks, eq_assignments))
        if skip is not None:
            continue
        digits = [[(u,) for u in upset_masks]] * sum(rows)
        digits.append([() if eqs is None else
                       tuple(sum(1 << a for a in nodes if pair in eqs[a]) for pair in pairs)
                       for eqs in eq_assignments])
        size = len(upset_masks) ** sum(rows) * len(eq_assignments)
        if pending and used + size > max_lanes:
            lane_groups.append(_lane_group(pending, k, max_lanes))
            pending, used = [], 0
        pending.append((len(frames) - 1, succ, witnesses, digits))
        used += size
    if pending:
        lane_groups.append(_lane_group(pending, k, max_lanes))
    return _CellPlan(tuple(frames), unrooted, tuple(zip((0,) + ends, ends)), tuple(lane_groups))


def _lane_group(members, k, max_lanes):
    """The ``_LaneGroup`` of members (frame position, successors,
    witnesses, digits' values): several only if their products fit in one
    block together."""
    width, at = k + 1, 0
    layouts, words, succ_words, witnesses, firsts, spans = [], [], [0] * k, 0, 0, []
    for pos, succ, wit, digits in members:
        lanes, layout = _lane_layout([len(values) for values in digits], max_lanes)
        shift, full = at * width, _repeat(1, width, lanes)
        layouts.append((pos, at, layout))
        words.append(tuple(
            tuple((tuple(w << shift for w in _lane_words(
                values[q * chunk:(q + 1) * chunk], chunk, stride, lanes, width)),
                   lanes if (q + 1) * chunk <= len(values) else (len(values) - q * chunk) * stride)
                  for q in range(-(-len(values) // chunk)))
            for values, (stride, chunk) in zip(digits, layout)))
        for a in range(k):
            succ_words[a] |= sum(1 << b for b in succ[a]) * full << shift
        witnesses |= sum(1 << a for a in wit) * full << shift
        firsts |= (1 << wit[0]) * full << shift
        spans.append(((1 << lanes * width) - 1) << shift)
        at += lanes
    if len(words) > 1:
        # whole frames side by side: one block, each digit's rows the sum of
        # the members' words
        words = [tuple(((tuple(map(sum, zip(*(w[d][0][0] for w in words)))), at),)
                       for d in range(len(words[0])))]
    full = _repeat(1, width, at)
    return _LaneGroup(tuple(layouts), words[0], at, full,
                      tuple((s, (1 << a) * full, 1 << a) for a, s in enumerate(succ_words)),
                      (((1 << k) - 1) * full, full << k, k), witnesses, firsts, tuple(spans))


def _repeat(x, span, n):
    """``n`` copies of ``x`` at ``span``-bit spacing; ``_repeat(1, width,
    lanes)`` sets bit 0 of every lane, and times a one-lane mask repeats it
    in every lane."""
    out = shift = 0
    while True:
        if n & 1:
            out |= x << shift
            shift += span
        n >>= 1
        if not n:
            return out
        x |= x << span
        span *= 2


def _lane_layout(radices, max_lanes):
    """How the product of the digits with these radices, the last varying
    fastest, is cut into blocks of at most ``max_lanes`` lanes.  Returns the
    lanes per block and one (stride, chunk) per digit: digit d takes value
    ``q_d * chunk + lane // stride % chunk`` in the lanes of block
    ``(q_0, q_1, ...)``.  The innermost digits lie whole in a block
    (``chunk`` is the radix), the next one may be split into chunks, and the
    outer ones are fixed per block (``chunk = 1``).  Block order then is
    product order."""
    lanes, layout = 1, []
    for radix in reversed(radices):
        chunk = max(1, min(radix, max_lanes // lanes))
        layout.append((lanes, chunk))
        lanes *= chunk
    return lanes, tuple(layout[::-1])


def _lane_words(values, chunk, stride, lanes, width):
    """One lane-packed word per row: lane j holds row r of
    ``values[j // stride % chunk]``, or 0 past the end of ``values``."""
    span = stride * width
    starts, period, copies = _repeat(1, width, stride), chunk * span, lanes // (chunk * stride)
    words = []
    for row in zip(*values):
        word = 0
        for i, mask in enumerate(row):
            word |= mask << i * span
        words.append(_repeat(word * starts, period, copies))
    return tuple(words)


def _exts_at(a, rel_specs, rel_choice):
    """Relation extensions (name -> (arity, tuples)) at world ``a`` of a
    mask-encoded interpretation."""
    return {r: (ar, frozenset(t for t, mask in zip(tuples, masks) if mask >> a & 1))
            for (r, ar, tuples), masks in zip(rel_specs, rel_choice)}


def _materialize_masks(seq, nodes, frame, m, const_vals, fun_tables, rel_specs,
                       rel_choice, eqs):
    worlds = tuple(f"w{a}" for a in nodes)
    edges = frozenset((worlds[a], worlds[b]) for (a, b) in frame)
    exts = [_exts_at(a, rel_specs, rel_choice) for a in nodes]
    rels = {r: {worlds[a]: exts[a][r][1] for a in nodes} for r, _, _ in rel_specs}
    rel_arity = {r: ar for r, ar, _ in rel_specs}
    if eqs is not None:
        rels["="] = {worlds[a]: frozenset(eqs[a]) for a in nodes}
        rel_arity["="] = 2
    consts = dict(zip(seq.const_names, const_vals))
    funs = {f: tuple(tab) for f, tab in zip(seq.fun_names, fun_tables)}
    return KripkeModel(worlds, edges, m, consts, funs, dict(seq.sig.functions),
                       rels, rel_arity, seq.identity)
