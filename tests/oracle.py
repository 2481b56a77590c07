"""Independent oracle: a naive evaluator written straight off the clauses of
the semantics, with no memo and no compilation, for tests to check the
package's evaluation against; a reference countermodel search that runs
the compiled sentences once per interpretation, for tests to check the
lane-parallel search against; the free variables and parameters of a
term or formula found by walking it, for tests to check the facts each node
stores against; and axiom schema matching and instantiation by a recursive
walk over the schema's formula, for tests to check the compiled schema
kernels against; and eigenvariable renaming by nested folds, one over each
renamed node's premise subtree, for tests to check the package's renaming
against."""

import itertools
from dataclasses import replace

from bqlcd import kripke
from bqlcd.proofkernel import SCHEMAS, analyze, eigenparameter, fold
from bqlcd.syntax import (
    BINARY, QUANT, Atom, Const, Exists, Fn, Forall, Param, Var, infer_signature,
    match_instantiation, parameters_of, replace_param, subformulas, subterms,
)


def oracle_term(m, t, asg):
    if isinstance(t, Var):
        return asg[t.name]
    if isinstance(t, Const):
        return m.consts[t.name]
    if isinstance(t, Param):
        return m.consts[f"#{t.index}"]
    idx = 0
    for a in t.args:
        idx = idx * m.domain_size + oracle_term(m, a, asg)
    return m.funs[t.name][idx]


def oracle_sat(m, w, phi, asg=None):
    asg = asg or {}
    kind = type(phi).__name__
    if kind == "Top":
        return True
    if kind == "Bottom":
        return False
    if kind == "Atom":
        vals = tuple(oracle_term(m, t, asg) for t in phi.args)
        return vals in m.rels.get(phi.rel, {}).get(w, frozenset())
    if kind == "And":
        return oracle_sat(m, w, phi.left, asg) and oracle_sat(m, w, phi.right, asg)
    if kind == "Or":
        return oracle_sat(m, w, phi.left, asg) or oracle_sat(m, w, phi.right, asg)
    if kind == "Imp":
        for u in m.worlds:
            if (w, u) in m.edges:
                if oracle_sat(m, u, phi.left, asg) and not oracle_sat(m, u, phi.right, asg):
                    return False
        return True
    hits = []
    for b in range(m.domain_size):
        sub = dict(asg)
        sub[phi.var] = b
        hits.append(oracle_sat(m, w, phi.body, sub))
    return any(hits) if kind == "Exists" else all(hits)


def reference_search(gamma, phi, bounds, mode="bqlcd_r"):
    """A countermodel search that tries the frames one by one, as
    ``kripke.countermodel_search`` did before lanes: world count, then
    domain size, then the frames, each searched by ``_reference_frame``.  It
    keeps the search's domain bound, root rule, constant rule, size caps,
    notes and counters; ``passes`` stays 0.  What it shares with the
    package: the frames (``kripke._frames``), the compiled sentences
    (``kripke._compile_sequent``), and the helpers that list the persistent
    identity relations, test congruence and build the model."""
    gamma = list(gamma)
    identity, reflexive_witness = kripke._MODES[mode]
    sig = infer_signature(gamma + [phi], identity_mode=identity)
    params = sorted(frozenset().union(*(f.params for f in gamma + [phi])))
    const_names = sorted(sig.constants) + [f"#{i}" for i in params]
    rel_names = sorted(r for r in sig.relations if not (identity != "absent" and r == "="))
    fun_names = sorted(sig.functions)
    quantified = any(isinstance(g, (Forall, Exists))
                     for f in gamma + [phi] for g in subformulas(f))
    max_domain = bounds.max_domain \
        if const_names or fun_names or quantified or identity != "absent" else 1
    if not quantified and not fun_names and identity == "absent":
        max_domain = min(max_domain, max(1, len(const_names)))
    index = {r: i for i, r in enumerate(rel_names + (["="] if identity != "absent" else []))}
    compiled, set_frame, _ = kripke._compile_sequent(
        gamma + [phi], index, {c: i for i, c in enumerate(const_names)},
        {f: i for i, f in enumerate(fun_names)})
    seq = kripke._Sequent(gamma, phi, const_names, rel_names, fun_names, sig, identity,
                          compiled, set_frame)
    for k in range(1, bounds.max_worlds + 1):
        for m in range(1, max_domain + 1):
            for frame, succ, upsets, roots in kripke._frames(k):
                # the witness is a root: one that is not is the root of a
                # smaller countermodel, met before
                witnesses = tuple(a for a in roots if (a, a) in frame) \
                    if reflexive_witness else roots
                if not witnesses:
                    seq.stats["frames_unrooted"] += 1
                    continue
                seq.stats["frames"] += 1
                found = _reference_frame(seq, k, m, frame, succ, upsets, witnesses)
                if found is not None:
                    return found
    return kripke.SearchResult(None, None, True, tuple(seq.notes), seq.stats)


def _reference_frame(seq, k, m, frame, succ, upsets, witnesses):
    """Search one frame: the compiled sentences run once per
    interpretation, in product order."""
    gamma, compiled, identity, sig = seq.gamma, seq.compiled, seq.identity, seq.sig
    stats = seq.stats
    nodes = tuple(range(k))
    upset_masks = [sum(1 << a for a in s) for s in upsets]

    def skip(note):
        if note not in seq.notes:
            seq.notes.append(note)

    # the spaces are sized before any is built: each symbol's alone, then
    # all of them together
    total = 1
    for f in seq.fun_names:
        count = m ** (m ** sig.functions[f])
        if count > kripke._FUN_TABLE_CAP:
            return skip(f"skipped k={k} m={m}: function {f} has {count} tables")
        total *= count
    for r in seq.rel_names:
        count = len(upset_masks) ** (m ** sig.relations[r])
        if count > kripke._REL_SPACE_CAP:
            return skip(f"skipped k={k} m={m}: relation {r} has {count} interpretations")
        total *= count
    if total > kripke._REL_SPACE_CAP:
        return skip(f"skipped k={k} m={m}: {total} interpretations of the "
                    f"relations and functions together")

    fun_spaces = [list(itertools.product(range(m), repeat=m ** sig.functions[f]))
                  for f in seq.fun_names]
    rel_specs, rel_spaces = [], []      # (name, arity, tuples), choice space
    for r in seq.rel_names:
        ar = sig.relations[r]
        rel_specs.append((r, ar, list(itertools.product(range(m), repeat=ar))))
        rel_spaces.append(list(itertools.product(upset_masks, repeat=m ** ar)))

    eq_assignments = [None]
    if identity != "absent":
        if identity == "strict":
            diag = frozenset((a, a) for a in range(m))
            eq_assignments = [{a: diag for a in nodes}]
        else:
            eq_assignments = list(kripke._eq_assignments(succ, nodes, m))

    groups = tuple((sum(1 << b for b in succ[a]), 1 << a) for a in nodes)
    witness_mask = sum(1 << a for a in witnesses)

    # swapping the first constant's value with 0 in the domain maps any
    # countermodel on this frame to one with c0 = 0, and product order tries
    # those vectors first, so the first model found is kept
    const_space = [(0,) + rest for rest in
                   itertools.product(range(m), repeat=len(seq.const_names) - 1)] \
        if seq.const_names else [()]
    for const_vals in const_space:
        stats["const_vectors"] += 1
        for fun_tables in itertools.product(*fun_spaces) if fun_spaces else [()]:
            # the compiled closures keep no state, so setting the frame once
            # per frame would do; this loop sets it again on every pass
            seq.set_frame(m, groups)
            funs = {f: (sig.functions[f], table)
                    for f, table in zip(seq.fun_names, fun_tables)}
            for rel_choice in itertools.product(*rel_spaces):
                for eqs in eq_assignments:
                    interp = list(rel_choice)
                    if eqs is not None:
                        if identity == "congruence" and any(
                                kripke._congruence_fault(
                                    eqs[a], m, funs, kripke._exts_at(a, rel_specs, rel_choice))
                                for a in nodes):
                            continue
                        eq_masks = []
                        for pair in itertools.product(range(m), repeat=2):
                            eq_masks.append(sum(1 << a for a in nodes
                                                if pair in eqs[a]))
                        interp.append(tuple(eq_masks))
                    interp = tuple(interp)
                    stats["interpretations"] += 1
                    phi_mask = compiled[-1](interp, const_vals, fun_tables, ())
                    live = witness_mask & ~phi_mask
                    if not live:
                        continue
                    for idx in range(len(gamma)):
                        live &= compiled[idx](interp, const_vals, fun_tables, ())
                        if not live:
                            break
                    if not live:
                        continue
                    hit = (live & -live).bit_length() - 1
                    model = kripke._materialize_masks(seq, nodes, frame, m, const_vals,
                                                      fun_tables, rel_specs, rel_choice, eqs)
                    kripke.validate_model(model)
                    *premises, conclusion = kripke.world_masks(model, gamma + [seq.phi])
                    assert all(g >> hit & 1 for g in premises) \
                        and not conclusion >> hit & 1
                    w = model.worlds[hit]
                    return kripke.SearchResult(model, w, False, tuple(seq.notes), stats)
    return None


def reference_free_vars(x) -> frozenset:
    if isinstance(x, (Var, Const, Param, Fn)):
        return frozenset(s.name for s in subterms(x) if isinstance(s, Var))
    if isinstance(x, Atom):
        return frozenset(s.name for a in x.args for s in subterms(a)
                         if isinstance(s, Var))
    if isinstance(x, BINARY):
        return reference_free_vars(x.left) | reference_free_vars(x.right)
    if isinstance(x, QUANT):
        return reference_free_vars(x.body) - {x.var}
    return frozenset()


def reference_params(x) -> frozenset:
    if isinstance(x, (Var, Const, Param, Fn)):
        return frozenset(s.index for s in subterms(x) if isinstance(s, Param))
    if isinstance(x, Atom):
        return frozenset(s.index for a in x.args for s in subterms(a)
                         if isinstance(s, Param))
    if isinstance(x, BINARY):
        return reference_params(x.left) | reference_params(x.right)
    if isinstance(x, QUANT):
        return reference_params(x.body)
    return frozenset()


def reference_match(name, f):
    """``match_schema``: the metavariable bindings, in the order a left to
    right walk of the schema first meets each metavariable, or None."""
    bindings = {}
    if not _bind(SCHEMAS[name], f, bindings):
        return None
    if name in ("forall_inst", "exists_int") and not match_instantiation(
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


def reference_instance(name, bindings):
    """``schema_instance``: the schema with every metavariable replaced by
    its binding."""
    return _fill(SCHEMAS[name], bindings)


def _fill(pat, bindings):
    if isinstance(pat, Atom):
        return bindings[pat.rel]
    if isinstance(pat, QUANT):
        return type(pat)(bindings[pat.var], _fill(pat.body, bindings))
    if isinstance(pat, BINARY):
        return type(pat)(_fill(pat.left, bindings), _fill(pat.right, bindings))
    return pat


def reference_rename(t, avoid, an=None):
    """``rename_eigenvariables``: a post-order fold that, at each quantifier
    node whose eigenparameter lies in ``avoid``, renames it to the next fresh
    index by a second fold over the node's premise subtree."""
    an, avoid = an or analyze(t), set(avoid)
    if not any(eigenparameter(nd, an) in avoid for nd in an.nodes):
        return t
    used = parameters_of(t) | avoid
    counter = itertools.count(max(used) + 1)

    def go(nd, kids):
        nd = replace(nd, children=tuple(kids))
        idx = eigenparameter(nd, an)
        if idx in avoid:
            new = next(counter)
            if nd.rule == "forall_int":
                sub = _rename_params_in_tree(nd.children[0], idx, new)
                nd = replace(nd, children=(sub,))
            else:
                body = _rename_params_in_tree(nd.children[1], idx, new)
                nd = replace(nd, children=(nd.children[0], body))
        return nd

    return fold(t, go)


def _rename_params_in_tree(t, old, new):
    return fold(t, lambda nd, kids: replace(
        nd, conclusion=replace_param(nd.conclusion, old, new), children=tuple(kids)))
