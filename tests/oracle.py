"""Independent oracle: a naive evaluator written straight off the clauses of
the semantics, with no memo and no compilation, for tests to check the
package's evaluation against; a reference countermodel search that runs
the compiled sentences once per interpretation, for tests to check the
lane-parallel search against; and the free variables and parameters of a
term or formula found by walking it, for tests to check the facts each node
stores against."""

import itertools
from unittest import mock

from bqlcd import kripke
from bqlcd.syntax import (
    BINARY, QUANT, Atom, Const, Fn, Param, Var, subterms,
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
    """``kripke.countermodel_search`` with its frames searched by
    ``_reference_frame``.  The result has the same model, witness, notes and
    counters, except that ``passes`` stays 0."""
    with mock.patch.object(kripke, "_search_frame", _reference_frame):
        return kripke.countermodel_search(gamma, phi, bounds, mode)


def _reference_frame(seq, k, m, frame, succ, upsets, witnesses):
    """The loop ``kripke._search_frame`` had before lanes: the compiled
    sentences run once per interpretation, in product order."""
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
            # the caches are shared by every frame of the search, so they
            # are cleared whenever the frame, the constants or the function
            # tables change: each change starts a pass of this loop, and
            # setting the frame clears them
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
