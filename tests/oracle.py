"""Independent oracle: a naive evaluator written straight off the clauses of
the semantics, with no memo and no compilation, for tests to check the
package's evaluation against."""

from bqlcd.syntax import Const, Param, Var


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
