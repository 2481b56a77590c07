"""Proof generators and proof-to-proof rewriters.

Everything here outputs trees meant to be re-checked by the kernel: the
distribution and release lemmas, guard regularity, the relative deduction
rewrite that eliminates modus ponens in favour of guards, the unrestricted
elimination rules built on top of it, and the translations between the
natural-deduction systems and the axiomatic ones.

``box(n, phi)`` is the n-fold guard ``true -> ... -> phi``; the key identity
``box(n, true -> phi) == box(n + 1, phi)`` holds structurally and is used
silently throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .proofkernel import (
    AX_RULES, CHILD_COUNT, IDENTITY_RULES, INTERNALISED, ND_RULES, Judgment,
    Proof, System, _eigenparam_for_exists, analyze, assume, canonical_leaf_ids,
    check_analysis, check_judgment, check_proof, eigenparameter, fold,
    internal_instance, node, open_assumptions, relabel_fresh, rename_eigenvariables,
    schema_instance,
)
from .syntax import (
    And, Exists, Forall, Imp, Or, Param, TOP, Formula, big_conj, box,
    match_instantiation, parameters_of, pretty, substitute,
)


class TransformError(ValueError):
    pass


# ---------------------------------------------------------------------------
# small builders
# ---------------------------------------------------------------------------

def vacuous_imp(p: Proof, antecedent: Formula) -> Proof:
    return node("imp_int", Imp(antecedent, p.conclusion), [p])


def boxn(p: Proof, n: int) -> Proof:
    for _ in range(n):
        p = vacuous_imp(p, TOP)
    return p


def _safe_opens(p: Proof, phi: Formula) -> set:
    """Ids of the open occurrences of ``phi`` in ``p`` that lie in the right
    premise of no modus ponens, which a node on top of ``p`` may discharge."""
    an = analyze(p)
    return {lid for lid in an.open_leaves_in(0)
            if an.leaf_formula[lid] == phi and not an.unsafe_for(lid)}


def close_antecedent(p: Proof, antecedent: Formula) -> Proof:
    """Conditional proof discharging every safe open occurrence of the
    antecedent."""
    return node("imp_int", Imp(antecedent, p.conclusion), [p],
                _safe_opens(p, antecedent))


def graft(host: Proof, replacements: dict) -> Proof:
    """Put each replacement proof in place of the host's open assumption
    leaves with its conclusion: as it is at the first such leaf, and as a
    copy with fresh leaf ids at each later one.  So a replacement must occur
    nowhere else: each builder splices a sub-result once.  Quantifier
    parameters are not renamed; a host that may bind one is renamed first.
    """
    an = analyze(host)
    open_ids = {lid for lid in an.open_leaves_in(0)
                if an.leaf_formula[lid] in replacements}
    unspliced = dict(replacements)

    def go(nd, kids):
        if nd.is_assumption() and nd.leaf_id in open_ids:
            return (unspliced.pop(nd.conclusion, None)
                    or relabel_fresh(replacements[nd.conclusion]))
        return replace(nd, children=tuple(kids)) if kids else nd

    return fold(host, go)


def ordered_opens(p: Proof) -> list:
    """Distinct open assumption sentences in first-occurrence order."""
    return _ordered_opens(analyze(p), 0)


def _ordered_opens(an, i) -> list:
    """The same for the subtree at node i of an analysed proof."""
    lids = sorted(an.open_leaves_in(i), key=an.leaf_node.__getitem__)
    return list(dict.fromkeys(an.leaf_formula[lid] for lid in lids))


def _fresh_param(*items):
    return max(frozenset().union(*map(parameters_of, items)), default=-1) + 1


# ---------------------------------------------------------------------------
# conjunction plumbing
# ---------------------------------------------------------------------------

def _conj_components(s: Formula) -> dict:
    """Subformula -> elimination path into the conjunction tree."""
    out = {}

    def walk(f_, path):
        if f_ not in out:
            out[f_] = path
        if isinstance(f_, And):
            walk(f_.left, path + "l")
            walk(f_.right, path + "r")

    walk(s, "")
    return out


def _project(source: Formula, path: str) -> Proof:
    """The conjunct at ``path`` (a string of "l" and "r" steps) of the open
    assumption ``source``, by and-eliminations."""
    p = assume(source)
    for step in path:
        if step == "l":
            p = node("and_elim_l", p.conclusion.left, [p])
        else:
            p = node("and_elim_r", p.conclusion.right, [p])
    return p


def derive_conj_imp(source: Formula, target: Formula) -> Proof:
    """Closed proof of ``source -> target`` where the target is assembled
    from pieces of the source conjunction tree (plus the truth constant)."""
    comp = _conj_components(source)

    def build(t):
        if t in comp:
            return _project(source, comp[t])
        if t == TOP:
            return node("top_int", TOP)
        if isinstance(t, And):
            return node("and_int", t, [build(t.left), build(t.right)])
        raise TransformError(
            f"cannot assemble {pretty(t)} out of {pretty(source)}")

    return close_antecedent(build(target), source)


# ---------------------------------------------------------------------------
# the derived lemmas
# ---------------------------------------------------------------------------

def derive_distribution(phi, psi, chi) -> Proof:
    """(phi & psi) | (phi & chi) from the open assumption phi & (psi | chi)."""
    src = And(phi, Or(psi, chi))
    tgt = Or(And(phi, psi), And(phi, chi))
    major = node("and_elim_r", Or(psi, chi), [assume(src)])
    dl, dr = assume(psi), assume(chi)
    left = node("or_int_l", tgt,
                [node("and_int", And(phi, psi),
                      [node("and_elim_l", phi, [assume(src)]), dl])])
    right = node("or_int_r", tgt,
                 [node("and_int", And(phi, chi),
                       [node("and_elim_l", phi, [assume(src)]), dr])])
    return node("or_elim", tgt, [major, left, right], {dl.leaf_id, dr.leaf_id})


def derive_infinite_distribution(phi, v, psi) -> Proof:
    """exists v (phi & psi) from the open assumption phi & exists v psi."""
    if phi.free:
        raise TransformError("the fixed conjunct must be closed")
    if not psi.free <= {v}:
        raise TransformError("the matrix may only use the bound variable")
    src = And(phi, Exists(v, psi))
    tgt = Exists(v, And(phi, psi))
    i = _fresh_param(phi, psi)
    wit = assume(substitute(psi, v, Param(i)))
    major = node("and_elim_r", Exists(v, psi), [assume(src)])
    pair = node("and_int", And(phi, wit.conclusion),
                [node("and_elim_l", phi, [assume(src)]), wit])
    body = node("exists_int", tgt, [pair])
    return node("exists_elim", tgt, [major, body], {wit.leaf_id})


def derive_and_release(phi, psi, chi) -> Proof:
    """phi -> (psi -> chi) from the open assumption phi & psi -> chi."""
    prem = assume(Imp(And(phi, psi), chi))
    d1, d2 = assume(phi), assume(psi)
    pair = node("and_int", And(phi, psi), [d1, d2])
    inner = node("imp_int", Imp(psi, And(phi, psi)), [pair], {d2.leaf_id})
    chain = node("int_trans", Imp(psi, chi), [inner, prem])
    return node("imp_int", Imp(phi, Imp(psi, chi)), [chain], {d1.leaf_id})


def derive_forall_embedding(n, v, phi) -> Proof:
    """box^n of the universal from the open assumption universalised guard.

    Follows the inductive construction: the guard is pulled inside with the
    internal universal introduction, then chained with the recursive proof.
    """
    if n == 0:
        return assume(Forall(v, phi))
    rec = derive_forall_embedding(n - 1, v, phi)
    lower = Forall(v, box(n - 1, phi))
    prem = assume(Forall(v, box(n, phi)))
    left = node("int_forall_int", Imp(TOP, lower), [prem])
    right = close_antecedent(rec, lower)
    return node("int_trans", Imp(TOP, box(n - 1, Forall(v, phi))), [left, right])


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------

def regularity_transform(p: Proof, n: int, premises=None) -> Proof:
    """Lift a guard-free-system proof under n guards premise-wise: from the
    premises each guarded n deep, conclude the guarded conclusion."""
    if n < 0:
        raise TransformError("guard depth must be >= 0")
    premises = ordered_opens(p) if premises is None else list(dict.fromkeys(premises))
    if not set(open_assumptions(p)) <= set(premises):
        raise TransformError("premise list does not cover the open assumptions")
    cur = p
    for k in range(1, n + 1):
        cur = _regularity_step(cur, [box(k - 1, f_) for f_ in premises],
                               [box(k, f_) for f_ in premises])
    return cur


def _regularity_step(q: Proof, lower: list, upper: list) -> Proof:
    if not lower:
        return vacuous_imp(q, TOP)
    big = big_conj(lower)
    comp = _conj_components(big)
    q2 = graft(rename_eigenvariables(q, big.params),
               {f_: _project(big, comp[f_]) for f_ in lower})
    right = close_antecedent(q2, big)
    leaves = [assume(u) for u in upper]
    left = leaves[-1]
    for lf, low in zip(reversed(leaves[:-1]), reversed(lower[:-1])):
        # lf concludes true -> lower_i; left concludes true -> (rest)
        left = node("int_and_int", Imp(TOP, And(low, left.conclusion.right)),
                    [lf, left])
    return node("int_trans", Imp(TOP, q.conclusion), [left, right])


def boxed_chain(template: Proof, n: int, pairs) -> Proof:
    """Regularity applied to a small rule proof, then premise proofs grafted
    onto its guarded assumptions.  ``pairs``: list of (premise, proof of the
    premise guarded n deep)."""
    lifted = regularity_transform(template, n, [f_ for f_, _ in pairs])
    # reversed, so that the first proof of a repeated premise is kept
    return graft(lifted, {box(n, f_): p_ for f_, p_ in reversed(pairs)})


def _rule_under(n, rule, concl, pairs) -> Proof:
    """box^n of the rule's conclusion: the rule over assumed premises, lifted
    by ``boxed_chain`` with the same ``pairs``."""
    return boxed_chain(node(rule, concl, [assume(f_) for f_, _ in pairs]), n, pairs)


def chain_imp(n, a, b, c, p_ab, p_bc) -> Proof:
    return _rule_under(n, "int_trans", Imp(a, c),
                       [(Imp(a, b), p_ab), (Imp(b, c), p_bc)])


def pair_imp(n, s, a, b, p_sa, p_sb) -> Proof:
    return _rule_under(n, "int_and_int", Imp(s, And(a, b)),
                       [(Imp(s, a), p_sa), (Imp(s, b), p_sb)])


def or_join(n, a, b, c, p_ac, p_bc) -> Proof:
    return _rule_under(n, "int_or_elim", Imp(Or(a, b), c),
                       [(Imp(a, c), p_ac), (Imp(b, c), p_bc)])


def _after(n, lemma, concl, p) -> Proof:
    """box^n(a -> concl) from a closed proof ``lemma`` of a -> b and a proof
    ``p`` of box^n(b -> concl)."""
    a_b = lemma.conclusion
    return chain_imp(n, a_b.left, a_b.right, concl, boxn(lemma, n), p)


def _rule_proof(rule, premises, concl) -> Proof:
    """Closed guard-free proof of ``internal_instance(premises, concl)``: the
    rule applied to the antecedent, or to its two conjuncts, closed by
    conditional proof."""
    src = internal_instance(premises, concl).left
    paths = [""] if len(premises) == 1 else ["l", "r"]
    return close_antecedent(node(rule, concl, [_project(src, p_) for p_ in paths]), src)


# ---------------------------------------------------------------------------
# relative deduction
# ---------------------------------------------------------------------------

def relative_deduction(t: Proof, gamma, sigma, n: int, identity="absent") -> Proof:
    """Rewrite a stratum-n proof into a guard-free proof of the guarded
    conditional: from unsafe context only, conclude box^n of (the side
    context conjoined) -> conclusion.  The rewrite reads each input node's
    stratum, open assumptions and eigenparameter from one analysis of ``t``."""
    gamma = frozenset(gamma)
    sigma = list(sigma)
    if n < 0:
        raise TransformError("the rewrite is defined for depth >= 0")
    ok, report = check_judgment(
        Judgment(tuple(gamma), tuple(sigma), n, t.conclusion), t, identity)
    if not ok:
        msgs = "; ".join(v.message for v in report.violations) or "context mismatch"
        raise TransformError(f"judgment does not hold: {msgs}")
    return canonical_leaf_ids(_rewrite(analyze(t), gamma, sigma, n))


def _rewrite(an, gamma, sigma, n: int) -> Proof:
    """The rewrite of the root of the analysed proof, run off an explicit
    stack of ``_rd`` generators, so its depth is not bounded by recursion."""
    stack, value = [_rd(an, 0, gamma, sigma, n)], None
    while stack:
        try:
            request = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(_rd(an, *request))
            value = None
    return value


def _rd(an, j, gamma, sigma, n: int):
    """The rewrite of node j of the analysed input, as a generator: it yields
    (node index, gamma, sigma, n) for each premise it needs rewritten, is sent
    that rewrite, and returns its own.  The helpers below work the same way."""
    t = an.nodes[j]
    s_conj = big_conj(sigma)
    concl = t.conclusion
    rule = t.rule

    if rule == "assume":
        if concl in gamma:
            return boxn(vacuous_imp(assume(concl), s_conj), n)
        if concl in sigma:
            return boxn(derive_conj_imp(s_conj, concl), n)
        raise TransformError(f"open assumption {pretty(concl)} outside both contexts")
    if rule == "or_elim":
        return (yield from _rd_or_elim(an, j, gamma, sigma, n))
    if rule == "imp_int":
        return (yield from _rd_imp_int(an, j, gamma, sigma, n))
    if rule == "imp_elim":
        return (yield from _rd_imp_elim(an, j, gamma, sigma, n))
    if rule == "exists_elim":
        return (yield from _rd_exists_elim(an, j, gamma, sigma, n))
    if rule == "forall_int" and concl.var in concl.body.free:
        return (yield from _rd_forall_int(an, j, gamma, sigma, n))

    # every other natural-deduction rule is rewritten by its premise count;
    # a vacuous generalisation behaves like any other unary rule
    nd_rule = rule in ND_RULES or rule in IDENTITY_RULES
    arity = CHILD_COUNT[rule] if nd_rule else None
    if arity == 0:
        return boxn(vacuous_imp(node(rule, concl), s_conj), n)

    if arity in (1, 2):
        premises = [c.conclusion for c in t.children]
        subs = []
        for k in an.kids[j]:
            subs.append((yield k, gamma, sigma, n))
        into = subs[0] if arity == 1 else pair_imp(n, s_conj, *premises, *subs)
        step = _rule_proof(rule, premises, concl)
        return chain_imp(n, s_conj, step.conclusion.left, concl, into, boxn(step, n))

    raise TransformError(f"rule {rule} has no rewrite case")


def _sub_contexts(an, j, gamma, sigma, exclude=()):
    """Minimal split contexts for the quantifier subproof at node j: its open
    assumptions, routed to the unsafe side when they were there already."""
    opens = {an.leaf_formula[lid] for lid in an.open_leaves_in(j)} - set(exclude)
    gamma_star = frozenset(g for g in gamma if g in opens)
    sigma_star = list(dict.fromkeys(s_ for s_ in sigma
                                    if s_ in opens and s_ not in gamma_star))
    leftover = opens - set(gamma_star) - set(sigma_star)
    if leftover:
        raise TransformError(
            f"open assumptions outside both contexts: "
            f"{', '.join(sorted(map(pretty, leftover)))}")
    return gamma_star, sigma_star


def _rd_or_elim(an, j, gamma, sigma, n):
    s_conj = big_conj(sigma)
    i_major, i_left, i_right = an.kids[j]
    disj = an.nodes[i_major].conclusion
    alpha, beta = disj.left, disj.right
    concl = an.nodes[j].conclusion
    a1 = yield i_major, gamma, sigma, n
    if not sigma:
        a2 = yield i_left, gamma, [alpha], n
        a3 = yield i_right, gamma, [beta], n
        joined = or_join(n, alpha, beta, concl, a2, a3)
        return chain_imp(n, TOP, disj, concl, a1, joined)
    a2 = yield from _lift_branch(i_left, gamma, sigma, alpha, concl, n)
    a3 = yield from _lift_branch(i_right, gamma, sigma, beta, concl, n)
    dist = close_antecedent(derive_distribution(s_conj, alpha, beta), And(s_conj, disj))
    joined = or_join(n, And(s_conj, alpha), And(s_conj, beta), concl, a2, a3)
    return _with_context(n, s_conj, disj, a1, concl, _after(n, dist, concl, joined))


def _with_context(n, s_conj, major, p_major, concl, body):
    """box^n(s_conj -> concl) from ``p_major``, a proof of box^n(s_conj ->
    major), and ``body``, a proof of box^n(s_conj & major -> concl)."""
    refl = boxn(derive_conj_imp(s_conj, s_conj), n)
    pair = pair_imp(n, s_conj, s_conj, major, refl, p_major)
    return chain_imp(n, s_conj, And(s_conj, major), concl, pair, body)


def _lift_branch(j, gamma, sigma, extra, concl, n):
    """box^n((sigma-conjunction & extra) -> concl) from the branch at node j."""
    ext = sigma + [extra]
    raw = yield j, gamma, ext, n
    glue = derive_conj_imp(And(big_conj(sigma), extra), big_conj(ext))
    return _after(n, glue, concl, raw)


def _rd_imp_int(an, j, gamma, sigma, n):
    body = an.kids[j][0]
    concl = an.nodes[j].conclusion
    phi, psi = concl.left, concl.right
    if not sigma:
        inner = yield body, gamma, [phi], n
        return vacuous_imp(inner, TOP)
    s_conj = big_conj(sigma)
    lifted = yield from _lift_branch(body, gamma, sigma, phi, psi, n)
    release = derive_and_release(s_conj, phi, psi)
    return boxed_chain(release, n, [(Imp(And(s_conj, phi), psi), lifted)])


def _rd_imp_elim(an, j, gamma, sigma, n):
    s_conj = big_conj(sigma)
    i_minor, i_major = an.kids[j]
    alpha = an.nodes[i_minor].conclusion
    concl = an.nodes[j].conclusion
    m = an.strata[i_major]
    if m >= n:
        raise TransformError(f"right premise stratum {m} is not below {n}")
    a1 = yield i_minor, gamma, sigma, n
    if m == -1:
        a2 = boxn(relabel_fresh(an.nodes[i_major]), n)
    else:
        reduced = yield i_major, gamma, [], m       # box(m+1, alpha -> concl)
        a2 = boxn(reduced, n - m - 1)
    return chain_imp(n, s_conj, alpha, concl, a1, a2)


def _rd_forall_int(an, j, gamma, sigma, n):
    # the generalisation parameter needs no explicit handling: the checker
    # re-infers it from the rewritten premise, and the freshness conditions
    # carry over from the input proof
    sub = an.kids[j][0]
    concl = an.nodes[j].conclusion
    v, phi = concl.var, concl.body
    gamma_star, sigma_star = _sub_contexts(an, sub, gamma, sigma)
    s_star = big_conj(sigma_star)
    inner = yield sub, gamma_star, sigma_star, n
    narrowed = _generalise(n, v, Imp(s_star, phi), "int_forall_int",
                           Imp(s_star, concl), inner)
    return _after(n, derive_conj_imp(big_conj(sigma), s_star), concl, narrowed)


def _generalise(n, v, body, rule, concl, p):
    """box^n(concl) from ``p``, a proof of box^n(body) for the eigenparameter:
    generalised, its guards moved out of the quantifier by the embedding,
    then the internal ``rule`` applied to the universal."""
    gen = node("forall_int", Forall(v, box(n, body)), [p])
    embedded = graft(derive_forall_embedding(n, v, body), {gen.conclusion: gen})
    return _rule_under(n, rule, concl, [(Forall(v, body), embedded)])


def _rd_exists_elim(an, j, gamma, sigma, n):
    s_conj = big_conj(sigma)
    t = an.nodes[j]
    i_major, i_body = an.kids[j]
    ex = an.nodes[i_major].conclusion
    v, matrix = ex.var, ex.body
    concl = t.conclusion
    i = _eigenparam_for_exists(t, an)[0]
    if i is None:
        i = _fresh_param(t, *gamma, *sigma)
    xi = substitute(matrix, v, Param(i))
    gamma_star, sigma_star = _sub_contexts(an, i_body, gamma, sigma, exclude=(xi,))
    s_star = big_conj(sigma_star)
    a1 = yield i_major, gamma, sigma, n
    if not sigma_star:
        inner = yield i_body, gamma_star, [xi], n
        narrowed = _generalise(n, v, Imp(matrix, concl), "int_exists_elim",
                               Imp(ex, concl), inner)
        return chain_imp(n, s_conj, ex, concl, a1, narrowed)
    paired = And(s_star, matrix)
    lifted = yield from _lift_branch(i_body, gamma_star, sigma_star, xi, concl, n)
    narrowed = _generalise(n, v, Imp(paired, concl), "int_exists_elim",
                           Imp(Exists(v, paired), concl), lifted)
    infd = close_antecedent(derive_infinite_distribution(s_star, v, matrix),
                            And(s_star, ex))
    k = _after(n, derive_conj_imp(And(s_conj, ex), And(s_star, ex)), concl,
               _after(n, infd, concl, narrowed))
    return _with_context(n, s_conj, ex, a1, concl, k)


# ---------------------------------------------------------------------------
# reduction and unrestricted eliminations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionResult:
    n: int
    proof: Proof
    source_stratum: int


def reduce_proof(t: Proof, identity="absent") -> ReductionResult:
    """Eliminate modus ponens: a stratum-s proof of phi becomes a guard-free
    proof of box(s + 1, phi) from the same open assumptions."""
    an = analyze(t)
    report = check_analysis(an, System("nd", None, identity))
    if not report.valid:
        msgs = "; ".join(v.message for v in report.violations)
        raise TransformError(f"input does not check: {msgs}")
    s = report.stratum
    if s == -1:
        return ReductionResult(0, t, -1)
    out = _rewrite(an, frozenset(report.open_assumptions), [], s)
    return ReductionResult(s + 1, canonical_leaf_ids(out), s)


def unbox(t: Proof, n: int) -> Proof:
    """Strip n guards by pairing with the truth constant."""
    concl = t.conclusion
    for _ in range(n):
        if not (isinstance(concl, Imp) and concl.left == TOP):
            raise TransformError(f"conclusion is not guarded: {pretty(concl)}")
        concl = concl.right
        t = node("imp_elim", concl, [node("top_int", TOP), t])
    return t


def pad_box(t: Proof, n: int, m: int) -> Proof:
    """Deepen guards from n to m with vacuous conditional proofs."""
    if m < n:
        raise TransformError("cannot remove guards by padding")
    return boxn(t, m - n)


def unrestricted_or_elim(t_major: Proof, t_left: Proof, t_right: Proof,
                         identity="absent") -> Proof:
    """Case analysis without the discharge restriction: the branches are
    rewritten guard-free, padded to equal depth, eliminated, and unguarded."""
    if t_left.conclusion != t_right.conclusion:
        raise TransformError("branches must conclude the same sentence")
    disj = t_major.conclusion
    if not isinstance(disj, Or):
        raise TransformError("major premise must be a disjunction")
    return _unrestricted("or_elim", t_major,
                         [(t_left, disj.left), (t_right, disj.right)], identity)


def unrestricted_exists_elim(t_major: Proof, t_body: Proof, param_index=None,
                             identity="absent") -> Proof:
    """Witness elimination without the discharge restriction."""
    ex = t_major.conclusion
    if not isinstance(ex, Exists):
        raise TransformError("major premise must be existential")
    v, matrix = ex.var, ex.body
    opens = ordered_opens(t_body)
    if param_index is None:
        matches = (match_instantiation(matrix, v, f_) for f_ in opens)
        candidates = sorted({cand.index for ok, cand in matches
                             if ok and isinstance(cand, Param)})
        if len(candidates) > 1:
            raise TransformError(
                f"ambiguous witness parameter, pass one of {candidates}")
        param_index = candidates[0] if candidates else _fresh_param(
            t_major, t_body)
    xi = substitute(matrix, v, Param(param_index))
    rest = [f_ for f_ in opens if f_ != xi]
    bad = [f_ for f_ in rest + [matrix, t_body.conclusion]
           if param_index in f_.params]
    if bad:
        raise TransformError(
            f"witness parameter #{param_index} is not fresh for "
            f"{', '.join(pretty(b) for b in bad)}")
    return _unrestricted("exists_elim", t_major, [(t_body, xi)], identity)


def _unrestricted(rule, t_major, branches, identity):
    """The rule over the major premise and its branches, each reduced
    guard-free and padded to equal depth, then unguarded.  ``branches``:
    list of (branch, the sentence it discharges)."""
    reduced = [reduce_proof(b, identity) for b, _ in branches]
    k = max(r.n for r in reduced)
    kids = [relabel_fresh(pad_box(r.proof, r.n, k)) for r in reduced]
    # reduced proofs are guard-free, so every open occurrence is safe
    ids = set().union(*(_safe_opens(p_, phi) for p_, (_, phi) in zip(kids, branches)))
    out = node(rule, box(k, branches[0][0].conclusion),
               [relabel_fresh(t_major), *kids], ids)
    return canonical_leaf_ids(unbox(out, k))


# ---------------------------------------------------------------------------
# axiomatic systems: derived templates for every axiom
# ---------------------------------------------------------------------------

_RULE_FOR_SCHEMA = {schema: rule for rule, (schema, _) in INTERNALISED.items()}


def nd_axiom_proof(schema: str, concl: Formula) -> Proof:
    """A closed guard-free derivation of the given axiom instance, canonical leaf ids."""
    rule = _RULE_FOR_SCHEMA.get(schema)
    if rule is not None:
        src = concl.left
        premises = [src] if CHILD_COUNT[rule] == 1 else [src.left, src.right]
        out = _rule_proof(rule, premises, concl.right)
    elif schema == "identity":
        out = close_antecedent(assume(concl.left), concl.left)
    elif schema == "imp_top":
        out = node("imp_int", concl, [node("top_int", TOP)])
    elif schema == "distribution":
        src = concl.left
        out = close_antecedent(
            derive_distribution(src.left, src.right.left, src.right.right), src)
    elif schema == "inf_distribution":
        src = concl.left
        out = close_antecedent(
            derive_infinite_distribution(src.left, src.right.var,
                                         src.right.body), src)
    elif schema in ("suffixing", "prefixing"):
        rest = concl.right
        d1, d2 = assume(concl.left), assume(rest.left)
        chain = node("int_trans", rest.right,
                     [d1, d2] if schema == "suffixing" else [d2, d1])
        inner = node("imp_int", rest, [chain], {d2.leaf_id})
        out = node("imp_int", concl, [inner], {d1.leaf_id})
    elif schema == "weakening":
        out = close_antecedent(vacuous_imp(assume(concl.left), concl.right.left),
                               concl.left)
    else:
        raise TransformError(f"no template for axiom schema {schema!r}")
    return canonical_leaf_ids(out)


def axiomatic_to_nd(t: Proof) -> Proof:
    """Translate an axiomatic derivation into the full natural-deduction
    system, mapping axioms to their derived templates and routing the
    discharging eliminations through their unrestricted counterparts."""
    report = check_proof(t, "tjkd+")
    if not report.valid:
        msgs = "; ".join(v.message for v in report.violations)
        raise TransformError(f"input does not check in the axiomatic system: {msgs}")
    # fresh input ids, so no id minted by the translation can equal one of them
    out = fold(relabel_fresh(t), _ax2nd)
    final = check_proof(out, "nbqlcd_r")
    if not final.valid:
        raise TransformError("internal: translated proof does not check")
    return canonical_leaf_ids(out)


def _ax2nd(t: Proof, kids) -> Proof:
    if t.is_assumption():
        return t
    if t.rule.startswith("axiom:"):
        return relabel_fresh(nd_axiom_proof(t.rule[6:], t.conclusion))
    if t.rule == "affixing":
        p1, p2 = kids
        mid = Imp(t.children[0].conclusion.right, t.children[1].conclusion.left)
        d = assume(mid)
        it1 = node("int_trans",
                   Imp(t.children[0].conclusion.left, mid.right), [p1, d])
        it2 = node("int_trans", t.conclusion.right, [it1, p2])
        return node("imp_int", t.conclusion, [it2], {d.leaf_id})
    if t.rule == "or_elim":
        return relabel_fresh(unrestricted_or_elim(*kids))
    if t.rule == "exists_elim":
        return relabel_fresh(unrestricted_exists_elim(*kids, param_index=eigenparameter(t)))
    if t.rule in AX_RULES:
        return node(t.rule, t.conclusion, kids)
    raise TransformError(f"rule {t.rule} has no translation")


# ---------------------------------------------------------------------------
# the reverse direction: guard-free proofs into the axiomatic system
# ---------------------------------------------------------------------------

def ax_axiom(schema: str, **bindings) -> Proof:
    return node(f"axiom:{schema}", schema_instance(schema, **bindings))


def ax_mp(p_minor: Proof, p_major: Proof) -> Proof:
    want = p_major.conclusion
    if not (isinstance(want, Imp) and want.left == p_minor.conclusion):
        raise TransformError("detachment premises do not fit")
    return node("imp_elim", want.right, [p_minor, p_major])


def _ax_detach_pair(p1: Proof, p2: Proof, schema: str, **bindings) -> Proof:
    """The axiom instance detached from the conjunction of the two proofs."""
    conj = node("and_int", And(p1.conclusion, p2.conclusion), [p1, p2])
    return ax_mp(conj, ax_axiom(schema, **bindings))


def ax_compose(p_ab: Proof, p_bc: Proof) -> Proof:
    """From A -> B and B -> C conclude A -> C via the transitivity axiom."""
    a_b, b_c = p_ab.conclusion, p_bc.conclusion
    if not (isinstance(a_b, Imp) and isinstance(b_c, Imp)
            and a_b.right == b_c.left):
        raise TransformError("composition premises do not chain")
    return _ax_detach_pair(p_ab, p_bc, "transitivity",
                           A=a_b.left, B=a_b.right, C=b_c.right)


def ax_pair(p_sa: Proof, p_sb: Proof) -> Proof:
    """From S -> A and S -> B conclude S -> A & B."""
    sa, sb = p_sa.conclusion, p_sb.conclusion
    if not (isinstance(sa, Imp) and isinstance(sb, Imp) and sa.left == sb.left):
        raise TransformError("pairing premises do not share an antecedent")
    return _ax_detach_pair(p_sa, p_sb, "and_comp", A=sa.left, B=sa.right, C=sb.right)


def ax_conj_imp(source: Formula, target: Formula) -> Proof:
    """Axiomatic proof of source -> target with the target assembled from
    pieces of the source conjunction tree."""
    if target == source:
        return ax_axiom("identity", A=source)
    comp = _conj_components(source)
    if target in comp:
        cur = source
        out = None
        for step in comp[target]:
            nxt = cur.left if step == "l" else cur.right
            ax = ax_axiom("and_elim_l" if step == "l" else "and_elim_r",
                          A=cur.left, B=cur.right)
            out = ax if out is None else ax_compose(out, ax)
            cur = nxt
        return out
    if target == TOP:
        return ax_axiom("imp_top", A=source)
    if isinstance(target, And):
        return ax_pair(ax_conj_imp(source, target.left),
                       ax_conj_imp(source, target.right))
    raise TransformError(
        f"cannot assemble {pretty(target)} out of {pretty(source)}")


def ax_release(p: Proof) -> Proof:
    """From a proof of phi & psi -> chi build phi -> (psi -> chi); the
    standard two-stage derivation through weakening and prefixing."""
    fml = p.conclusion
    if not (isinstance(fml, Imp) and isinstance(fml.left, And)):
        raise TransformError("release needs a conjunctive antecedent")
    phi, psi = fml.left.left, fml.left.right
    chi = fml.right
    wk1 = ax_axiom("weakening", A=phi, B=psi)
    idd = ax_axiom("identity", A=psi)
    wk2 = ax_axiom("weakening", A=Imp(psi, psi), B=phi)
    d_psi = ax_mp(idd, wk2)
    paired = ax_pair(wk1, d_psi)
    inner_comp = ax_axiom("and_comp", A=psi, B=phi, C=psi)
    d1 = ax_compose(paired, inner_comp)
    pre = ax_axiom("prefixing", A=fml.left, B=chi, C=psi)
    d2 = ax_mp(p, pre)
    return ax_compose(d1, d2)


def nd_to_axiomatic(t: Proof, gamma=None) -> Proof:
    """Compile a guard-free natural-deduction proof into a closed axiomatic
    derivation of (premises conjoined) -> conclusion.

    Never touches the existential elimination rule of the target system, so
    the output also checks with that rule removed.
    """
    an = analyze(t)
    report = check_analysis(an, "nbqlcd")
    if not report.valid:
        msgs = "; ".join(v.message for v in report.violations)
        raise TransformError(f"input is not a guard-free proof: {msgs}")
    gamma = _ordered_opens(an, 0) if gamma is None else list(gamma)
    if not report.open_assumptions <= set(gamma):
        raise TransformError("premise list does not cover the open assumptions")
    avoid = set().union(*(f_.params for f_ in
                          [*gamma, *an.leaf_formula.values(), t.conclusion]))
    t = rename_eigenvariables(t, avoid)
    an = analyze(t)

    # per node: the open assumptions of its subtree conjoined, and its compiled
    # derivation of them -> its conclusion, filled in children first
    ants = [big_conj(_ordered_opens(an, i)) for i in range(len(an.nodes))]
    done = [None] * len(an.nodes)

    def lift(target, src, p):
        """target -> concl from src -> concl."""
        if target == src:
            return p
        return ax_compose(ax_conj_imp(target, src), p)

    def go(i):
        s = ants[i]
        nd_ = an.nodes[i]
        concl = nd_.conclusion
        rule = nd_.rule

        def sub(pos, target=s):
            """target -> premise pos, from its compiled subproof."""
            j = an.kids[i][pos]
            return lift(target, ants[j], done[j])

        if rule == "assume":
            return ax_conj_imp(s, concl)
        if rule == "top_int":
            return ax_axiom("imp_top", A=s)
        if rule == "and_int":
            return ax_pair(sub(0), sub(1))
        if rule in INTERNALISED:
            subs = [sub(pos) for pos in range(len(nd_.children))]
            kids = [c.conclusion for c in nd_.children]
            step = node(f"axiom:{INTERNALISED[rule][0]}",
                        internal_instance(kids, concl))
            return ax_compose(subs[0] if len(subs) == 1 else ax_pair(*subs), step)
        if rule == "imp_int":
            return ax_release(sub(0, And(s, concl.left)))
        if rule == "forall_int":
            gen = node("forall_int", Forall(concl.var, Imp(s, concl.body)), [sub(0)])
            step = ax_axiom("forall_imp", x=concl.var, A=s, B=concl.body)
            return ax_mp(gen, step)
        if rule not in ("or_elim", "exists_elim"):
            raise TransformError(f"rule {rule} has no axiomatic compilation")
        # pair s with the major premise, distribute s over it, then join
        major = nd_.children[0].conclusion
        if rule == "or_elim":
            left, right = And(s, major.left), And(s, major.right)
            dist = ax_axiom("distribution", A=s, B=major.left, C=major.right)
            joined = _ax_detach_pair(sub(1, left), sub(2, right), "or_comp",
                                     A=left, B=right, C=concl)
        else:
            v, matrix = major.var, major.body
            idx = _eigenparam_for_exists(nd_, an)[0]
            if idx is None:
                idx = _fresh_param(t, *gamma)
            lifted = sub(1, And(s, substitute(matrix, v, Param(idx))))
            gen = node("forall_int", Forall(v, Imp(And(s, matrix), concl)), [lifted])
            dist = ax_axiom("inf_distribution", A=s, x=v, B=matrix)
            joined = ax_mp(gen, ax_axiom("exists_imp", x=v, A=And(s, matrix), B=concl))
        pair = ax_pair(ax_axiom("identity", A=s), sub(0))
        return ax_compose(pair, ax_compose(dist, joined))

    for i in reversed(range(len(an.nodes))):
        done[i] = go(i)
    out = lift(big_conj(gamma), ants[0], done[0])
    final = check_proof(out, "tjk+")
    if not final.valid:
        raise TransformError("internal: compiled proof does not check")
    return out
