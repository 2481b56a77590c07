import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from bqlcd.proofgen import axiomatic_corpus, closed_theorem_corpus, generate_corpus
from bqlcd.proofkernel import (
    CHILD_COUNT, IDENTITY_RULES, INTERNALISED, ND_RULES, SCHEMAS, _eigenparam_for_exists,
    analyze, assume, canonical_leaf_ids, check_proof, eigenparameter, internal_instance,
    match_schema, node, open_assumptions, proof_size, proof_to_json, proofs_equal,
    schema_instance, stratum, rename_eigenvariables,
)
from bqlcd.syntax import (
    And, Exists, Forall, Imp, Or, Param, TOP, big_conj, box, parameters_of,
    pretty,
)
from bqlcd.transform import (
    ReductionResult, TransformError, axiomatic_to_nd, boxn, derive_and_release,
    derive_conj_imp, derive_distribution, derive_forall_embedding,
    derive_infinite_distribution, nd_axiom_proof, nd_to_axiomatic, pad_box,
    reduce_proof, regularity_transform, relabel_fresh, relative_deduction,
    unbox, unrestricted_exists_elim, unrestricted_or_elim, _rule_proof,
)
from oracle import reference_instance, reference_match, reference_rename
from proofcases import (
    AXIOM_INSTANCES, CONSTRAINT_CASES, curry_derivation, deep_and_chain,
    detachment_paired_with_itself, display_one, display_two,
    exists_elim_with_side_context, f, fo, mp_chain,
    mp_from_leaves, nested_stratum_example, nested_witness_chain,
    or_elim_on_a_repeated_disjunct, or_elim_with_side_context,
)


def check_nb(t):
    report = check_proof(t, "nbqlcd")
    assert report.valid, [v.__dict__ for v in report.violations]
    return report


def check_r(t):
    report = check_proof(t, "nbqlcd_r")
    assert report.valid, [v.__dict__ for v in report.violations]
    return report


def no_imp_elim(t):
    assert stratum(t) == -1


# --- lemma templates -----------------------------------------------------------

def test_distribution():
    p, q, r = f("p"), f("q"), f("r")
    t = derive_distribution(p, q, r)
    check_nb(t)
    assert t.conclusion == f("(p & q) | (p & r)")
    assert open_assumptions(t) == {f("p & (q | r)")}
    no_imp_elim(t)


def test_distribution_degenerate():
    p = f("p")
    t = derive_distribution(p, p, p)
    check_nb(t)
    assert open_assumptions(t) == {f("p & (p | p)")}


def test_infinite_distribution():
    t = derive_infinite_distribution(f("p"), "x", fo("Q(x)"))
    check_nb(t)
    assert t.conclusion == f("exists x. p & Q(x)")
    assert open_assumptions(t) == {f("p & (exists x. Q(x))")}


def test_infinite_distribution_top():
    t = derive_infinite_distribution(TOP, "x", fo("Q(x)"))
    check_nb(t)


def test_infinite_distribution_fresh_parameter():
    phi = f("P(#0)")
    body = fo("Q(x)")
    t = derive_infinite_distribution(phi, "x", body)
    check_nb(t)
    # the witness parameter must avoid the parameters of the fixed conjunct
    from bqlcd.proofkernel import analyze
    an = analyze(t)
    witness = [an.leaf_formula[x] for x in t.discharges]
    assert witness and all(0 not in parameters_of(w) for w in witness)


def test_and_release():
    p, q, r = f("p"), f("q"), f("r")
    t = derive_and_release(p, q, r)
    check_nb(t)
    assert t.conclusion == f("p -> (q -> r)")
    assert open_assumptions(t) == {f("p & q -> r")}
    no_imp_elim(t)


def test_forall_embedding_base():
    t = derive_forall_embedding(0, "x", fo("P(x)"))
    assert t.rule == "assume"
    assert t.conclusion == f("forall x. P(x)")


def test_forall_embedding_step():
    t = derive_forall_embedding(1, "x", fo("P(x)"))
    check_nb(t)
    assert t.conclusion == box(1, f("forall x. P(x)"))
    assert open_assumptions(t) == {f("forall x. true -> P(x)")}


def test_forall_embedding_linear_growth():
    sizes = [proof_size(derive_forall_embedding(n, "x", fo("P(x)")))
             for n in range(1, 6)]
    steps = [b - a for a, b in zip(sizes, sizes[1:])]
    assert len(set(steps)) == 1     # constant increments


def test_forall_embedding_1000_guards_deep_builds():
    # one loop, each level sharing the guard of the level below: n = 400
    # used to raise RecursionError
    t = derive_forall_embedding(1000, "x", fo("P(x)"))
    assert proof_size(t) == 4001
    assert t.conclusion.left == TOP


# --- conjunction plumbing ---------------------------------------------------------

def test_conj_imp_projection():
    s = big_conj([f("p"), f("q"), f("r")])
    t = derive_conj_imp(s, big_conj([f("r"), f("p")]))
    check_nb(t)
    assert open_assumptions(t) == set()


def test_conj_imp_regroup():
    s = And(big_conj([f("p"), f("q")]), f("r"))
    t = derive_conj_imp(s, big_conj([f("p"), f("q"), f("r")]))
    check_nb(t)


def test_conj_imp_rejects_foreign_piece():
    with pytest.raises(TransformError):
        derive_conj_imp(f("p"), f("q"))


# --- regularity --------------------------------------------------------------------

def test_regularity_identity_at_zero():
    t = mp_from_leaves()
    p2 = node("and_int", f("p & q"), [assume(f("p")), assume(f("q"))])
    assert regularity_transform(p2, 0) == p2


def test_regularity_one_level():
    p2 = node("and_int", f("p & q"), [assume(f("p")), assume(f("q"))])
    out = regularity_transform(p2, 1)
    check_nb(out)
    assert out.conclusion == box(1, f("p & q"))
    assert open_assumptions(out) == {box(1, f("p")), box(1, f("q"))}


def test_regularity_depth_three():
    p2 = node("or_int_l", f("p | q"), [assume(f("p"))])
    out = regularity_transform(p2, 3)
    check_nb(out)
    assert out.conclusion == box(3, f("p | q"))
    assert open_assumptions(out) == {box(3, f("p"))}


def test_regularity_renames_an_eigenparameter_a_premise_uses():
    # the listed premise R(#0) uses the generalisation's parameter, which is
    # renamed away before the first guard level; the digests pin the outputs
    leaf = assume(f("P(#0)"), "w")
    gen = node("forall_int", f("forall x. P(x) -> P(x)"),
               [node("imp_int", f("P(#0) -> P(#0)"), [leaf], {"w"})])
    for n, want in ((1, "41c2e7f8b263979b"), (2, "3b58797319711f14")):
        out = canonical_leaf_ids(regularity_transform(gen, n, [f("R(#0)")]))
        check_nb(out)
        assert open_assumptions(out) == {box(n, f("R(#0)"))}
        assert 0 not in {eigenparameter(nd) for nd in analyze(out).nodes}
        text = json.dumps(proof_to_json(out), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == want


def test_regularity_closed_proof():
    t = node("top_int", TOP)
    out = regularity_transform(t, 2)
    check_nb(out)
    assert out.conclusion == box(2, TOP)
    assert open_assumptions(out) == set()


# --- relative deduction ---------------------------------------------------------------

def test_relative_deduction_mp_depth_zero():
    t = mp_from_leaves()
    out = relative_deduction(t, [f("p"), f("p -> q")], [], 0)
    check_nb(out)
    assert out.conclusion == f("true -> q")
    assert open_assumptions(out) <= {f("p"), f("p -> q")}


def test_relative_deduction_sigma_member():
    t = assume(f("p"))
    out = relative_deduction(t, [], [f("q"), f("p")], 1)
    check_nb(out)
    assert out.conclusion == box(1, Imp(big_conj([f("q"), f("p")]), f("p")))
    assert open_assumptions(out) == set()


def test_relative_deduction_top_base():
    t = node("top_int", TOP)
    out = relative_deduction(t, [f("p")], [f("q")], 2)
    check_nb(out)
    assert out.conclusion == box(2, Imp(f("q"), TOP))
    assert open_assumptions(out) == set()


def test_relative_deduction_requires_judgment():
    t = mp_from_leaves()
    with pytest.raises(TransformError):
        relative_deduction(t, [f("p")], [f("p -> q")], 0)   # conditional unsafe


def test_relative_deduction_or_elim_with_sigma():
    p, q, r = f("p"), f("q"), f("r")
    major = assume(Or(p, q), "m")
    dl, dr = assume(p, "dl"), assume(q, "dr")
    side = assume(r, "s1")
    left = node("and_int", And(r, Or(p, q)),
                [side, node("or_int_l", Or(p, q), [dl])])
    left = node("and_elim_r", Or(p, q), [left])
    right = node("or_int_r", Or(p, q), [dr])
    t = node("or_elim", Or(p, q), [major, left, right], {"dl", "dr"})
    check_r(t)
    out = relative_deduction(t, [], [Or(p, q), r], 0)
    check_nb(out)
    assert out.conclusion == Imp(big_conj([Or(p, q), r]), Or(p, q))


# --- reduction ----------------------------------------------------------------------

def test_reduce_identity_on_guard_free():
    p = f("p")
    t = node("imp_int", Imp(p, p), [assume(p, "x")], {"x"})
    got = reduce_proof(t)
    assert got == ReductionResult(0, t, -1)


def test_reduce_mp():
    t = mp_from_leaves()
    got = reduce_proof(t)
    assert got.n == 1 and got.source_stratum == 0
    check_nb(got.proof)
    assert got.proof.conclusion == f("true -> q")
    assert open_assumptions(got.proof) <= {f("p"), f("p -> q")}
    back = unbox(got.proof, 1)
    check_r(back)
    assert back.conclusion == f("q")


def test_reduce_nested_example():
    t = nested_stratum_example()
    got = reduce_proof(t)
    assert got.n == 2
    check_nb(got.proof)
    assert got.proof.conclusion == box(2, f("r"))
    assert open_assumptions(got.proof) <= open_assumptions(t)
    back = unbox(got.proof, 2)
    check_r(back)
    assert back.conclusion == f("r")


def test_reduce_a_deep_chain():
    got = reduce_proof(mp_chain(150))
    assert got.n == 1
    check_nb(got.proof)
    assert proof_size(got.proof) == 14 * 150 + 4
    assert unbox(got.proof, got.n).conclusion == f("q")


@pytest.mark.parametrize("make, depth", [(mp_chain, 600), (nested_witness_chain, 250)])
def test_reduce_an_input_deeper_than_the_recursion_limit(make, depth):
    t = make(depth)
    got = reduce_proof(t)
    assert got.proof.conclusion == box(got.n, t.conclusion)
    check_nb(got.proof)


def test_relative_deduction_on_an_input_deeper_than_the_recursion_limit():
    # the detached conditional stays on the unsafe side, p and the r leaves
    # go to the side context
    out = relative_deduction(mp_chain(600), [f("p -> q")], [f("p"), f("r")], 0)
    check_nb(out)
    assert out.conclusion == f("p & r -> q")


def test_unbox_requires_guard():
    with pytest.raises(TransformError):
        unbox(assume(f("p")), 1)


def test_pad_box():
    t = node("imp_int", Imp(f("p"), f("p")), [assume(f("p"), "x")], {"x"})
    out = pad_box(t, 0, 2)
    check_nb(out)
    assert out.conclusion == box(2, Imp(f("p"), f("p")))
    assert pad_box(t, 0, 0) == t
    with pytest.raises(TransformError):
        pad_box(t, 1, 0)


# --- unrestricted eliminations ----------------------------------------------------------

def test_unrestricted_or_elim_plain():
    p, q = f("p"), f("q")
    maj = assume(Or(p, q), "m")
    left = node("or_int_l", Or(p, q), [assume(p, "a")])
    right = node("or_int_r", Or(p, q), [assume(q, "b")])
    out = unrestricted_or_elim(maj, left, right)
    check_r(out)
    assert out.conclusion == Or(p, q)
    assert open_assumptions(out) == {Or(p, q)}


def test_unrestricted_or_elim_with_mp_branches():
    # each branch detaches the goal through an unsafe conditional, which a
    # direct case split could never discharge
    p, q, r = f("p"), f("q"), f("r")
    maj = assume(Or(p, q), "m")
    left = node("imp_elim", r, [assume(p, "a"), assume(Imp(p, r), "g1")])
    right = node("imp_elim", r, [assume(q, "b"), assume(Imp(q, r), "g2")])
    out = unrestricted_or_elim(maj, left, right)
    check_r(out)
    assert out.conclusion == r
    assert open_assumptions(out) == {Or(p, q), Imp(p, r), Imp(q, r)}


def test_unrestricted_exists_elim_plain():
    maj = assume(f("exists x. P(x)"), "m")
    body = node("exists_int", f("exists y. P(y)"), [assume(f("P(#0)"), "w")])
    out = unrestricted_exists_elim(maj, body)
    check_r(out)
    assert out.conclusion == f("exists y. P(y)")
    assert open_assumptions(out) == {f("exists x. P(x)")}


def test_unrestricted_exists_elim_with_mp_body():
    maj = assume(f("exists x. P(x)"), "m")
    body = node("imp_elim", f("q"),
                [assume(f("P(#0)"), "w"), assume(f("P(#0) -> q"), "g")])
    # the guard mentions the witness parameter, which is not allowed
    with pytest.raises(TransformError):
        unrestricted_exists_elim(maj, body)
    body2 = node("imp_elim", f("q"),
                 [assume(f("r"), "h"), assume(f("r -> q"), "g")])
    pair = node("and_int", f("P(#0) & q"), [assume(f("P(#0)"), "w"), body2])
    body3 = node("and_elim_r", f("q"), [pair])
    out = unrestricted_exists_elim(maj, body3)
    check_r(out)
    assert out.conclusion == f("q")
    assert open_assumptions(out) == {f("exists x. P(x)"), f("r"), f("r -> q")}


# premises and conclusion of every rule that relative deduction rewrites by its
# premise count and that no axiom schema internalises
NON_INTERNALISED_STEPS = {
    "and_int": (["p", "q"], "p & q"),
    "forall_int": (["p"], "forall x. p"),
    "eq_elim": (["c = d", "P(c)"], "P(d)"),
}


def test_rule_proof_concludes_the_internal_instance():
    rewritten = {rule for rule, k in CHILD_COUNT.items() if k in (1, 2)
                 and (rule in ND_RULES or rule in IDENTITY_RULES)}
    rewritten -= {"imp_int", "imp_elim", "exists_elim"}     # rewritten apart
    steps = {rule: ([f(x) for x in prem], f(c))
             for rule, (prem, c) in NON_INTERNALISED_STEPS.items()}
    instances = dict(AXIOM_INSTANCES)
    for rule, (schema, _) in INTERNALISED.items():
        src, c = f(instances[schema]).left, f(instances[schema]).right
        steps[rule] = ([src] if CHILD_COUNT[rule] == 1 else [src.left, src.right], c)
    assert set(steps) == rewritten
    for rule, (premises, concl) in steps.items():
        t = _rule_proof(rule, premises, concl)
        assert check_proof(t, "nbqlcd+eq").valid, rule
        assert t.conclusion == internal_instance(premises, concl)
        assert not open_assumptions(t)


# --- axiomatic translations ---------------------------------------------------------------

def test_axiom_templates_all_check_guard_free():
    for schema, text in AXIOM_INSTANCES:
        t = nd_axiom_proof(schema, f(text))
        report = check_proof(t, "nbqlcd")
        assert report.valid, (schema, [v.__dict__ for v in report.violations])
        assert t.conclusion == f(text)
        assert not open_assumptions(t)


def test_axiomatic_to_nd_single_axioms():
    for schema, text in AXIOM_INSTANCES:
        t = node(f"axiom:{schema}", f(text))
        out = axiomatic_to_nd(t)
        check_r(out)
        assert out.conclusion == f(text)


def test_axiomatic_to_nd_mp_chain():
    wk = node("axiom:weakening", f("p -> (q -> p)"))
    prem = assume(f("p"), "a")
    t = node("imp_elim", f("q -> p"), [prem, wk])
    out = axiomatic_to_nd(t)
    check_r(out)
    assert out.conclusion == f("q -> p")
    assert open_assumptions(out) == {f("p")}
    assert stratum(out) >= 0


def test_axiomatic_to_nd_or_elim():
    maj = assume(f("p | q"), "m")
    left = node("imp_elim", f("r"), [assume(f("p"), "a"),
                                     assume(f("p -> r"), "g1")])
    right = node("imp_elim", f("r"), [assume(f("q"), "b"),
                                      assume(f("q -> r"), "g2")])
    t = node("or_elim", f("r"), [maj, left, right], {"a", "b"})
    out = axiomatic_to_nd(t)
    check_r(out)
    assert out.conclusion == f("r")
    assert open_assumptions(out) == {f("p | q"), f("p -> r"), f("q -> r")}


def test_axiomatic_to_nd_exists_elim():
    maj = assume(f("exists x. P(x)"), "m")
    body = node("exists_int", f("exists y. P(y)"), [assume(f("P(#0)"), "w")])
    t = node("exists_elim", f("exists y. P(y)"), [maj, body], {"w"})
    out = axiomatic_to_nd(t)
    check_r(out)
    assert out.conclusion == f("exists y. P(y)")


def test_axiomatic_to_nd_affixing():
    t = node("affixing", f("(q -> r) -> (p -> s)"),
             [assume(f("p -> q"), "x"), assume(f("r -> s"), "y")])
    out = axiomatic_to_nd(t)
    check_r(out)
    assert out.conclusion == f("(q -> r) -> (p -> s)")


def _case_split(tag):
    """A tjkd+ case analysis on p | q whose leaf ids end in ``tag``."""
    dl, dr = assume(f("p"), f"l{tag}"), assume(f("q"), f"r{tag}")
    return node("or_elim", f("p | q"),
                [assume(f("p | q"), f"m{tag}"), node("or_int_l", f("p | q"), [dl]),
                 node("or_int_r", f("p | q"), [dr])], {dl.leaf_id, dr.leaf_id})


@pytest.mark.parametrize("other", [_case_split(2), assume(f("p | q"), "a0")],
                         ids=["case split", "leaf a0"])
def test_axiomatic_to_nd_pairs_a_case_split_with_ids_it_mints(other):
    # the translated case split comes back with canonical ids a0, a1, ...
    t = node("and_int", f("(p | q) & (p | q)"), [_case_split(1), other])
    out = axiomatic_to_nd(t)
    check_r(out)
    assert out.conclusion == t.conclusion


def test_axiomatic_to_nd_affixing_over_ids_assume_mints():
    # in a fresh process the translation's first minted leaf id is t0
    code = ("from bqlcd.proofkernel import assume, node, check_proof\n"
            "from bqlcd.syntax import parse_inferring\n"
            "from bqlcd.transform import axiomatic_to_nd\n"
            "f = lambda s: parse_inferring(s)[0]\n"
            "t = node('affixing', f('(q -> r) -> (p -> s)'),\n"
            "         [assume(f('p -> q'), 't0'), assume(f('r -> s'), 't1')])\n"
            "print(check_proof(axiomatic_to_nd(t), 'nbqlcd_r').valid)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert (out.returncode, out.stdout) == (0, "True\n"), out.stderr


def test_axiom_templates_do_not_depend_on_what_ran_before():
    before = [nd_axiom_proof(schema, f(text)) for schema, text in AXIOM_INSTANCES]
    reduce_proof(nested_stratum_example())
    derive_distribution(f("p"), f("q"), f("r"))
    assert [nd_axiom_proof(schema, f(text)) for schema, text in AXIOM_INSTANCES] == before


def test_nd_to_axiomatic_leaf():
    t = assume(f("p"))
    out = nd_to_axiomatic(t)
    assert out.conclusion == f("p -> p")
    assert check_proof(out, "tjk+").valid


def test_nd_to_axiomatic_and_int():
    t = node("and_int", f("p & q"), [assume(f("p")), assume(f("q"))])
    out = nd_to_axiomatic(t)
    assert check_proof(out, "tjk+").valid
    assert out.conclusion == Imp(big_conj([f("p"), f("q")]), f("p & q"))
    assert not open_assumptions(out)


def test_nd_to_axiomatic_imp_int():
    p, q = f("p"), f("q")
    body = node("and_int", And(p, q), [assume(p, "d"), assume(q, "s")])
    t = node("imp_int", Imp(p, And(p, q)), [body], {"d"})
    out = nd_to_axiomatic(t)
    assert check_proof(out, "tjk+").valid
    assert out.conclusion == Imp(q, Imp(p, And(p, q)))


def test_nd_to_axiomatic_or_elim():
    p, q = f("p"), f("q")
    maj = assume(Or(p, q), "m")
    left = node("or_int_r", Or(q, p), [assume(p, "a")])
    right = node("or_int_l", Or(q, p), [assume(q, "b")])
    t = node("or_elim", Or(q, p), [maj, left, right], {"a", "b"})
    out = nd_to_axiomatic(t)
    assert check_proof(out, "tjk+").valid
    assert out.conclusion == Imp(Or(p, q), Or(q, p))


def test_nd_to_axiomatic_quantifiers():
    ex = assume(f("exists x. P(x)"), "m")
    wit = assume(f("P(#0)"), "w")
    body = node("exists_int", f("exists y. P(y)"), [wit])
    t = node("exists_elim", f("exists y. P(y)"), [ex, body], {"w"})
    out = nd_to_axiomatic(t)
    assert check_proof(out, "tjk+").valid
    assert out.conclusion == Imp(f("exists x. P(x)"), f("exists y. P(y)"))

    inst = node("forall_elim", f("P(#1)"), [assume(f("forall y. P(y)"), "u")])
    gen = node("forall_int", f("forall x. P(x)"), [inst])
    out2 = nd_to_axiomatic(gen)
    assert check_proof(out2, "tjk+").valid
    assert out2.conclusion == Imp(f("forall y. P(y)"), f("forall x. P(x)"))


def test_nd_to_axiomatic_analyses_its_input_once_when_nothing_is_renamed(monkeypatch):
    from bqlcd import proofkernel, transform
    real, calls = proofkernel.analyze, []

    def counting(t):
        calls.append(t)
        return real(t)
    monkeypatch.setattr(proofkernel, "analyze", counting)
    monkeypatch.setattr(transform, "analyze", counting)
    inst = node("forall_elim", f("P(#1)"), [assume(f("forall y. P(y)"), "u")])
    gen = node("forall_int", f("forall x. P(x)"), [inst])
    # the eigenparameter #1 of gen is no parameter of a premise or a
    # conclusion, so nothing is renamed
    for t in (gen, deep_and_chain(5), node("and_int", f("(forall x. P(x)) & Q(#0)"),
                                           [gen, assume(f("Q(#0)"), "q")])):
        calls.clear()
        out = nd_to_axiomatic(t)
        assert check_proof(out, "tjk+").valid
        assert sum(c is t for c in calls) == 1


def test_nd_to_axiomatic_rejects_identity_rules_as_outside_nbqlcd():
    t = node("eq_int", f("c = c"))
    with pytest.raises(TransformError) as err:
        nd_to_axiomatic(t)
    assert str(err.value) == (
        "input is not a guard-free proof: rule eq_int is not part of nbqlcd")


def test_round_trip_axiomatic_nd_axiomatic():
    wk = node("axiom:weakening", f("p -> (q -> p)"))
    prem = assume(f("p"), "a")
    t = node("imp_elim", f("q -> p"), [prem, wk])
    nd_proof = axiomatic_to_nd(t)
    red = reduce_proof(nd_proof)
    gamma0 = sorted(open_assumptions(red.proof), key=pretty)
    back = nd_to_axiomatic(red.proof, gamma0)
    assert check_proof(back, "tjk+").valid
    assert back.conclusion == Imp(big_conj(gamma0), box(red.n, f("q -> p")))


@pytest.fixture(scope="module")
def reduced_corpus():
    """(proof, its reduction) for three seeded corpora."""
    return [(t, reduce_proof(t).proof)
            for seed in (0, 1, 2) for t in generate_corpus(seed=seed, size=200)]


@pytest.fixture(scope="module")
def compiled_corpus(reduced_corpus):
    """The reduced proofs of three seeded corpora compiled into tjk+."""
    return [nd_to_axiomatic(red) for _, red in reduced_corpus]


def test_translation_outputs_are_pinned(compiled_corpus):
    outs = [proof_to_json(t) for t in compiled_corpus]
    outs += [proof_to_json(axiomatic_to_nd(t)) for t in axiomatic_corpus()]
    assert len(outs) == 620
    text = json.dumps(outs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0d9bb1705847a9d284926384c1c04e56d1d723d730c096dfce9c11de5abf9452")


def test_schema_kernels_agree_with_the_reference(reduced_corpus, compiled_corpus):
    # every conclusion, and the internalised instance of every one- or
    # two-premise node, of the corpora, their reductions and translations,
    # against every schema: same bindings in the same key order, or None
    numbers, by_parts = {}, {}

    def number(phi):
        """One number for equal formulas, read off the numbers of the parts,
        so no formula is hashed whole."""
        got = numbers.get(id(phi))
        if got is None:
            if isinstance(phi, (And, Or, Imp)):
                parts = (type(phi), number(phi.left), number(phi.right))
            elif isinstance(phi, (Forall, Exists)):
                parts = (type(phi), phi.var, number(phi.body))
            else:
                parts = phi
            got = numbers[id(phi)] = by_parts.setdefault(parts, len(by_parts))
        return got

    formulas = {}
    for t in [t for pair in reduced_corpus for t in pair] + compiled_corpus \
            + axiomatic_corpus():
        for nd in analyze(t).nodes:
            formulas.setdefault(number(nd.conclusion), nd.conclusion)
            kids = [c.conclusion for c in nd.children]
            if 1 <= len(kids) <= 2:
                key = (number(nd.conclusion), *map(number, kids))
                if key not in formulas:
                    formulas[key] = internal_instance(kids, nd.conclusion)
    matched = 0
    for name in SCHEMAS:
        for phi in formulas.values():
            got, want = match_schema(name, phi), reference_match(name, phi)
            assert (got is None) == (want is None), (name, pretty(phi))
            if got is not None:
                matched += 1
                assert list(got.items()) == list(want.items()), (name, pretty(phi))
                assert schema_instance(name, **got) == reference_instance(name, got) == phi
    assert (len(formulas), matched) == (29_896, 15_890)


def test_compiled_proofs_have_no_assumption_leaf_or_discharge(compiled_corpus):
    # every node comes from an axiom, a detachment or a rule that closes
    # nothing, so the leaf ids need no canonical relabelling
    for out in compiled_corpus:
        an = analyze(out)
        assert not an.leaf_node
        assert not any(nd.discharges for nd in an.nodes)


def test_a_proof_1200_deep_compiles_without_recursion():
    out = nd_to_axiomatic(deep_and_chain(600))
    assert check_proof(out, "tjk+").valid
    assert out.conclusion == Imp(big_conj([f("p"), f("q")]), f("p"))
    # in the natural-deduction system each of the 3,000 axiom leaves, up to
    # 1,200 deep, is a violation with a name; naming them must stay linear
    start = time.perf_counter()
    report = check_proof(out, "nbqlcd_r")
    elapsed = time.perf_counter() - start
    axioms = sum(nd.rule.startswith("axiom:") for nd in analyze(out).nodes)
    assert [v.message for v in report.violations] == (
        ["axiom leaves only occur in the axiomatic systems"] * axioms)
    assert axioms > 3000 and elapsed < 0.3


def test_relative_deduction_exists_elim_with_side_context_deep():
    # witness elimination with a split side context, rewritten at depths the
    # random corpus does not reach; exercises the guarded embedding and the
    # distribution of the side conjunct through the existential
    t = exists_elim_with_side_context()
    assert stratum(t) == 0
    assert check_proof(t, "nbqlcd_r").valid
    gamma = frozenset({f("s -> q"), f("s")})
    sigma = [f("exists x. P(x)"), f("r")]
    for n in (1, 2):
        out = relative_deduction(t, gamma, sigma, n)
        assert out.conclusion == box(n, Imp(big_conj(sigma), t.conclusion))
        report = check_proof(out, "nbqlcd")
        assert report.valid, [v.__dict__ for v in report.violations][:3]
        assert set(open_assumptions(out)) <= gamma


def test_relative_deduction_or_elim_with_side_context_deep():
    p, q, r = f("p"), f("q"), f("r")
    t = or_elim_with_side_context()
    assert check_proof(t, "nbqlcd_r").valid
    assert stratum(t) == 0
    gamma = frozenset({Imp(p, r), Imp(q, r)})
    sigma = [Or(p, q)]
    for n in (1, 2):
        out = relative_deduction(t, gamma, sigma, n)
        assert out.conclusion == box(n, Imp(Or(p, q), r))
        report = check_proof(out, "nbqlcd")
        assert report.valid, [v.__dict__ for v in report.violations][:3]
        assert set(open_assumptions(out)) <= gamma


def test_rename_nested_shared_eigenparameters():
    # two nested quantifier steps both running on the same parameter index
    inner_wit = assume(f("R(#0, #0)"), "iw")
    inner_body = node("exists_int", f("exists y. R(y, #0)"), [inner_wit])
    # careful: generalize only the first position so #0 stays in the matrix
    from bqlcd.syntax import parse_inferring
    ex_concl = parse_inferring("exists y. R(y, #0)")[0]
    maj = assume(f("exists x. R(x, #0)"), "im")
    elim = node("exists_elim", ex_concl, [maj, inner_body], {"iw"})
    from bqlcd.proofkernel import eigenparameter
    assert check_proof(elim, "nbqlcd_r").valid is False  # witness clashes with #0 context

    # a clean nesting: outer universal generalisation over a subtree whose
    # existential elimination uses its own fresh parameter
    src = assume(f("forall z. exists x. P(x)"), "s1")
    inst = node("forall_elim", f("exists x. P(x)"), [src])
    wit = assume(f("P(#1)"), "w1")
    body = node("exists_int", f("exists y. P(y)"), [wit])
    elim2 = node("exists_elim", f("exists y. P(y)"), [inst, body], {"w1"})
    assert check_proof(elim2, "nbqlcd_r").valid
    out = rename_eigenvariables(elim2, {1})
    assert check_proof(out, "nbqlcd_r").valid
    from bqlcd.syntax import parameters_of
    assert 1 not in parameters_of(out)


def test_renaming_agrees_with_the_reference(reduced_corpus):
    # the same proof, down to each fresh parameter's index, as the nested
    # folds, away from each single parameter of the input and from all of
    # them: on the corpora and their reductions, the hand-built proofs, and
    # witness chains over a leaf, whose levels all rename #0
    proofs = [t for pair in reduced_corpus for t in pair]
    proofs += [make() for make in CONSTRAINT_CASES.values()] + [
        curry_derivation(), display_one(), display_two(), nested_stratum_example(),
        mp_from_leaves(), or_elim_with_side_context(), exists_elim_with_side_context(),
        deep_and_chain(3), mp_chain(20), detachment_paired_with_itself(),
        or_elim_on_a_repeated_disjunct(), nested_witness_chain(20)]
    proofs += [nested_witness_chain(d, assume(f("q"), "q")) for d in range(1, 21)]
    renamed = 0
    for t in proofs:
        params = sorted(parameters_of(t))
        for avoid in [{i} for i in params] + [set(params)]:
            got = rename_eigenvariables(t, avoid)
            assert got == reference_rename(t, avoid)
            renamed += got is not t
    assert renamed == 536


def _leaf_ids(t):
    own = {t.leaf_id} if t.is_assumption() else set()
    return own.union(*(_leaf_ids(c) for c in t.children))


@pytest.mark.parametrize("t", [nested_stratum_example(), mp_from_leaves()]
                         + generate_corpus(seed=1, size=12))
def test_relabel_fresh_is_a_fresh_copy(t):
    once, twice = relabel_fresh(t), relabel_fresh(t)
    assert not _leaf_ids(once) & _leaf_ids(t)
    assert not _leaf_ids(once) & _leaf_ids(twice)
    assert proofs_equal(once, t)
    assert check_proof(once, "nbqlcd_r") == check_proof(t, "nbqlcd_r")


def test_root_analysis_gives_each_subtree_its_facts():
    # the reduction reads every input node's stratum, open assumptions and
    # eigenparameter from one analysis of the whole input; each must equal
    # what an analysis of the node's own subtree gives
    proofs = [t for seed in (0, 1, 2) for t in generate_corpus(seed=seed, size=200)]
    proofs += closed_theorem_corpus() + [
        curry_derivation(), display_one(), display_two(), nested_stratum_example(),
        mp_from_leaves(), or_elim_with_side_context(), exists_elim_with_side_context(),
        deep_and_chain(3), mp_chain(20), detachment_paired_with_itself(),
        or_elim_on_a_repeated_disjunct(), nested_witness_chain(20)]
    for t in proofs:
        an = analyze(t)
        for i, nd in enumerate(an.nodes):
            opens = {an.leaf_formula[lid] for lid in an.open_leaves_in(i)}
            assert (an.strata[i], opens) == (stratum(nd), open_assumptions(nd))
            if nd.rule == "exists_elim":
                assert _eigenparam_for_exists(nd, an)[0] == eigenparameter(nd)
            if nd.rule == "forall_int":
                generalised = nd.conclusion.var in nd.conclusion.body.free
                assert generalised == (eigenparameter(nd) is not None)
