import dataclasses
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from bqlcd import transform
from bqlcd.proofgen import random_sentence
from bqlcd.proofkernel import (
    AX_SYSTEMS, AXIOMS_BY_LEVEL, IDENTITY_SUFFIXES, INTERNALISED, SCHEMAS,
    Judgment, Proof, System, Violation, assume, canonical_leaf_ids, check_judgment,
    check_proof, match_schema, node, open_assumptions, parse_system,
    proof_depth, proof_from_json, proof_size, proof_to_json, proofs_equal,
    BASE_AXIOMS, analyze, rename_eigenvariables,
    schema_instance, split_assumptions, stratum, unsafe_leaves,
)
from bqlcd.syntax import (
    And, Atom, Const, Exists, Forall, Imp, Or, Param, TOP, BOTTOM, Var,
    map_terms, parse_inferring, parameters_of, pretty, substitute,
)
from proofcases import (
    AXIOM_INSTANCES, curry_derivation, curry_half, deep_and_chain, display_one,
    display_two, f, mp_from_leaves, nested_stratum_example,
)


def valid(t, system="nbqlcd_r"):
    report = check_proof(t, system)
    assert report.valid, [v.__dict__ for v in report.violations]
    return report


def invalid(t, system="nbqlcd_r"):
    report = check_proof(t, system)
    assert not report.valid
    return report


# --- basics -------------------------------------------------------------------

def test_top_int_valid_everywhere():
    t = node("top_int", TOP)
    for system in ["nbqlcd_r", "nbqlcd", "nbqlcd[0]", "bd+", "tjk+", "tjkd+"]:
        valid(t, system)


def test_identity_conditional_in_every_nd_system():
    p = f("p")
    t = node("imp_int", Imp(p, p), [assume(p, "x")], {"x"})
    valid(t, "nbqlcd_r")
    valid(t, "nbqlcd")
    assert stratum(t) == -1
    assert unsafe_leaves(t) == frozenset()


def test_non_sentence_rejected():
    t = assume(Atom("P", (__import__("bqlcd.syntax", fromlist=["Var"]).Var("x"),)), "x")
    report = invalid(t)
    assert report.violations[0].constraint == "C1"


def test_modus_ponens_banned_without_stratum():
    t = mp_from_leaves()
    valid(t, "nbqlcd_r")
    valid(t, "nbqlcd[0]")
    report = invalid(t, "nbqlcd")
    assert any(v.constraint == "system" for v in report.violations)


# --- unsafe occurrences ---------------------------------------------------------

def test_display_one_unsafe_set():
    t = display_one()
    valid(t)
    assert unsafe_leaves(t) == {"l2"}


def test_display_two_unsafe_set():
    t = display_two()
    valid(t)
    assert unsafe_leaves(t) == {"l2", "l3"}


def test_no_modus_ponens_no_unsafe():
    p, q = f("p"), f("q")
    t = node("and_int", And(p, q), [assume(p, "a"), assume(q, "b")])
    assert unsafe_leaves(t) == frozenset()


def test_split_assumptions_mp():
    got = split_assumptions(mp_from_leaves())
    assert got == (frozenset({f("p -> q")}), frozenset({f("p")}))


def test_split_assumptions_closed_proof():
    p = f("p")
    t = node("imp_int", Imp(p, p), [assume(p, "x")], {"x"})
    assert split_assumptions(t) == (frozenset(), frozenset())


def test_check_proof_analyzes_once(monkeypatch):
    from bqlcd import proofkernel
    real, calls = proofkernel.analyze, []
    monkeypatch.setattr(proofkernel, "analyze", lambda t: calls.append(t) or real(t))
    for t in (mp_from_leaves(), curry_derivation(), nested_stratum_example()):
        calls.clear()
        report = check_proof(t, "nbqlcd_r")
        assert len(calls) == 1
        assert (report.unsafe_open, report.safe_open) == split_assumptions(t)
        assert report.open_assumptions == open_assumptions(t)


# --- the Curry derivation --------------------------------------------------------

def test_curry_rejected_with_exactly_c5():
    t = curry_derivation()
    report = invalid(t, "nbqlcd_r")
    kinds = {v.constraint for v in report.violations}
    assert kinds == {"C5"}
    # the offending nodes are the conditional-proof steps discharging the
    # starred occurrence
    an_paths = {v.node for v in report.violations}
    assert an_paths == {"r.0.0", "r.1"}
    for v in report.violations:
        assert "star" in v.message


def test_curry_half_alone_has_single_c5():
    report = invalid(curry_half(""), "nbqlcd_r")
    assert [v.constraint for v in report.violations] == ["C5"]
    assert report.violations[0].node == "r"


def test_curry_unsafe_split():
    # with C5 ignored the proof stands on unsafely-occurring halves
    unsafe, safe = split_assumptions(curry_derivation())
    from proofcases import TB_FWD, TB_BWD
    assert TB_FWD in unsafe and TB_BWD in unsafe
    assert safe == frozenset()


# --- stratum ---------------------------------------------------------------------

def test_stratum_no_mp():
    p = f("p")
    t = node("imp_int", Imp(p, p), [assume(p, "x")], {"x"})
    assert stratum(t) == -1


def test_stratum_single_mp():
    assert stratum(mp_from_leaves()) == 0


def test_stratum_nested_example():
    t = nested_stratum_example()
    assert stratum(t) == 1
    valid(t, "nbqlcd_r")
    valid(t, "nbqlcd[1]")
    valid(t, "nbqlcd[5]")
    report = invalid(t, "nbqlcd[0]")
    assert any(v.constraint == "system" for v in report.violations)


def test_a_stratum_bound_below_minus_one_is_refused():
    with pytest.raises(ValueError, match="stratum bound must be -1 or more"):
        check_proof(mp_from_leaves(), "nbqlcd[-2]")
    with pytest.raises(ValueError, match="stratum bound must be -1 or more"):
        System("nd", -7)
    assert parse_system("nbqlcd[-1]") == parse_system("nbqlcd")


def right_nested_chain(n):
    """n modus ponens, each taking its conditional from the next one up, so
    the right premises nest n deep."""
    p, concl = f("p"), f("q")
    conds = [concl]
    for _ in range(n):
        conds.append(Imp(p, conds[-1]))
    t = assume(conds[-1], "c")
    for i in range(n - 1, -1, -1):
        t = node("imp_elim", conds[i], [assume(p, f"a{i}"), t])
    return t


def test_stratum_of_a_deep_right_nested_chain():
    # computing a child's stratum twice per level would cost 2 ** 40 visits
    t = right_nested_chain(40)
    assert stratum(t) == 39
    assert valid(t).stratum == 39


def test_bounded_system_reads_each_stratum_once():
    # a stratum recomputed at every modus ponens is quadratic in the depth
    t = right_nested_chain(300)
    valid(t, "nbqlcd[299]")
    report = invalid(t, "nbqlcd[298]")
    assert [(v.node, v.message) for v in report.violations] == [
        ("r", "right premise has stratum 298, needs < 298")]


def test_a_proof_10000_deep_is_analysed_without_recursion():
    t = deep_and_chain(5000)
    report = valid(t)
    assert report.stratum == -1
    assert report.open_assumptions == {f("p"), f("q")}
    assert stratum(t) == -1
    assert open_assumptions(t) == {f("p"), f("q")}
    assert split_assumptions(t) == (frozenset(), frozenset({f("p"), f("q")}))
    assert unsafe_leaves(t) == frozenset()
    assert (proof_size(t), proof_depth(t)) == (15001, 10000)
    data, depth = proof_to_json(t), 0
    while "children" in data:
        data, depth = data["children"][0], depth + 1
    assert (depth, data) == (10000, {"assume": "p", "id": "p"})
    c, ids = canonical_leaf_ids(t), []
    while c.children:
        ids.append(c.children[-1].leaf_id)
        c = c.children[0]
    assert c.leaf_id == "a0"
    assert [i for i in ids if i] == [f"a{i}" for i in range(5000, 0, -1)]
    assert parameters_of(t) == frozenset()
    out = rename_eigenvariables(t, {0})
    assert (proof_size(out), proof_depth(out)) == (15001, 10000)


def test_an_and_int_chain_with_conclusions_1500_deep_checks():
    # each conclusion is the previous one conjoined with q, so checking C1 by
    # walking every conclusion would recurse 1500 deep and cost 1500 ** 2 / 2
    assert sys.getrecursionlimit() < 1500
    p, q = f("p"), f("q")
    t = assume(p, "h0")
    for i in range(1, 1500):
        t = node("and_int", And(t.conclusion, q), [t, assume(q, f"h{i}")])
    report = valid(t)
    assert report.stratum == -1 and report.open_assumptions == {p, q}


def test_violations_are_named_by_child_positions_in_preorder():
    p, q, r, s = f("p"), f("q"), f("r"), f("s")
    left = node("imp_elim", r, [node("and_elim_l", s, [assume(And(p, q), "x")]),
                                assume(Imp(s, r), "y")])
    inner = node("and_int", And(r, s), [assume(r, "z"), node("top_int", q)])
    right = node("and_elim_l", r, [inner])
    t = node("or_elim", r, [assume(Or(p, q), "m"), left, right], {"w"})
    report = invalid(t)
    assert [(v.node, v.constraint, v.message) for v in report.violations] == [
        ("r", "discharge", "discharge of unknown leaf 'w'"),
        ("r.1.0", "rule", "conclusion is not the left conjunct of the premise"),
        ("r.2.0", "rule", "conclusion is not the conjunction of the premises"),
        ("r.2.0.1", "rule", "the truth constant is the only conclusion here"),
    ]


def test_modus_ponens_with_one_premise_is_reported_not_raised():
    p = f("p")
    report = invalid(node("imp_elim", p, [assume(p, "a")]))
    assert [v.message for v in report.violations] == [
        "imp_elim expects 2 premises, got 1"]


# --- judgments -------------------------------------------------------------------

def test_check_judgment_mp():
    t = mp_from_leaves()
    p, q, pq = f("p"), f("q"), f("p -> q")
    ok, _ = check_judgment(Judgment((pq,), (p,), 0, q), t)
    assert ok
    ok, _ = check_judgment(Judgment((), (p,), 0, q), t)
    assert not ok                      # the conditional occurs unsafely
    ok, _ = check_judgment(Judgment((pq, p), (), "r", q), t)
    assert ok


# --- quantifier constraints --------------------------------------------------------

def forall_int_proof():
    # the premise must not rest on assumptions about the parameter, so it is
    # extracted from a closed premise first
    prem = node("forall_elim", f("P(#0)"), [assume(f("forall y. P(y)"), "w")])
    return node("forall_int", f("forall x. P(x)"), [prem])


def test_forall_int_valid():
    t = forall_int_proof()
    valid(t)
    assert parameters_of(t) == {0}


def test_forall_int_rejects_assumption_about_parameter():
    # concluding a universal from a bare assumption about the parameter is
    # exactly what the eigenvariable constraint blocks
    t = node("forall_int", f("forall x. P(x)"), [assume(f("P(#0)"), "w")])
    report = invalid(t)
    assert any(v.constraint == "C2" for v in report.violations)


def test_forall_int_c2_open_assumption():
    # the parameter leaks into an open assumption of the subproof
    prem = node("and_elim_l", f("P(#0)"), [assume(f("P(#0) & Q(#0)"), "w")])
    t = node("forall_int", f("forall x. P(x)"), [prem])
    report = invalid(t)
    assert any(v.constraint == "C2" for v in report.violations)


def test_forall_int_c2_in_body():
    # generalising only some occurrences pins the parameter inside the body
    prem = assume(f("R(#0, #0)"), "w")
    t = node("forall_int", f("forall x. R(x, #0)"), [prem])
    report = invalid(t)
    assert any(v.constraint == "C2" for v in report.violations)


def test_forall_int_requires_parameter_not_constant():
    prem = assume(f("P(c)"), "w")
    t = node("forall_int", f("forall x. P(x)"), [prem])
    invalid(t)


def exists_elim_proof(discharge=True):
    ex = assume(f("exists x. P(x)"), "e")
    wit = assume(f("P(#3)"), "w")
    body = node("exists_int", f("exists y. P(y)"), [wit])
    ids = {"w"} if discharge else set()
    return node("exists_elim", f("exists y. P(y)"), [ex, body], ids)


def test_exists_elim_valid():
    valid(exists_elim_proof())


def test_exists_elim_without_discharges_reads_witness_as_assumption():
    # with nothing discharged the parameter is not pinned; the would-be
    # witness stays among the open assumptions
    t = exists_elim_proof(discharge=False)
    valid(t)
    assert f("P(#3)") in open_assumptions(t)


def test_exists_elim_c4_partial_discharge():
    ex = assume(f("exists x. P(x) & P(x)"), "e")
    w1, w2 = assume(f("P(#3) & P(#3)"), "w1"), assume(f("P(#3) & P(#3)"), "w2")
    pair = node("and_int", f("(P(#3) & P(#3)) & (P(#3) & P(#3))"), [w1, w2])
    body = node("and_elim_l", f("P(#3) & P(#3)"), [pair])
    t = node("exists_elim", f("P(#3) & P(#3)"), [ex, body], {"w1"})
    report = invalid(t)
    # w2 stays open: C4; and the witness leaks into the conclusion: C3
    assert any(v.constraint == "C4" for v in report.violations)


def test_exists_elim_c3_conclusion():
    ex = assume(f("exists x. P(x)"), "e")
    wit = assume(f("P(#3)"), "w")
    body = node("or_int_l", f("P(#3) | q"), [wit])
    t = node("exists_elim", f("P(#3) | q"), [ex, body], {"w"})
    report = invalid(t)
    assert any(v.constraint == "C3" for v in report.violations)


def test_exists_elim_unsafe_witness_discharge_rejected():
    # degenerate matrix: the witness itself is the conditional premise of a
    # modus ponens, so its occurrence is unsafe and cannot be discharged
    ex = assume(f("exists x. p -> q"), "e")
    wit = assume(f("p -> q"), "w")
    body = node("imp_elim", f("q"), [assume(f("p"), "h"), wit])
    t = node("exists_elim", f("q"), [ex, body], {"w"})
    report = invalid(t)
    assert any(v.constraint == "C5" for v in report.violations)


def test_vacuous_exists_elim():
    ex = assume(f("exists x. p"), "e")
    body = assume(f("p"), "w")
    t = node("exists_elim", f("p"), [ex, body], {"w"})
    valid(t)
    # leaving the degenerate witness open breaks C4
    t2 = node("exists_elim", f("p"), [ex, assume(f("p"), "w2")])
    report = invalid(t2)
    assert any(v.constraint == "C4" for v in report.violations)


# --- discharge bookkeeping ----------------------------------------------------------

def test_or_elim_discharges_both_sides():
    p, q = f("p"), f("q")
    major = assume(Or(p, q), "m")
    left = node("or_int_l", Or(p, q), [assume(p, "dl")])
    right = node("or_int_r", Or(p, q), [assume(q, "dr")])
    t = node("or_elim", Or(p, q), [major, left, right], {"dl", "dr"})
    valid(t)


def test_or_elim_wrong_side_discharge():
    p, q = f("p"), f("q")
    major = assume(Or(p, q), "m")
    left = node("or_int_l", Or(p, q), [assume(q, "dl")])   # q sits in the p branch
    right = node("or_int_r", Or(p, q), [assume(q, "dr")])
    t = node("or_elim", Or(p, q), [major, left, right], {"dl", "dr"})
    report = invalid(t)
    assert any(v.constraint in ("discharge", "rule") for v in report.violations)


def test_duplicate_leaf_ids_rejected():
    p = f("p")
    t = node("and_int", And(p, p), [assume(p, "x"), assume(p, "x")])
    report = invalid(t)
    assert any("duplicate" in v.message for v in report.violations)


def test_double_discharge_rejected():
    p, q = f("p"), f("q")
    inner = node("imp_int", Imp(p, p), [assume(p, "x")], {"x"})
    outer = node("imp_int", Imp(p, Imp(p, p)), [inner], {"x"})
    report = invalid(outer)
    assert any("twice" in v.message for v in report.violations)


# --- axiomatic systems ----------------------------------------------------------------

def test_axiom_availability_ladder():
    cases = [
        ("axiom:identity", "p -> p", ["bd+", "djd+", "tjd+", "tjkd+", "tjk+"], []),
        ("axiom:transitivity", "(p -> q) & (q -> r) -> (p -> r)",
         ["djd+", "tjd+", "tjkd+", "tjk+"], ["bd+"]),
        ("axiom:suffixing", "(p -> q) -> ((q -> r) -> (p -> r))",
         ["tjd+", "tjkd+", "tjk+"], ["bd+", "djd+"]),
        ("axiom:prefixing", "(p -> q) -> ((r -> p) -> (r -> q))",
         ["tjd+", "tjkd+", "tjk+"], ["bd+", "djd+"]),
        ("axiom:weakening", "p -> (q -> p)", ["tjkd+", "tjk+"],
         ["bd+", "djd+", "tjd+"]),
    ]
    for rule, text, good, bad in cases:
        t = node(rule, f(text))
        for system in good:
            valid(t, system)
        for system in bad:
            report = invalid(t, system)
            assert any(v.constraint == "system" for v in report.violations)


def test_every_base_axiom_checks_in_b():
    for schema, text in AXIOM_INSTANCES:
        if schema in BASE_AXIOMS:
            valid(node(f"axiom:{schema}", f(text)), "bd+")


def test_axiom_instance_mismatch():
    t = node("axiom:weakening", f("p -> (q -> r)"))
    report = invalid(t, "tjkd+")
    assert any(v.constraint == "rule" for v in report.violations)


def _occurrences(pat, path=()):
    """(path, name) of every metavariable occurrence in a schema; the
    variable metavariable sits at the path of its quantifier."""
    if isinstance(pat, Atom):
        yield path, pat.rel
    elif isinstance(pat, (And, Or, Imp)):
        yield from _occurrences(pat.left, path + ("left",))
        yield from _occurrences(pat.right, path + ("right",))
    elif isinstance(pat, (Forall, Exists)):
        yield path, pat.var
        yield from _occurrences(pat.body, path + ("body",))


def _replace_at(phi, path, part):
    """``phi`` with ``part(old)`` put for its part ``old`` at ``path``."""
    if not path:
        return part(phi)
    inner = _replace_at(getattr(phi, path[0]), path[1:], part)
    return dataclasses.replace(phi, **{path[0]: inner})


def _random_bindings(name, rng):
    """Random sentences for the schema's formula metavariables; in
    ``forall_inst`` and ``exists_int`` B is A with the constant c for x."""
    b = {"x": "x", "A": random_sentence(rng), "B": random_sentence(rng),
         "C": random_sentence(rng)}
    if name in ("forall_inst", "exists_int"):
        b["A"] = map_terms(b["A"], lambda s: Var("x") if s == Const("c") else s)
        b["B"] = substitute(b["A"], "x", Const("c"))
    names = {n for _, n in _occurrences(SCHEMAS[name])}
    return {k: v for k, v in b.items() if k in names}


def test_schema_table_names_every_axiom_in_use():
    assert set().union(*AXIOMS_BY_LEVEL.values()) <= set(SCHEMAS)
    assert {schema for schema, _ in INTERNALISED.values()} <= set(SCHEMAS)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_schema_instances_match_and_check_at_their_levels(rng):
    systems = {level: name for name, (level, ee) in AX_SYSTEMS.items() if ee}
    for name in SCHEMAS:
        b = _random_bindings(name, rng)
        phi = schema_instance(name, **b)
        assert match_schema(name, phi) == b
        t = node(f"axiom:{name}", phi)
        for level, system in systems.items():
            assert check_proof(t, system).valid == (name in AXIOMS_BY_LEVEL[level])
        # one occurrence of a repeated metavariable made different
        occurrences = list(_occurrences(SCHEMAS[name]))
        for path, meta in occurrences:
            if [n for _, n in occurrences].count(meta) < 2:
                continue
            if meta == "x":
                mutant = _replace_at(phi, path, lambda q: dataclasses.replace(q, var="y"))
            else:
                mutant = _replace_at(phi, path, lambda _: Atom("fresh"))
            report = check_proof(node(f"axiom:{name}", mutant), "tjkd+")
            assert report.violations == [Violation(
                "r", "rule", f"conclusion does not instantiate {name}: {pretty(mutant)}")]


def test_system_names_round_trip():
    names = list(AX_SYSTEMS) + [base + suffix
                                for base in ("nbqlcd_r", "nbqlcd", "nbqlcd[0]", "nbqlcd[2]")
                                for suffix in IDENTITY_SUFFIXES.values()]
    for name in names:
        assert parse_system(name).name == name


def test_unknown_identity_mode_is_refused_up_front():
    t = node("top_int", TOP, [])
    with pytest.raises(ValueError, match="unknown identity mode 'bogus'.*absent"):
        check_proof(t, System("nd", None, "bogus"))
    with pytest.raises(ValueError, match="unknown identity mode 'bogus'"):
        transform.reduce_proof(t, identity="bogus")


def test_affixing_rule():
    t = node("affixing", f("(q -> r) -> (p -> s)"),
             [assume(f("p -> q"), "x"), assume(f("r -> s"), "y")])
    valid(t, "bd+")
    invalid(t, "nbqlcd_r")        # axiomatic rule only


def test_nd_rules_rejected_in_axiomatic():
    p = f("p")
    t = node("imp_int", Imp(p, p), [assume(p, "x")], {"x"})
    report = invalid(t, "tjkd+")
    assert any(v.constraint == "system" for v in report.violations)


def test_tjk_plus_lacks_exists_elim():
    t = exists_elim_proof()
    valid(t, "tjkd+")
    report = invalid(t, "tjk+")
    assert any(v.constraint == "system" for v in report.violations)


# --- identity rules ---------------------------------------------------------------------

def test_identity_rules():
    eq = f("c = c")
    t = node("eq_int", eq)
    valid(t, "nbqlcd_r+eq")
    valid(t, "nbqlcd_r+eqxm")
    invalid(t, "nbqlcd_r")
    subst = node("eq_elim", f("P(d)"),
                 [assume(f("c = d"), "x"), assume(f("P(c)"), "y")])
    valid(subst, "nbqlcd_r+eq")
    xm = node("id_xm", f("c = d | (c = d -> false)"))
    valid(xm, "nbqlcd_r+eqxm")
    report = invalid(xm, "nbqlcd_r+eq")
    assert any(v.constraint == "system" for v in report.violations)


def test_eq_elim_partial_replacement():
    t = node("eq_elim", f("R(c, d)"),
             [assume(f("c = d"), "x"), assume(f("R(c, c)"), "y")])
    valid(t, "nbqlcd_r+eq")
    bad = node("eq_elim", f("R(d, q0)"),
               [assume(f("c = d"), "x"), assume(f("R(c, c)"), "y")])
    invalid(bad, "nbqlcd_r+eq")


# --- renaming ----------------------------------------------------------------------------

def test_rename_eigenvariables_avoids():
    t = forall_int_proof()
    out = rename_eigenvariables(t, {0})
    valid(out)
    assert out.conclusion == t.conclusion
    assert 0 not in parameters_of(out)


def test_rename_noop_when_clear():
    t = forall_int_proof()
    out = rename_eigenvariables(t, {5, 9})
    assert out == t


def test_rename_allows_grafting_conflict_resolution():
    a = forall_int_proof()
    b = rename_eigenvariables(forall_int_proof(), parameters_of(a))
    combined = node("and_int", And(a.conclusion, b.conclusion),
                    [a, canonical_leaf_ids(b)])
    # leaf ids collide between a and b unless canonicalised, rebuild cleanly
    from bqlcd.proofkernel import analyze
    combined = canonical_leaf_ids(combined)
    valid(combined)


# --- serialization -----------------------------------------------------------------------

def test_json_roundtrip_and_report_stability():
    t = curry_derivation()
    blob = json.dumps(proof_to_json(t))
    again = proof_from_json(json.loads(blob))
    assert proofs_equal(t, again)
    r1 = check_proof(t, "nbqlcd_r")
    r2 = check_proof(again, "nbqlcd_r")
    assert [ (v.node, v.constraint) for v in r1.violations ] == \
           [ (v.node, v.constraint) for v in r2.violations ]


def test_a_leaf_with_id_0_keeps_it():
    t = proof_from_json({"rule": "imp_int", "conclusion": "p -> p", "discharges": [0],
                         "children": [{"assume": "p", "id": 0}]})
    assert t.children[0].leaf_id == "0"
    valid(t)
    # only a missing, null or empty id mints a fresh one
    t = proof_from_json({"rule": "or_elim", "conclusion": "p", "children": [
        {"assume": "p | p"}, {"assume": "p", "id": None}, {"assume": "p", "id": ""}]})
    assert [c.leaf_id for c in t.children] == ["L0", "L1", "L2"]


def test_a_proof_10000_deep_is_read_from_json_without_recursion():
    t = deep_and_chain(5000)
    back = proof_from_json(proof_to_json(t))
    # == on proofs recurses once per level, so compare the nodes in pre-order
    def shallow(u):
        return [(nd.rule, nd.conclusion, nd.discharges, nd.leaf_id, len(nd.children))
                for nd in analyze(u).nodes]
    assert shallow(back) == shallow(t)


def test_json_missing_fields():
    from bqlcd.proofkernel import ProofJsonError
    with pytest.raises(ProofJsonError):
        proof_from_json({"children": []})
    with pytest.raises(ProofJsonError):
        proof_from_json({"rule": "top_int", "conclusion": "p ->"})


def test_canonicalization_equality():
    p = f("p")
    t1 = node("imp_int", Imp(p, p), [assume(p, "first")], {"first"})
    t2 = node("imp_int", Imp(p, p), [assume(p, "second")], {"second"})
    assert proofs_equal(t1, t2)
    assert t1 != t2


def test_axiomatic_discharge_is_unrestricted():
    """The axiomatic systems keep only C1-C4: a case split may discharge an
    occurrence sitting inside the conditional premise of a detachment, which
    the simplified systems forbid."""
    p, q, s = f("p"), f("q"), f("s")
    sq = Imp(s, q)
    # the discharged [p] leaf rides inside the major premise of a detachment
    def branch(tag, disj_side):
        pair = node("and_int", And(sq, disj_side),
                    [assume(sq, f"g{tag}"), assume(disj_side, f"d{tag}")])
        major = node("and_elim_l", sq, [pair])
        return node("imp_elim", q, [assume(s, f"m{tag}"), major])

    t = node("or_elim", q,
             [assume(Or(p, q), "maj"), branch("1", p), branch("2", q)],
             {"d1", "d2"})
    report = check_proof(t, "tjkd+")
    assert report.valid, [v.__dict__ for v in report.violations]
    # the very same tree is rejected by the simplified system
    report2 = check_proof(t, "nbqlcd_r")
    assert not report2.valid
    assert {v.constraint for v in report2.violations} == {"C5"}


# --- rule messages -------------------------------------------------------------

# rule -> (premises, conclusion, message); each premise is an assumption leaf
_RULE_CASES = {
    "bot_elim": (["false"], "p", "premise must be the falsity constant"),
    "and_elim_l": (["p & q"], "p", "conclusion is not the left conjunct of the premise"),
    "and_elim_r": (["p & q"], "q", "conclusion is not the right conjunct of the premise"),
    "or_int_l": (["p"], "p | q", "premise is not the left disjunct of the conclusion"),
    "or_int_r": (["q"], "p | q", "premise is not the right disjunct of the conclusion"),
    "int_trans": (["p -> q", "q -> r"], "p -> r", "premises do not chain"),
    "int_and_int": (["p -> q", "p -> r"], "p -> q & r",
                    "premises do not combine under one antecedent"),
    "int_or_elim": (["p -> r", "q -> r"], "p | q -> r",
                    "premises do not combine under one consequent"),
    "int_forall_int": (["forall x. (p -> P(x))"], "p -> forall x. P(x)",
                       "premise is not the internalised form of the conclusion"),
    "int_exists_elim": (["forall x. (P(x) -> p)"], "(exists x. P(x)) -> p",
                        "premise is not the internalised form of the conclusion"),
    "forall_elim": (["forall x. P(x)"], "P(c)", "conclusion is not an instance of the premise"),
    "cd": (["forall x. (p | P(x))"], "p | forall x. P(x)",
           "conclusion does not pull the quantifier inside the disjunction"),
    "exists_int": (["P(c)"], "exists x. P(x)", "premise is not an instance of the conclusion"),
}


def _rule_node(rule, premises, concl):
    leaves = [assume(BOTTOM if p == "false" else f(p), f"h{i}")
              for i, p in enumerate(premises)]
    return node(rule, f(concl), leaves)


def _single_rule_violation(t, message):
    report = check_proof(t, "nbqlcd_r")
    assert [(v.node, v.constraint, v.message) for v in report.violations] == \
        [("r", "rule", message)]


@pytest.mark.parametrize("rule", sorted(_RULE_CASES))
def test_rule_message(rule):
    premises, concl, message = _RULE_CASES[rule]
    valid(_rule_node(rule, premises, concl))
    if rule in ("bot_elim", "exists_int"):
        # falsity yields any conclusion, and a fresh-atom conclusion of
        # exists_int trips its first guard instead
        bad = _rule_node(rule, ["fresh"] + premises[1:], concl)
    else:
        bad = _rule_node(rule, premises, "fresh")
    _single_rule_violation(bad, message)


@pytest.mark.parametrize("rule, premises, concl, message", [
    ("forall_elim", ["p"], "P(c)", "premise is not universally quantified"),
    ("exists_int", ["P(c)"], "fresh", "conclusion is not existentially quantified"),
])
def test_rule_first_guard_message(rule, premises, concl, message):
    _single_rule_violation(_rule_node(rule, premises, concl), message)


def test_forall_int_from_a_constant_instance_message():
    t = node("forall_int", f("forall x. P(x)"), [assume(f("P(c)"), "w")])
    _single_rule_violation(
        t, "premise does not instantiate the conclusion with a parameter")


def test_forall_int_from_a_mismatched_instance_message():
    t = node("forall_int", f("forall x. R(x, x)"), [assume(f("R(#0, #1)"), "w")])
    _single_rule_violation(t, "premise does not match the generalised formula")


def test_exists_elim_discharging_a_constant_instance_message():
    ex = assume(f("exists x. P(x)"), "e")
    body = node("exists_int", f("exists y. P(y)"), [assume(f("P(c)"), "w")])
    t = node("exists_elim", f("exists y. P(y)"), [ex, body], {"w"})
    _single_rule_violation(
        t, "discharged assumptions are not a parameter instance of the matrix")
