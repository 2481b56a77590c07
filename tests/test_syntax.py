import functools

import pytest
from hypothesis import given, settings, strategies as st

from bqlcd.proofgen import generate_corpus, random_sentence
from bqlcd.proofkernel import SCHEMAS, schema_instance
from bqlcd.syntax import (
    And, Atom, Bottom, Const, Exists, Fn, Forall, Imp, Or, Param, ParseError,
    Signature, SignatureError, Top, TOP, BOTTOM, Var, _subst, big_conj, box,
    free_vars, generalize_param, infer_signature, is_sentence,
    match_instantiation, parameters_of, parse_formula, parse_inferring, pretty,
    replace_param, sig, subformulas, substitute, subterms,
)
from oracle import reference_free_vars, reference_params

SIG = sig(constants=["c", "d"], functions={"f": 1},
          relations={"p": 0, "q": 0, "P": 1, "Q": 0, "T": 1, "R": 2, "=": 2})


def parse(text, **kw):
    return parse_formula(text, SIG, **kw)


def test_parse_weakening_shape():
    assert parse("p -> (q -> p)") == Imp(Atom("p"), Imp(Atom("q"), Atom("p")))
    # -> is right-associative, so the parens are redundant
    assert parse("p -> q -> p") == parse("p -> (q -> p)")


def test_parse_quantifier_maximal_scope():
    phi = parse("forall x. (P(x) | Q) -> (P(x) | Q)")
    assert isinstance(phi, Forall)
    assert phi.body == Imp(Or(Atom("P", (Var("x"),)), Atom("Q")),
                           Or(Atom("P", (Var("x"),)), Atom("Q")))
    assert is_sentence(phi)


def test_parse_parameter_atom():
    phi = parse("T(#0) -> false")
    assert phi == Imp(Atom("T", (Param(0),)), BOTTOM)


def test_parse_precedence_and_over_or():
    assert parse("p & q | p") == Or(And(Atom("p"), Atom("q")), Atom("p"))
    assert parse("p | q & p") == Or(Atom("p"), And(Atom("q"), Atom("p")))


def test_parse_iff_expands():
    assert parse("p <-> q") == And(Imp(Atom("p"), Atom("q")), Imp(Atom("q"), Atom("p")))


def test_parse_unicode_aliases():
    assert parse("p ∧ q → ⊥") == parse("p & q -> false")
    assert parse("∀x. P(x)") == parse("forall x. P(x)")


def test_parse_identity_atom():
    phi = parse("c = d | (c = d -> false)")
    assert phi == Or(Atom("=", (Const("c"), Const("d"))),
                     Imp(Atom("=", (Const("c"), Const("d"))), BOTTOM))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("p ->")
    with pytest.raises(ParseError):
        parse("unknown_rel(c)")
    with pytest.raises(ParseError):
        parse("P(c, d)")           # arity mismatch
    with pytest.raises(ParseError):
        parse("p q")               # trailing input
    with pytest.raises(ParseError):
        parse("c")                 # a lone term is not a formula


def test_parse_inference_classifies_names():
    phi, s = parse_inferring("foo & Bar(baz) -> baz = qux")
    assert s.relations == {"foo": 0, "Bar": 1, "=": 2}
    assert s.constants == {"baz", "qux"}
    assert isinstance(phi, Imp)


def test_infer_signature_across_texts():
    s = infer_signature(["p -> q", "P(c)", "R(c, f(d))"])
    assert s.relations == {"p": 0, "q": 0, "P": 1, "R": 2}
    assert s.functions == {"f": 1}
    assert s.constants == {"c", "d"}


def test_parse_inferring_seed_rejects_a_bare_function_or_relation():
    _, s = parse_inferring("f(c) = c")
    with pytest.raises(ParseError, match="'f' used both as term and function"):
        parse_inferring("P(f)", s)
    _, s = parse_inferring("p")
    with pytest.raises(ParseError, match="'p' used both as term and relation"):
        parse_inferring("P(p)", s)


@pytest.mark.parametrize("text", ["y(y)", "c(c) = #0"])
def test_a_name_is_not_applied_to_itself(text):
    with pytest.raises(ParseError, match="used both as term and"):
        parse_inferring(text)


def test_long_guard_chain_parses_without_recursion():
    phi, _ = parse_inferring("true -> " * 5000 + "p")
    for _ in range(5000):
        assert isinstance(phi, Imp) and phi.left == TOP
        phi = phi.right
    assert phi == Atom("p")


def test_infer_signature_rejects_a_constant_used_as_a_relation():
    with pytest.raises(SignatureError):
        infer_signature([Atom("P", (Const("c"),)), Atom("c")])


def test_substitute_basic():
    P_x = Atom("P", (Var("x"),))
    assert substitute(P_x, "x", Const("c")) == Atom("P", (Const("c"),))
    closed = Forall("x", P_x)
    assert substitute(closed, "x", Const("c")) == closed
    mixed = And(P_x, Exists("x", Atom("Q")))
    got = substitute(mixed, "x", Param(0))
    assert got == And(Atom("P", (Param(0),)), Exists("x", Atom("Q")))


def test_substitute_requires_closed_term():
    with pytest.raises(ValueError):
        substitute(Atom("P", (Var("x"),)), "x", Var("y"))


def test_box():
    p = Atom("P", (Const("c"),))
    assert box(0, p) == p
    assert box(1, BOTTOM) == Imp(TOP, BOTTOM)
    assert box(2, BOTTOM) == Imp(TOP, Imp(TOP, BOTTOM))
    assert box(3, p) == box(1, box(2, p))


def test_free_vars_of_equal_deep_formulas_built_apart():
    first, second = box(400, Atom("p")), box(400, Atom("p"))
    assert first is not second
    assert free_vars(first) == free_vars(second) == frozenset()
    deep = box(2000, Atom("P", (Param(1),)))
    assert free_vars(deep) == frozenset() and is_sentence(deep)
    assert parameters_of(deep) == {1}


def test_big_conj():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert big_conj([]) == TOP
    assert big_conj([p]) == p
    assert big_conj([p, q, r]) == And(p, And(q, r))


def test_parameters_of():
    phi = And(Atom("P", (Param(0),)), Atom("Q"))
    psi = And(phi, Atom("P", (Param(2),)))
    assert parameters_of(psi) == {0, 2}
    assert parameters_of(Forall("x", Atom("P", (Var("x"),)))) == frozenset()


def test_signature_validation():
    with pytest.raises(Exception):
        sig(constants=["c"], relations={"c": 1})
    with pytest.raises(Exception):
        sig(functions={"f": 0})
    with pytest.raises(Exception):
        sig(identity_mode="strict")   # '=' missing
    s = sig(relations={"=": 2}, identity_mode="strict")
    assert s.identity_mode == "strict"


# --- random round trip ------------------------------------------------------

def formulas(max_depth=6):
    terms = st.one_of(
        st.sampled_from([Const("c"), Const("d"), Param(0), Param(1)]),
        st.builds(lambda t: Fn("f", (t,)),
                  st.sampled_from([Const("c"), Const("d"), Param(3)])),
    )
    atoms = st.one_of(
        st.sampled_from([TOP, BOTTOM, Atom("p"), Atom("q"), Atom("Q")]),
        st.builds(lambda t: Atom("P", (t,)), terms),
        st.builds(lambda a, b: Atom("R", (a, b)), terms, terms),
        st.builds(lambda a, b: Atom("=", (a, b)), terms, terms),
    )

    def extend(children):
        var_atom = st.sampled_from([Atom("P", (Var("x"),)), Atom("Q"),
                                    Atom("R", (Var("x"), Const("c")))])
        return st.one_of(
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Imp, children, children),
            st.builds(lambda b: Forall("x", b), st.one_of(children, var_atom)),
            st.builds(lambda b: Exists("x", b), st.one_of(children, var_atom)),
        )

    return st.recursive(atoms, extend, max_leaves=2 ** max_depth)


@settings(max_examples=200)
@given(formulas())
def test_parse_pretty_roundtrip(phi):
    text = pretty(phi)
    assert parse_formula(text, SIG, free_vars=free_vars(phi)) == phi


@settings(max_examples=200)
@given(formulas())
def test_text_and_formula_object_infer_one_signature(phi):
    assert parse_inferring(pretty(phi)) == (phi, infer_signature([phi]))


@settings(max_examples=60)
@given(formulas())
def test_substitute_identity_when_not_free(phi):
    if "zz" not in free_vars(phi):
        assert substitute(phi, "zz", Const("c")) == phi


# formulas() uses the parameters #0, #1 and #3 and binds only x

@settings(max_examples=60)
@given(formulas())
def test_replace_param_round_trip(phi):
    assert replace_param(replace_param(phi, 0, 7), 7, 0) == phi


@settings(max_examples=60)
@given(formulas())
def test_generalize_param_then_substitute_round_trip(phi):
    assert substitute(generalize_param(phi, 0, "zz"), "zz", Param(0)) == phi


@settings(max_examples=60)
@given(formulas())
def test_formula_params_after_replace_param(phi):
    before = phi.params
    want = before - {0} | ({7} if 0 in before else set())
    assert replace_param(phi, 0, 7).params == want


@functools.cache
def _corpus_conclusions():
    return [t.conclusion for t in generate_corpus(seed=0)]


@settings(max_examples=60, deadline=None)
@given(formulas(), st.randoms(use_true_random=False))
def test_stored_facts_match_the_reference(phi, rng):
    open_ = generalize_param(phi, 1, "y")
    samples = [phi, open_, random_sentence(rng, 4), *_corpus_conclusions(),
               parse_formula(pretty(open_), SIG, free_vars=["y"]),
               substitute(open_, "y", Fn("f", (Param(5),))),
               replace_param(phi, 0, 7)]
    samples += [schema_instance(name, A=open_, B=phi, C=Atom("P", (Var("x"),)), x="y")
                for name in SCHEMAS]
    for sample in samples:
        for sub in subformulas(sample):
            parts = [sub] + [t for a in getattr(sub, "args", ()) for t in subterms(a)]
            for x in parts:
                assert x.free == reference_free_vars(x)
                assert x.params == reference_params(x)


@settings(max_examples=60)
@given(formulas())
def test_match_instantiation_recovers_the_parameter(phi):
    body = generalize_param(phi, 0, "x")
    ok, cand = match_instantiation(body, "x", _subst(body, "x", Param(5)))
    assert ok
    assert cand == (Param(5) if "x" in free_vars(body) else None)


def test_match_instantiation_returns_the_candidate_on_failure():
    x, c = Var("x"), Const("c")
    body = Atom("R", (x, x))
    assert match_instantiation(body, "x", Atom("R", (c, c))) == (True, c)
    assert match_instantiation(body, "x", Atom("R", (Param(0), Param(1)))) == \
        (False, Param(0))
    assert match_instantiation(body, "x", Atom("R", (Var("y"), Var("y")))) == \
        (False, Var("y"))
    assert match_instantiation(body, "x", TOP) == (False, None)


def test_param_rewrites_go_under_every_binder():
    x, c = Var("x"), Const("c")
    phi = And(Forall("x", Atom("R", (x, Param(0)))),
              Atom("P", (Fn("f", (Param(0),)),)))
    assert replace_param(phi, 0, 2) == And(
        Forall("x", Atom("R", (x, Param(2)))), Atom("P", (Fn("f", (Param(2),)),)))
    open_ = generalize_param(phi, 0, "x")
    assert open_ == And(Forall("x", Atom("R", (x, x))), Atom("P", (Fn("f", (x,)),)))
    # substitution stops at a binder of its own variable
    assert substitute(open_, "x", c) == And(
        Forall("x", Atom("R", (x, x))), Atom("P", (Fn("f", (c,)),)))


def test_relation_names_are_not_terms():
    with pytest.raises(ParseError):
        parse("c = P")          # relation symbol in term position
    with pytest.raises(ParseError):
        parse("P = c")
    with pytest.raises(ParseError):
        parse("R(p, c)")        # propositional letter as a term


def test_identity_over_function_terms():
    s2 = sig(constants=["c", "d"], functions={"f": 1},
             relations={"=": 2}, identity_mode="congruence")
    phi = parse_formula("f(c) = f(d)", s2)
    assert phi == Atom("=", (Fn("f", (Const("c"),)), Fn("f", (Const("d"),))))
    inferred, s3 = parse_inferring("f(c) = f(d) -> g(d, c) = c")
    assert s3.functions == {"f": 1, "g": 2}


def test_precedence_ladder():
    assert parse("p -> q | Q & p") == Imp(
        Atom("p"), Or(Atom("q"), And(Atom("Q"), Atom("p"))))
    assert parse("p & q -> Q | p") == Imp(
        And(Atom("p"), Atom("q")), Or(Atom("Q"), Atom("p")))
    # quantifier swallows the implication, parentheses stop it
    deep = parse("forall x. P(x) -> Q")
    assert isinstance(deep, Forall) and isinstance(deep.body, Imp)
    stopped = parse("(forall x. P(x)) -> Q")
    assert isinstance(stopped, Imp) and isinstance(stopped.left, Forall)
