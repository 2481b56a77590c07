import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from bqlcd import kripke
from bqlcd.kripke import (
    MODES, IntersectionConfigError, KripkeModel, ModelError, SearchBounds,
    add_chain, check_intersection_config, check_persistence, countermodel_search,
    entails_in_model, make_model, model_from_json, model_to_json,
    satisfies, validate_model, world_masks,
)
from bqlcd.proofgen import random_sentence
from bqlcd.syntax import (
    And, Atom, Const, Fn, Imp, Or, Param, TOP, BOTTOM, Var, box, free_vars,
    parse_inferring, pretty, sig, subformulas,
)
from oracle import oracle_sat, reference_search


def parse(text):
    return parse_inferring(text)[0]


# --- fixtures ----------------------------------------------------------------

def m1():
    # reflexive w sees irreflexive u; p turns true only at u, q nowhere
    return make_model(
        ["w", "u"], [("w", "w"), ("w", "u")], 1,
        rels={"p": {"u": {()}}, "q": {}},
        rel_arity={"p": 0, "q": 0},
    )


def test_m1_refutes_pseudo_modus_ponens():
    phi = parse("(p & (p -> q)) -> q")
    m = m1()
    assert oracle_sat(m, "w", phi) is False
    assert satisfies(m, "w", phi) is False
    assert satisfies(m, "u", parse("p & (p -> q)")) is True


def test_top_bottom_and_dead_ends():
    m = m1()
    for w in m.worlds:
        assert satisfies(m, w, TOP) is True
        assert satisfies(m, w, BOTTOM) is False
    # u is a dead end, every conditional holds there vacuously
    assert satisfies(m, "u", parse("p -> q")) is True
    assert satisfies(m, "u", parse("q -> false")) is True


def test_term_values_and_messages():
    # P holds of 1 only, so each atom shows what its term denotes
    m = make_model(["w"], [("w", "w")], 2,
                   consts={"c": 0, "#1": 1},
                   funs={"f": (1, 0)}, fun_arity={"f": 1},
                   rels={"P": {"w": {(1,)}}}, rel_arity={"P": 1})
    assert satisfies(m, "w", Atom("P", (Const("c"),))) is False
    assert satisfies(m, "w", Atom("P", (Fn("f", (Const("c"),)),))) is True
    assert satisfies(m, "w", Atom("P", (Param(1),))) is True
    assert satisfies(m, "w", Atom("P", (Var("x"),)), {"x": 1}) is True
    assert satisfies(m, "w", Atom("P", (Var("x"),)), {"x": 0}) is False
    with pytest.raises(ModelError, match="constant missing not interpreted"):
        satisfies(m, "w", Atom("P", (Const("missing"),)))
    with pytest.raises(ModelError, match="parameter #4 not interpreted"):
        satisfies(m, "w", Atom("P", (Param(4),)))
    # a relation the model does not interpret is false everywhere
    assert satisfies(m, "w", Atom("Q", (Const("c"),))) is False
    assert satisfies(m, "w", Imp(Atom("Q", (Const("c"),)), BOTTOM)) is True
    with pytest.raises(ModelError, match="unknown world 'v'"):
        satisfies(m, "v", TOP)


def test_open_formula_without_assignment():
    m = make_model(["w"], [("w", "w")], 2, rels={"P": {}}, rel_arity={"P": 1})
    with pytest.raises(ModelError, match="no assignment for variable x"):
        satisfies(m, "w", Atom("P", (Var("x"),)))


def test_entails_in_model():
    m = m1()
    assert entails_in_model(m, [parse("p"), parse("p -> q")], parse("q")) is True
    assert entails_in_model(m, [], TOP) is True
    assert entails_in_model(m, [], parse("(p & (p -> q)) -> q")) is False


def test_check_persistence_well_formed():
    m = m1()
    for text in ["p", "p -> q", "p | q", "p & (p -> q)"]:
        assert check_persistence(m, parse(text)) is True


def test_check_persistence_detects_broken_model():
    # validation bypassed: p true at w but false above it
    broken = KripkeModel(("w", "u"), frozenset([("w", "u")]), 1,
                         rels={"p": {"w": frozenset([()]), "u": frozenset()}},
                         rel_arity={"p": 0})
    assert check_persistence(broken, parse("p")) is False
    with pytest.raises(ModelError):
        validate_model(broken)


def test_validation_rejects_non_transitive():
    with pytest.raises(ModelError):
        make_model(["a", "b", "c"], [("a", "b"), ("b", "c")], 1)


def test_model_error_names_the_same_edge_under_any_hash_seed():
    # frozenset order of these two edges differs between hash seeds 0 and 1
    code = ("from bqlcd.kripke import ModelError, model_from_json\n"
            "try:\n"
            "    model_from_json({'worlds': ['w'], 'edges': [['w', 'a'], ['w', 'c']],"
            " 'domain': 1})\n"
            "except ModelError as exc:\n"
            "    print(exc)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONHASHSEED": seed,
                                            "PYTHONPATH": src}).stdout
            for seed in ("0", "1")}
    assert outs == {"edge (w,a) uses an unknown world\n"}


def test_an_extension_at_an_unknown_world_is_refused():
    # before, the model loaded and model_to_json dropped the extension at zz
    with pytest.raises(ModelError, match="relation p has an extension at the unknown world zz"):
        model_from_json({"worlds": ["w"], "domain": 1, "rels": {"p": {"w": [], "zz": [[]]}},
                         "rel_arity": {"p": 0}})


def test_model_json_roundtrip_and_closure():
    m = m1()
    again = model_from_json(model_to_json(m))
    assert again == m
    # loader closes edges transitively
    data = {"worlds": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]],
            "domain": 1, "rels": {}}
    closed = model_from_json(data)
    assert ("a", "c") in closed.edges
    # and rejects interpretations that break persistence after closure
    bad = {"worlds": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]],
           "domain": 1, "rels": {"p": {"a": [[]], "b": [[]], "c": []}},
           "rel_arity": {"p": 0}}
    with pytest.raises(ModelError):
        model_from_json(bad)


@pytest.mark.parametrize("identity", ["bogus", 3, None])
def test_model_json_rejects_an_unknown_identity_mode(identity):
    # '=' is the diagonal, which every identity mode would accept
    data = {**model_to_json(m1()), "identity": identity}
    data["rels"]["="], data["rel_arity"]["="] = {"w": [[0, 0]], "u": [[0, 0]]}, 2
    with pytest.raises(ModelError, match="identity must be absent, congruence or strict"):
        model_from_json(data)


# --- chains ------------------------------------------------------------------

def test_add_chain_box_refutation():
    # w does not satisfy p; two worlds below refute the double guard
    m = make_model(["w"], [], 1, rels={"p": {}}, rel_arity={"p": 0})
    chained = add_chain(m, "w", 2)
    validate_model(chained)
    p = parse("p")
    assert satisfies(chained, "u2", box(2, p)) is False
    assert oracle_sat(chained, "u2", box(2, p)) is False


def test_add_chain_shape_and_preservation():
    m = m1()
    chained = add_chain(m, "w", 1)
    assert len(chained.worlds) == 3
    new = chained.worlds[-1]
    assert (new, "w") in chained.edges and (new, "u") in chained.edges
    assert (new, new) not in chained.edges
    # satisfaction at original worlds is untouched
    for text in ["p", "p -> q", "(p & (p -> q)) -> q", "p | q"]:
        for w in m.worlds:
            assert satisfies(chained, w, parse(text)) == satisfies(m, w, parse(text))
    with pytest.raises(ValueError):
        add_chain(m, "w", 0)


def test_add_chain_bottom_guard_tower():
    # dead-end w0: guards of false hold there vacuously, and each chain world
    # strips one level
    m = make_model(["w0"], [], 1)
    d = 3
    chained = add_chain(m, "w0", d)
    worlds = ["w0"] + [f"u{i}" for i in range(1, d + 1)]
    for n, w in enumerate(worlds):
        assert satisfies(chained, w, box(n + 1, BOTTOM)) is True
        if n + 1 < len(worlds):
            assert satisfies(chained, worlds[n + 1], box(n + 1, BOTTOM)) is False


# --- intersection configurations ---------------------------------------------

def intersection_model():
    return make_model(
        ["w", "u"], [("w", "u"), ("u", "u")], 1,
        rels={"p": {"w": {()}, "u": {()}}, "q": {}},
        rel_arity={"p": 0, "q": 0},
    )


def test_intersection_minimal_config():
    m = intersection_model()
    for text in ["p", "q", "p -> q", "p & q", "true", "false", "(p -> q) -> q"]:
        assert check_intersection_config(m, "w", ["u"], parse(text)) is True


def test_intersection_rejects_banned_connectives():
    m = intersection_model()
    with pytest.raises(IntersectionConfigError):
        check_intersection_config(m, "w", ["u"], parse("p | q"))


def test_intersection_rejects_bad_config():
    # u irreflexive: condition (ii) fails and must raise, not return False
    m = make_model(["w", "u"], [("w", "u")], 1,
                   rels={"p": {"w": {()}, "u": {()}}}, rel_arity={"p": 0})
    with pytest.raises(IntersectionConfigError):
        check_intersection_config(m, "w", ["u"], parse("p"))


def test_intersection_two_members():
    # w sees two reflexive worlds; p's extension at w is the intersection
    m = make_model(
        ["w", "u1", "u2"],
        [("w", "u1"), ("w", "u2"), ("u1", "u1"), ("u2", "u2")], 1,
        rels={"p": {"u1": {()}, "u2": set()},
              "q": {"u1": {()}, "u2": {()}, "w": {()}}},
        rel_arity={"p": 0, "q": 0},
    )
    for text in ["p", "q", "p -> q", "q -> p", "p & q"]:
        assert check_intersection_config(m, "w", ["u1", "u2"], parse(text)) is True


# --- countermodel search -------------------------------------------------------

def test_search_refutes_pseudo_modus_ponens():
    res = countermodel_search([], parse("(p & (p -> q)) -> q"),
                              SearchBounds(2, 1), mode="bqlcd_r")
    assert res.found
    assert satisfies(res.model, res.witness, parse("(p & (p -> q)) -> q")) is False
    assert (res.witness, res.witness) in res.model.edges


def test_search_finds_nothing_for_weakening():
    res = countermodel_search([], parse("p -> (q -> p)"), SearchBounds(3, 2))
    assert not res.found and res.exhausted


def test_search_finds_nothing_for_modus_ponens_sequent():
    res = countermodel_search([parse("p & (p -> q)")], parse("q"), SearchBounds(3, 2))
    assert not res.found


def test_search_transitivity_axiom_valid():
    phi = parse("(p -> q) & (q -> r) -> (p -> r)")
    res = countermodel_search([], phi, SearchBounds(3, 2))
    assert not res.found


def test_search_bqlcd_mode_refutes_identity_conditional():
    # without the reflexive-root restriction even p -> p gets refuted at an
    # irreflexive world?  no: p -> p holds everywhere.  but modus ponens as a
    # sequent fails at irreflexive worlds
    res = countermodel_search([parse("p"), parse("p -> q")], parse("q"),
                              SearchBounds(2, 1), mode="bqlcd")
    assert res.found
    w = res.witness
    assert (w, w) not in res.model.edges


def test_search_identity_modes():
    phi = parse("c = d | (c = d -> false)")
    strict = countermodel_search([], phi, SearchBounds(3, 2), mode="strict")
    assert not strict.found
    cong = countermodel_search([], phi, SearchBounds(2, 2), mode="congruence")
    assert cong.found
    assert satisfies(cong.model, cong.witness, phi) is False
    validate_model(cong.model)


def test_search_skips_huge_function_tables_with_note():
    # the valid conclusion forces exhaustion; the ternary function has too
    # many tables over a three-element domain, which is skipped and noted
    phi = parse("P(g(c, c, c)) -> P(g(c, c, c))")
    res = countermodel_search([], phi, SearchBounds(1, 3))
    assert not res.found
    assert any("g" in note for note in res.notes)


def test_search_skips_huge_relation_spaces_with_note():
    # a ternary relation over three elements has 2 ** 27 interpretations on
    # one world; the space is skipped and noted instead of built
    phi = parse("forall x. forall y. forall z. R(x, y, z)")
    res = countermodel_search([phi], phi, SearchBounds(1, 3))
    assert not res.found
    assert f"skipped k=1 m=3: relation R has {2 ** 27} interpretations" in res.notes


def test_search_skips_huge_joint_relation_spaces_with_note():
    # each binary relation over three elements has 2 ** 9 interpretations on
    # one world, under the cap alone; the three together have 2 ** 27
    phi = parse("forall x. forall y. R(x, y) & S(x, y) & U(x, y)")
    res = countermodel_search([phi], phi, SearchBounds(2, 3))
    assert not res.found and res.exhausted
    assert (f"skipped k=1 m=3: {2 ** 27} interpretations of the relations and "
            f"functions together") in res.notes


def test_search_deterministic():
    phi = parse("(p & (p -> q)) -> q")
    a = countermodel_search([], phi, SearchBounds(2, 2))
    b = countermodel_search([], phi, SearchBounds(2, 2))
    assert a.model == b.model and a.witness == b.witness


def _pruning_cases():
    """Seeded random sequents in every mode, plus two-constant sequents whose
    countermodels need distinct denotations."""
    cases = [([], "c = d", "strict"), ([], "c = d | (c = d -> false)", "congruence"),
             ([], "R(c, d) -> R(d, c)", "congruence"), (["P(d)"], "P(c)", "bqlcd_r"),
             (["P(d)"], "P(c)", "bqlcd")]
    for i, mode in enumerate(MODES):
        rng = random.Random(500 + i)
        for _ in range(12):
            prem = [pretty(random_sentence(rng, 3)) for _ in range(rng.randrange(3))]
            cases.append((prem, pretty(random_sentence(rng, 3)), mode))
    return cases


def test_found_countermodels_obey_the_pruning_rules():
    found = 0
    for prem, concl, mode in _pruning_cases():
        for bounds in (SearchBounds(2, 2), SearchBounds(3, 1)):
            res = countermodel_search([parse(f) for f in prem], parse(concl), bounds, mode)
            if not res.found:
                continue
            found += 1
            model, w = res.model, res.witness
            assert all(oracle_sat(model, w, parse(f)) for f in prem)
            assert not oracle_sat(model, w, parse(concl))
            assert all((w, u) in model.edges for u in model.worlds if u != w)
            if mode != "bqlcd":
                assert (w, w) in model.edges
            # only named constants occur, so search order is name order
            if model.consts and model.domain_size >= 2:
                assert model.consts[min(model.consts)] == 0
    assert found >= 40


def test_search_stats_count_rooted_frames_and_constant_vectors():
    # valid, so the search exhausts (1, 2): one frame of 1 world has a
    # reflexive root, and with c fixed to 0 only d varies over the domain
    res = countermodel_search([], parse("(forall x. P(x)) -> P(c) & P(d)"),
                              SearchBounds(1, 2))
    assert not res.found
    stats = res.stats
    assert (stats["frames"], stats["frames_unrooted"]) == (2, 2)
    assert stats["const_vectors"] == 1 + 2
    assert stats["interpretations"] > 0
    # at 3 worlds, 11 of the 39 frames have a reflexive root and 19 a root
    for mode, frames in (("bqlcd_r", 1 + 3 + 11), ("bqlcd", 2 + 5 + 19)):
        res = countermodel_search([], parse("p -> p"), SearchBounds(3, 1), mode)
        assert res.stats["frames"] + res.stats["frames_unrooted"] == 2 + 8 + 39
        assert res.stats["frames"] == frames


def _differential_cases():
    """Seeded random sequents in every mode with their bounds; sequents
    whose congruence conditions reject interpretations: of functions, binary
    relations and unary ones, and of both relations under a quantifier; and
    two found cases picked with the reference loop."""
    cases = [
        # the first frame of cell (2, 2) is refuted only under the third
        # function table, f(c) != c, and the next frame of the cell, which
        # shares its block, already under the first
        (["P(c)"], "(forall x. (P(x) | (P(x) -> (true -> false))))"
         " & ((true -> P(f(c))) -> P(f(c)))", "bqlcd_r", (2, 2)),
        # every frame of cell (2, 2) is skipped, before a model at (3, 1)
        ([], "(q | (q -> (p | (p -> false)))) | (T(c, d, c, d) & r)", "bqlcd_r", (3, 2)),
        (["P(c)"], "P(d)", "congruence", (2, 2)),
        ([], "f(c) = c | (f(c) = c -> false)", "congruence", (2, 2)),
        (["R(c, d)"], "R(d, c)", "congruence", (2, 2)),
        (["forall x. (R(x, c) -> P(x))", "R(d, c)"], "P(d)", "congruence", (2, 2)),
        ([], "c = d | (c = d -> false)", "congruence", (3, 2)),
        ([], "c = d | (c = d -> false)", "strict", (3, 2))]
    for i, mode in enumerate(MODES):
        rng = random.Random(700 + i)
        for _ in range(10):
            prem = [pretty(random_sentence(rng, 3)) for _ in range(rng.randrange(3))]
            cases.append((prem, pretty(random_sentence(rng, 3)), mode,
                          rng.choice([(2, 2), (3, 1), (3, 2)])))
    return cases


@pytest.mark.parametrize("lanes", [kripke._LANES, 64, 3])
def test_lane_search_matches_the_reference_loop(monkeypatch, lanes):
    # at 64 lanes a block holds some frames of a cell but not all; at 3
    # most frames take several blocks, and the identity digit of a 3-world
    # frame has more values than a block has lanes
    monkeypatch.setattr(kripke, "_LANES", lanes)
    found = later = 0
    for prem, concl, mode, bounds in _differential_cases():
        gamma, phi = [parse(f) for f in prem], parse(concl)
        got = countermodel_search(gamma, phi, SearchBounds(*bounds), mode)
        want = reference_search(gamma, phi, SearchBounds(*bounds), mode)
        case = (prem, concl, mode, bounds)
        assert (got.found, got.exhausted, got.witness, got.notes) == \
            (want.found, want.exhausted, want.witness, want.notes), case
        if got.found:
            assert model_to_json(got.model) == model_to_json(want.model), case
        assert got.stats.pop("passes") > 0
        assert got.stats == {k: v for k, v in want.stats.items() if k != "passes"}, case
        found += got.found
        later += got.found and got.stats["interpretations"] > lanes
    assert found >= 15
    assert lanes > 3 or later >= 10


def test_cell_plans_leave_results_unchanged(monkeypatch):
    # plans are shared by searches and keyed on the lane count, so a warm
    # cache, or one filled at another lane count, gives what a cold one does
    assert kripke._cell_plan.cache_info().maxsize is not None

    def results():
        out = []
        for prem, concl, mode, bounds in _differential_cases():
            res = countermodel_search([parse(f) for f in prem], parse(concl),
                                      SearchBounds(*bounds), mode)
            out.append((res.found, res.exhausted, res.witness, res.notes,
                        res.found and model_to_json(res.model), res.stats))
        return out

    kripke._cell_plan.cache_clear()
    cold = results()
    assert results() == cold
    assert kripke._cell_plan.cache_info().hits > 0
    monkeypatch.setattr(kripke, "_LANES", 3)
    after = results()
    kripke._cell_plan.cache_clear()
    assert results() == after
    # only the number of passes depends on the lanes
    for one, other in zip(cold, after):
        assert one[:5] == other[:5]
        assert {**one[5], "passes": 0} == {**other[5], "passes": 0}


@pytest.mark.parametrize("lanes", [1, 3, 16])
def test_lane_layout_enumerates_the_product_in_order(lanes):
    for radices in ([], [5], [2, 3], [4, 1, 7], [3, 3, 3], [17, 2], [2, 2, 2, 2, 2]):
        block, layout = kripke._lane_layout(radices, lanes)
        assert block <= lanes
        seen = []
        for qs in itertools.product(*(range(-(-r // chunk))
                                      for r, (_, chunk) in zip(radices, layout))):
            for lane in range(block):
                digits = tuple(q * chunk + lane // stride % chunk
                               for q, (stride, chunk) in zip(qs, layout))
                if all(d < r for d, r in zip(digits, radices)):
                    seen.append(digits)
        assert seen == list(itertools.product(*map(range, radices)))


def test_search_result_equality_ignores_stats():
    a = countermodel_search([], parse("p -> p"), SearchBounds(1, 1))
    b = countermodel_search([], parse("p -> p"), SearchBounds(1, 1))
    b.stats = {}
    assert a.stats and a == b


# --- random persistence property ----------------------------------------------

@st.composite
def random_models(draw, max_worlds=4, max_domain=3):
    k = draw(st.integers(1, max_worlds))
    worlds = [f"w{i}" for i in range(k)]
    pairs = [(a, b) for a in worlds for b in worlds]
    edges = set()
    for p in pairs:
        if draw(st.booleans()):
            edges.add(p)
    # transitive closure
    changed = True
    while changed:
        changed = False
        for (a, b) in list(edges):
            for (c, d) in list(edges):
                if b == c and (a, d) not in edges:
                    edges.add((a, d))
                    changed = True
    m = draw(st.integers(1, max_domain))
    rels = {}
    for name, ar in (("p", 0), ("P", 1)):
        per = {}
        for w in worlds:
            tuples = set()
            for t in itertools.product(range(m), repeat=ar):
                if draw(st.booleans()):
                    tuples.add(t)
            per[w] = tuples
        # persist upward
        changed = True
        while changed:
            changed = False
            for (a, b) in edges:
                if not per[a] <= per[b]:
                    per[b] = per[b] | per[a]
                    changed = True
        rels[name] = per
    consts = {"c": draw(st.integers(0, m - 1))}
    return make_model(worlds, edges, m, consts=consts, rels=rels,
                      rel_arity={"p": 0, "P": 1})


def sentences(max_depth=5):
    atoms = st.sampled_from([Atom("p"), Atom("P", (Const("c"),)), TOP, BOTTOM])
    open_atoms = st.sampled_from([Atom("P", (Var("x"),)), Atom("p")])

    def extend(children):
        from bqlcd.syntax import Forall, Exists
        return st.one_of(
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Imp, children, children),
            st.builds(lambda b: Forall("x", b), st.one_of(children, open_atoms)),
            st.builds(lambda b: Exists("x", b), st.one_of(children, open_atoms)),
        )

    return st.recursive(atoms, extend, max_leaves=2 ** max_depth)


@settings(max_examples=120, deadline=None)
@given(random_models(), sentences())
def test_persistence_theorem(model, phi):
    if free_vars(phi):
        return
    (mask,) = world_masks(model, [phi])
    bit = {w: 1 << i for i, w in enumerate(model.worlds)}
    for (w, u) in model.edges:
        assert not mask & bit[w] or mask & bit[u]


@settings(max_examples=60, deadline=None)
@given(random_models(), sentences(), sentences())
def test_modus_ponens_at_reflexive_worlds(model, phi, psi):
    if free_vars(phi) or free_vars(psi):
        return
    masks = world_masks(model, [phi, Imp(phi, psi), psi])
    for w in model.reflexive_worlds():
        i = model.worlds.index(w)
        if masks[0] >> i & 1 and masks[1] >> i & 1:
            assert masks[2] >> i & 1


@settings(max_examples=60, deadline=None)
@given(random_models(), sentences())
def test_world_masks_match_oracle(model, phi):
    # open formulas too, under every assignment of their free variables
    fvs = sorted(free_vars(phi))
    for combo in itertools.product(range(model.domain_size), repeat=len(fvs)):
        asg = dict(zip(fvs, combo))
        (mask,) = world_masks(model, [phi], asg)
        for i, w in enumerate(model.worlds):
            assert bool(mask >> i & 1) == oracle_sat(model, w, phi, asg)


@st.composite
def lane_packs(draw):
    """A random frame on at most 4 worlds, where the last world may see
    nothing, a domain of at most 2 elements, a value for c, and L persistent
    interpretations of p and P on that frame, L in {1, 3, 7, 64}."""
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    dead_end = draw(st.booleans())
    edges = {(a, b) for a in range(k) for b in range(k)
             if not (dead_end and a == k - 1) and draw(st.booleans())}
    worlds = [f"w{a}" for a in range(k)]
    edges = kripke.transitive_closure({(worlds[a], worlds[b]) for a, b in edges}, worlds)
    c = draw(st.integers(0, m - 1))
    lanes = draw(st.sampled_from([1, 3, 7, 64]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    models = []
    for _ in range(lanes):
        rels = {}
        for name, ar in (("p", 0), ("P", 1)):
            per = {w: set() for w in worlds}
            for t in itertools.product(range(m), repeat=ar):
                for w in worlds:
                    if rng.random() < 0.3:
                        per[w].add(t)
                        for (x, u) in edges:
                            if x == w:
                                per[u].add(t)
            rels[name] = per
        models.append(make_model(worlds, edges, m, consts={"c": c}, rels=rels,
                                 rel_arity={"p": 0, "P": 1}))
    return models


@settings(max_examples=80, deadline=None)
@given(lane_packs(), sentences())
def test_lane_packed_evaluation_matches_oracle(models, phi):
    # every subformula, open ones under every assignment, in one pass each
    assume(not free_vars(phi))
    first, lanes = models[0], len(models)
    k, m, width = len(first.worlds), first.domain_size, len(first.worlds) + 1
    bit = {w: 1 << a for a, w in enumerate(first.worlds)}
    interp = tuple(
        tuple(sum(bit[w] << lane * width for lane, model in enumerate(models)
                  for w in first.worlds if t in model.rels[r][w])
              for t in itertools.product(range(m), repeat=ar))
        for r, ar in (("p", 0), ("P", 1)))
    subs = sorted(set(subformulas(phi)), key=pretty)
    runs, set_frame, _ = kripke._compile_sequent(subs, {"p": 0, "P": 1}, {"c": 0}, {})
    full = kripke._repeat(1, width, lanes)
    set_frame(m, tuple((sum(bit[u] for u in first.successors(w)) * full, bit[w] * full, bit[w])
                       for w in first.worlds), (((1 << k) - 1) * full, full << k, k))
    for sub, run in zip(subs, runs):
        fvs = sorted(free_vars(sub))
        for combo in itertools.product(range(m), repeat=len(fvs)):
            env = tuple(zip(fvs, combo))
            mask = run(interp, (first.consts["c"],), (), env)
            assert mask >> lanes * width == 0
            for lane, model in enumerate(models):
                assert not mask >> lane * width + k & 1
                for a, w in enumerate(model.worlds):
                    assert bool(mask >> lane * width + a & 1) == \
                        oracle_sat(model, w, sub, dict(env)), (pretty(sub), env, lane, w)


def test_compiled_closures_are_pure():
    # the frame is set once; each mask then depends only on the arguments of
    # its call, not on the constants or function tables of earlier calls
    imp, quant = parse("true -> P(c)"), parse("forall x. (true -> P(f(x)))")
    runs, set_frame, _ = kripke._compile_sequent([imp, quant], {"P": 0}, {"c": 0}, {"f": 0})
    set_frame(2, ((1, 1),))  # one reflexive world
    interp = ((0, 1),)  # P holds of element 1 only

    def model(c, table):
        return make_model(["w"], [("w", "w")], 2, consts={"c": c}, funs={"f": table},
                          fun_arity={"f": 1}, rels={"P": {"w": {(1,)}}}, rel_arity={"P": 1})

    for c in range(2):
        assert runs[0](interp, (c,), ((0, 0),), ()) == oracle_sat(model(c, (0, 0)), "w", imp)
    for table in itertools.product(range(2), repeat=2):
        assert runs[1](interp, (0,), (table,), ()) == oracle_sat(model(0, table), "w", quant)
