import itertools
import json
import os
import random

import pytest

from bqlcd import bradyfp
from bqlcd.bradyfp import (
    ChainInvariantError, ChainState, SentenceUniverse, UniverseError,
    add_loop_and_verify, chain_model, detect_convergence, extend_chain,
    initial_chain, jump_to_fixpoint, make_universe, phi_operator,
    run_universe, satisfaction_record, tb_instance, truncate,
    universe_from_json, universe_to_json, verify_globally_decreasing,
    verify_monotonicity, verify_stagewise_domination,
)
from bqlcd.kripke import satisfies
from bqlcd.syntax import BOTTOM, box, pretty
from oracle import oracle_sat
from universes import (
    bottom_universe, curry_universe, tower_universe, truth_teller_top_universe,
)


# --- universe validation --------------------------------------------------------

def test_universe_roundtrip():
    u = curry_universe()
    assert universe_from_json(universe_to_json(u)) == u


def test_universe_requires_subformula_closure():
    with pytest.raises(UniverseError):
        make_universe(["T(q0) -> false"], {"T(q0) -> false": 0}, 1)


def test_universe_codes_injective_and_in_domain():
    with pytest.raises(UniverseError):
        make_universe(["true", "false"], {"true": 0, "false": 0}, 2)
    with pytest.raises(UniverseError):
        make_universe(["true"], {"true": 5}, 2)


def test_universe_rejects_ungrounded_truth_atom():
    # q7 denotes 7, but no sentence carries that code
    texts = ["true", "T(q7)"]
    with pytest.raises(UniverseError):
        make_universe(texts, {t: i for i, t in enumerate(texts)}, 8)


def test_universe_rejects_foreign_constants():
    with pytest.raises(UniverseError):
        make_universe(["true", "T(spam)"], {"true": 0, "T(spam)": 1}, 2)


# --- the jump --------------------------------------------------------------------

def test_phi_operator_truth_teller():
    u = truth_teller_top_universe()
    state = ChainState(u, (), ())
    assert phi_operator(state, 0, frozenset()) == {0}
    assert phi_operator(state, 0, frozenset({0})) == {0, 1}


def test_jump_truth_teller_trace():
    u = truth_teller_top_universe()
    tr = jump_to_fixpoint(ChainState(u, (), ()), 0)
    assert tr.stages == (frozenset(), frozenset({0}), frozenset({0, 1}))
    assert tr.fixed_point_stage == 2


def test_jump_bottom_universe():
    tr = jump_to_fixpoint(ChainState(bottom_universe(), (), ()), 0)
    assert tr.stages[-1] == frozenset()
    assert tr.fixed_point_stage == 0


def test_jump_curry_dead_end():
    u = curry_universe()
    tr = jump_to_fixpoint(ChainState(u, (), ()), 0)
    # conditionals hold vacuously at a dead end: truth, the conditional
    # sentence, and its truth-attribution all land in the extension
    assert tr.stages[-1] == {0, 2, 3}
    assert tr.fixed_point_stage <= len(u.sentences) + 1


def test_jump_stages_weakly_increase():
    for u in (curry_universe(), truth_teller_top_universe(), tower_universe(4)):
        tr = jump_to_fixpoint(ChainState(u, (), ()), 0)
        for a, b in zip(tr.stages, tr.stages[1:]):
            assert a <= b


def _data_universe(name):
    with open(os.path.join(os.path.dirname(__file__), "data", name)) as fh:
        return universe_from_json(json.load(fh))


def _quantified_universe():
    texts = ["true", "false", "T(q0)", "exists x. T(x)",
             "forall x. (T(x) | (T(x) -> false))"]
    return make_universe(texts, {t: i for i, t in enumerate(texts)}, 6)


@pytest.mark.parametrize("make", [
    lambda: _data_universe("curry_universe.json"),
    lambda: _data_universe("tower_universe.json"),
    lambda: _data_universe("truth_teller_universe.json"),
    lambda: tower_universe(2),
    lambda: tower_universe(3),
    lambda: tower_universe(4),
    _quantified_universe,
], ids=["curry", "tower_file", "truth_teller", "tower2", "tower3", "tower4",
        "quantified"])
def test_jump_matches_a_fresh_evaluator(make):
    # one jump object runs the residual pass over every subset at once and
    # then sees every candidate alone, in shuffled order and twice, so a
    # value kept from an earlier pass or candidate would show
    u = make()
    state, _ = detect_convergence(initial_chain(u), 4)
    codes = sorted(u.codes())
    subsets = [frozenset(c) for r in range(len(codes) + 1)
               for c in itertools.combinations(codes, r)]
    member = {c: sum(1 << j for j, x in enumerate(subsets) if c in x) for c in codes}
    rng = random.Random(len(codes))
    for alpha in range(state.depth + 2):
        jump = bradyfp._Jump(state, alpha)

        def fresh(x):
            model = chain_model(u, state.t_ext[:alpha] + (x,))
            return frozenset(u.code_of(s) for s in u.sentences
                             if oracle_sat(model, f"w{alpha}", s))

        masks = jump.residual(member, (1 << len(subsets)) - 1)
        for j, x in enumerate(subsets):
            assert jump.decode(masks, j) == fresh(x), (alpha, sorted(x))
        order = subsets * 2
        rng.shuffle(order)
        for x in order:
            assert jump(x) == fresh(x), (alpha, sorted(x))


def test_monotonicity_spot_checks():
    u = curry_universe()
    state = initial_chain(u)
    state = extend_chain(state)
    for alpha in range(state.depth + 1):
        assert verify_monotonicity(state, alpha)


@pytest.mark.parametrize("lattice_codes", [bradyfp._LATTICE_CODES, 2],
                         ids=["lattice", "pool"])
def test_monotonicity_check_can_fail(monkeypatch, lattice_codes):
    monkeypatch.setattr(bradyfp, "_LATTICE_CODES", lattice_codes)
    for h in (2, 3, 4):
        state, _ = detect_convergence(initial_chain(tower_universe(h)), h + 1)
        assert all(verify_monotonicity(state, a) for a in range(state.depth + 2))
    state = extend_chain(initial_chain(curry_universe()))
    real = bradyfp._Jump.residual

    def antitone(self, member, full):
        # T(q2) reads the complement of its member mask
        return real(self, {**member, 2: full & ~member.get(2, 0)}, full)

    monkeypatch.setattr(bradyfp._Jump, "residual", antitone)
    assert not any(verify_monotonicity(state, a) for a in range(state.depth + 2))


# --- chain growth -------------------------------------------------------------------

def test_extend_chain_curry():
    state = initial_chain(curry_universe())
    assert state.t_ext == (frozenset({0, 2, 3}),)
    state = extend_chain(state)
    # the conditional fails one level down: the world above verifies its
    # antecedent but not its consequent
    assert state.t_ext[1] == frozenset({0})
    state = extend_chain(state)
    assert state.t_ext[2] == frozenset({0})
    assert verify_globally_decreasing(state)


def test_bottom_universe_chain():
    state = initial_chain(bottom_universe())
    for _ in range(3):
        state = extend_chain(state)
    assert all(ext == frozenset() for ext in state.t_ext)


def test_stagewise_domination():
    state = initial_chain(curry_universe())
    state = extend_chain(state)
    state = extend_chain(state)
    for a in range(state.depth + 1):
        for b in range(a, state.depth + 1):
            assert verify_stagewise_domination(state, a, b)


def test_tower_pattern():
    height = 5
    state = initial_chain(tower_universe(height))
    for _ in range(height):
        state = extend_chain(state)
    model = chain_model(state.universe, state.t_ext)
    for n_ in range(height):
        assert satisfies(model, f"w{n_}", box(n_ + 1, BOTTOM)) is True
        assert satisfies(model, f"w{n_ + 1}", box(n_ + 1, BOTTOM)) is False


# --- convergence ----------------------------------------------------------------------

def test_truth_teller_converges_immediately():
    state = initial_chain(truth_teller_top_universe())
    state, res = detect_convergence(state, 4)
    assert res["stable"] and res["theta"] == 0


def test_curry_converges_at_depth_one():
    state = initial_chain(curry_universe())
    state, res = detect_convergence(state, 5)
    assert res["stable"] and res["theta"] == 1
    assert res["history"][1] == res["history"][2]
    assert res["history"][0] != res["history"][1]


def test_tower_does_not_converge_within_budget():
    state = initial_chain(tower_universe(5))
    state, res = detect_convergence(state, 5)
    assert res["stable"] is False and res["theta"] is None


# --- the loop -------------------------------------------------------------------------

def test_loop_truth_teller():
    state = initial_chain(truth_teller_top_universe())
    state, res = detect_convergence(state, 4)
    out = add_loop_and_verify(state, res["theta"])
    assert out["ok"], out["failures"]


def test_loop_curry_defused():
    u = curry_universe()
    state = initial_chain(u)
    state, res = detect_convergence(state, 5)
    out = add_loop_and_verify(state, res["theta"])
    assert out["ok"], out["failures"]
    model = out["model"]
    bottom = f"w{res['theta']}"
    assert (bottom, bottom) in model.edges
    curry_sentence = u.sentences[2]
    truth_atom = u.sentences[3]
    # both the paradoxical sentence and its truth attribution are false at
    # the loop, yet the biconditional linking them holds
    assert satisfies(model, bottom, curry_sentence) is False
    assert satisfies(model, bottom, truth_atom) is False
    assert satisfies(model, bottom, tb_instance(u, curry_sentence)) is True


def test_loop_requires_stabilisation():
    state = initial_chain(bottom_universe())
    with pytest.raises(ValueError):
        add_loop_and_verify(state, None)


# --- pipeline ---------------------------------------------------------------------------

def test_run_universe_curry_report():
    report = run_universe(curry_universe(), 5)
    assert report["stable"] and report["theta"] == 1
    assert report["checks"]["monotonicity"]
    assert report["checks"]["globally_decreasing"]
    assert report["checks"]["fixed_points_within_bound"]
    assert report["checks"]["loop_verified"]
    assert report["t_ext"]["w0"] == [0, 2, 3]
    assert report["t_ext"]["w1"] == [0]


def test_run_universe_tower_honest_failure():
    report = run_universe(tower_universe(5), 5)
    assert report["stable"] is False
    assert "loop" not in report
    assert report["checks"]["globally_decreasing"]


@pytest.mark.parametrize("name, depth", [("tower_universe.json", 5),
                                         ("curry_universe.json", 2)])
def test_run_universe_computes_each_fixed_point_once(monkeypatch, name, depth):
    calls = []
    real = bradyfp.jump_to_fixpoint

    def counting(state, alpha):
        calls.append(alpha)
        return real(state, alpha)

    monkeypatch.setattr(bradyfp, "jump_to_fixpoint", counting)
    report = run_universe(_data_universe(name), 5)
    assert report["depth"] == depth
    assert calls == list(range(depth + 1))


# --- quantified universes ----------------------------------------------------

def test_quantified_universe():
    # "everything is true" over a two-code domain: the universal needs both
    # codes in the extension, which never happens, so it stays out
    texts = ["true", "forall x. T(x)"]
    u = make_universe(texts, {t: i for i, t in enumerate(texts)}, 2)
    tr = jump_to_fixpoint(ChainState(u, (), ()), 0)
    assert tr.stages[-1] == {0}
    state = initial_chain(u)
    state, res = detect_convergence(state, 4)
    assert res["stable"]
    out = add_loop_and_verify(state, res["theta"])
    assert out["ok"], out["failures"]


def test_existential_universe_self_support():
    # "something is true" supports itself once truth of the truth-teller
    # enters: exists x. T(x) holds as soon as code 0 lands in the extension
    texts = ["true", "exists x. T(x)"]
    u = make_universe(texts, {t: i for i, t in enumerate(texts)}, 2)
    tr = jump_to_fixpoint(ChainState(u, (), ()), 0)
    assert tr.stages[-1] == {0, 1}
