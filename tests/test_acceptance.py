"""Acceptance battery: one test per criterion, each printing a PASS line."""

import random
import time
from collections import Counter

from bqlcd.kripke import (
    SearchBounds, add_chain, check_intersection_config, countermodel_search,
    make_model, satisfies, validate_model,
)
from bqlcd.proofgen import (
    axiomatic_corpus, closed_theorem_corpus, generate_corpus,
    random_intersection_config, random_or_exists_free_sentence,
)
from bqlcd.proofkernel import (
    check_proof, open_assumptions, stratum, unsafe_leaves,
)
from bqlcd.syntax import Imp, big_conj, box, pretty
from bqlcd.transform import nd_to_axiomatic, axiomatic_to_nd, reduce_proof, unbox
from bqlcd.bradyfp import (
    add_loop_and_verify, chain_model, detect_convergence, initial_chain,
    run_universe,
)
from proofcases import curry_derivation, display_one, display_two, f, \
    nested_stratum_example
from universes import curry_universe, tower_universe


def ok(num, desc):
    print(f"PASS criterion {num}: {desc}")


def test_criterion_1_curry_rejection():
    t0 = time.perf_counter()
    report = check_proof(curry_derivation(), "nbqlcd_r")
    elapsed = time.perf_counter() - t0
    assert not report.valid
    assert {v.constraint for v in report.violations} == {"C5"}
    # the failing nodes are exactly the conditional-proof steps that try to
    # discharge the starred occurrence inside the right premise of the
    # detachment below them
    assert {v.node for v in report.violations} == {"r.0.0", "r.1"}
    for v in report.violations:
        assert "star" in v.message
    assert elapsed < 1.0
    ok(1, f"the paradox derivation fails with only C5 violations "
          f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_unsafe_occurrence_oracle():
    one, two = display_one(), display_two()
    assert check_proof(one, "nbqlcd_r").valid
    assert check_proof(two, "nbqlcd_r").valid
    assert unsafe_leaves(one) == {"l2"}
    assert unsafe_leaves(two) == {"l2", "l3"}
    ok(2, "both displayed examples report exactly the conditional-premise "
          "occurrences as unsafe")


def test_criterion_3_stratum():
    t = nested_stratum_example()
    assert stratum(t) == 1
    assert not check_proof(t, "nbqlcd[0]").valid
    for n in (1, 2, 5):
        assert check_proof(t, f"nbqlcd[{n}]").valid
    ok(3, "the nested example sits at stratum 1 exactly")


def test_criterion_4_reduction_theorem():
    t0 = time.perf_counter()
    corpus = generate_corpus(seed=0, size=200)
    assert len(corpus) >= 200
    for i, t in enumerate(corpus):
        s = stratum(t)
        red = reduce_proof(t)
        assert red.n == (s + 1 if s >= 0 else 0), i
        assert red.proof.conclusion == box(red.n, t.conclusion), i
        assert check_proof(red.proof, "nbqlcd").valid, i
        assert set(open_assumptions(red.proof)) <= set(open_assumptions(t)), i
        back = unbox(red.proof, red.n)
        assert back.conclusion == t.conclusion, i
        assert check_proof(back, "nbqlcd_r").valid, i
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    ok(4, f"{len(corpus)} random proofs reduced, re-checked and unboxed "
          f"({elapsed:.1f} s)")


def test_criterion_5_semantic_counterexample():
    t0 = time.perf_counter()
    res = countermodel_search([], f("(p & (p -> q)) -> q"), SearchBounds(2, 1))
    elapsed = time.perf_counter() - t0
    assert res.found and elapsed < 1.0
    assert len(res.model.worlds) <= 2 and res.model.domain_size == 1
    assert satisfies(res.model, res.witness, f("(p & (p -> q)) -> q")) is False

    for premises, conclusion in [
        ([f("p & (p -> q)")], f("q")),
        ([], f("p -> (q -> p)")),
        ([], f("(p -> q) & (q -> r) -> (p -> r)")),
    ]:
        out = countermodel_search(premises, conclusion, SearchBounds(3, 2))
        assert not out.found and out.exhausted, pretty(conclusion)
    ok(5, "pseudo detachment refuted on two worlds; detachment, weakening "
          "and transitivity survive the bounded search")


def test_criterion_6_soundness_battery():
    corpus = generate_corpus(seed=0, size=200)
    eligible = [t for t in corpus if len(open_assumptions(t)) <= 3]
    t0 = time.perf_counter()
    violations = 0
    counters = Counter()
    for t in eligible:
        res = countermodel_search(sorted(open_assumptions(t), key=pretty),
                                  t.conclusion, SearchBounds(3, 2))
        if res.found:
            violations += 1
        counters.update(res.stats)
    elapsed = time.perf_counter() - t0
    assert violations == 0
    # every interpretation in the bounds is decided once: a lane counted
    # twice or skipped changes the sum
    assert (counters["frames"], counters["frames_unrooted"], counters["const_vectors"],
            counters["interpretations"]) == (4995, 11322, 5115, 536785)
    ok(6, f"no countermodel against any of {len(eligible)} checked sequents "
          f"({elapsed:.0f} s)")


def test_criterion_7_theorem_equivalence():
    theorems = closed_theorem_corpus()
    assert len(theorems) == 20
    for t in theorems:
        assert check_proof(t, "nbqlcd_r").valid
        assert not open_assumptions(t)
        red = reduce_proof(t)
        assert check_proof(red.proof, "nbqlcd").valid
        assert red.proof.conclusion == box(red.n, t.conclusion)
        assert not open_assumptions(red.proof)

    base = make_model(["w0"], [], 1, rels={"p": {}}, rel_arity={"p": 0})
    for n in (1, 2, 3):
        chained = add_chain(base, "w0", n)
        validate_model(chained)
        assert satisfies(chained, f"u{n}", box(n, f("p"))) is False

    # theoremhood transfer: the same sentences survive the search that
    # admits irreflexive witness worlds
    for t in theorems:
        res = countermodel_search([], t.conclusion, SearchBounds(3, 2),
                                  mode="bqlcd")
        assert not res.found, pretty(t.conclusion)
    ok(7, "20 closed theorems reduce guard-free and stand without the "
          "reflexive-root restriction; the chain refutes each guard depth "
          "of a non-theorem")


def test_criterion_8_identity():
    t0 = time.perf_counter()
    phi = f("c = d | (c = d -> false)")
    strict = countermodel_search([], phi, SearchBounds(3, 2), mode="strict")
    assert not strict.found and strict.exhausted
    cong = countermodel_search([], phi, SearchBounds(2, 2), mode="congruence")
    assert cong.found
    validate_model(cong.model)
    assert satisfies(cong.model, cong.witness, phi) is False
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    ok(8, f"identity excluded middle: no strict countermodel, congruence "
          f"countermodel found ({elapsed * 1000:.0f} ms)")


def test_criterion_9_truth_construction():
    t0 = time.perf_counter()
    u = curry_universe()
    report = run_universe(u, 5)
    assert report["stable"] and report["theta"] == 1
    assert report["checks"]["monotonicity"]
    assert report["checks"]["locally_increasing"]
    assert report["checks"]["globally_decreasing"]
    assert report["checks"]["fixed_points_within_bound"]
    assert report["checks"]["closure"]
    assert report["checks"]["loop_verified"]
    assert report["loop"]["ok"]

    # the biconditional for the paradoxical sentence itself holds at the loop
    from bqlcd.bradyfp import extend_chain, tb_instance
    state9 = extend_chain(initial_chain(u))
    looped = chain_model(u, state9.t_ext, loop=True)
    assert satisfies(looped, "w1", tb_instance(u, u.sentences[2])) is True
    assert satisfies(looped, "w1", u.sentences[2]) is False

    tower = tower_universe(5)
    state = initial_chain(tower)
    state, conv = detect_convergence(state, 5)
    assert conv["stable"] is False
    model = chain_model(tower, state.t_ext)
    from bqlcd.syntax import BOTTOM
    for n in range(5):
        assert satisfies(model, f"w{n}", box(n + 1, BOTTOM)) is True
        if n + 1 <= state.depth:
            assert satisfies(model, f"w{n + 1}", box(n + 1, BOTTOM)) is False
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    ok(9, f"paradox universe verified through the loop; the guard tower "
          f"honestly refuses to settle ({elapsed:.1f} s)")


def test_criterion_10_intersection_lemma():
    rng = random.Random(0)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(500):
        model, w, us = random_intersection_config(rng)
        for _ in range(12):
            phi = random_or_exists_free_sentence(rng, depth=3)
            assert check_intersection_config(model, w, us, phi) is True
            checked += 1
    elapsed = time.perf_counter() - t0
    ok(10, f"biconditional held in {checked}/{checked} sampled cases over "
           f"500 configurations ({elapsed:.1f} s)")


def test_criterion_11_translation_roundtrip():
    corpus = axiomatic_corpus()
    assert len(corpus) == 20
    for i, t in enumerate(corpus):
        assert check_proof(t, "tjkd+").valid, i
        nd_proof = axiomatic_to_nd(t)
        assert check_proof(nd_proof, "nbqlcd_r").valid, i
        assert nd_proof.conclusion == t.conclusion, i
        red = reduce_proof(nd_proof)
        gamma0 = sorted(open_assumptions(red.proof), key=pretty)
        back = nd_to_axiomatic(red.proof, gamma0)
        assert check_proof(back, "tjk+").valid, i
        assert back.conclusion == Imp(big_conj(gamma0),
                                      box(red.n, t.conclusion)), i
    ok(11, "all 20 axiomatic proofs translate, reduce and compile back")
