"""Property-style batteries over the generated corpus."""

import hashlib
import json
import random

import pytest

from bqlcd.kripke import SearchBounds, countermodel_search
from bqlcd.proofgen import axiomatic_corpus, closed_theorem_corpus, generate_corpus
from bqlcd.proofkernel import (
    Judgment, assume, check_judgment, check_proof, node, open_assumptions,
    proof_from_json, proof_to_json, proofs_equal, rename_eigenvariables,
    split_assumptions, stratum,
)
from bqlcd.syntax import Imp, big_conj, box, parameters_of, pretty
from bqlcd.transform import reduce_proof, relative_deduction, unbox
from proofcases import f


def test_relative_deduction_on_arbitrary_splits():
    """The deduction rewrite honours any admissible context split, not just
    the everything-unsafe one the reducer uses."""
    corpus = generate_corpus(seed=8, size=120)
    rng = random.Random(8)
    exercised = 0
    for t in corpus:
        s = stratum(t)
        if s < 0:
            continue
        unsafe, safe = split_assumptions(t)
        safe_list = sorted(safe, key=pretty)
        # route a random prefix of the safe assumptions through the side
        # context, everything else through the unsafe one
        rng.shuffle(safe_list)
        cut = rng.randrange(len(safe_list) + 1)
        sigma = safe_list[:cut]
        gamma = set(unsafe) | set(safe_list[cut:])
        n = s + rng.randrange(2)
        ok, _ = check_judgment(Judgment(tuple(gamma), tuple(sigma), n,
                                        t.conclusion), t)
        assert ok
        out = relative_deduction(t, gamma, sigma, n)
        assert out.conclusion == box(n, Imp(big_conj(sigma), t.conclusion))
        report = check_proof(out, "nbqlcd")
        assert report.valid, [v.__dict__ for v in report.violations][:3]
        assert set(open_assumptions(out)) <= gamma
        exercised += 1
    assert exercised >= 30


def test_reduction_with_identity_rules():
    eq = node("eq_int", f("c = c"))
    guard = assume(f("c = c -> P(c)"), "g")
    t = node("imp_elim", f("P(c)"), [eq, guard])
    assert check_proof(t, "nbqlcd_r+eq").valid
    red = reduce_proof(t, identity="congruence")
    assert red.n == 1
    assert check_proof(red.proof, "nbqlcd+eq").valid
    back = unbox(red.proof, 1)
    assert check_proof(back, "nbqlcd_r+eq").valid
    subst = node("eq_elim", f("P(d)"),
                 [assume(f("c = d"), "x"), assume(f("P(c)"), "y")])
    red2 = reduce_proof(subst, identity="congruence")
    assert red2.n == 0 and red2.proof == subst


def test_congruence_respects_functions():
    # identified arguments give identified values under every function, so
    # the conditional is search-valid over congruence models but refutable
    # when identity is an ordinary relation
    phi = f("c = d -> f(c) = f(d)")
    cong = countermodel_search([], phi, SearchBounds(2, 2), mode="congruence")
    assert not cong.found
    plain = countermodel_search([], phi, SearchBounds(2, 2), mode="bqlcd_r")
    assert plain.found


def test_rename_exists_elim_witness():
    ex = assume(f("exists x. P(x)"), "e")
    wit = assume(f("P(#3)"), "w")
    body = node("exists_int", f("exists y. P(y)"), [wit])
    t = node("exists_elim", f("exists y. P(y)"), [ex, body], {"w"})
    out = rename_eigenvariables(t, {3})
    assert check_proof(out, "nbqlcd_r").valid
    assert 3 not in parameters_of(out)
    assert out.conclusion == t.conclusion


def test_corpus_serialization_roundtrip():
    corpus = generate_corpus(seed=9, size=40)
    for t in corpus:
        blob = json.dumps(proof_to_json(t))
        again = proof_from_json(json.loads(blob))
        assert proofs_equal(t, again)
        r1 = check_proof(t, "nbqlcd_r")
        r2 = check_proof(again, "nbqlcd_r")
        assert r1.valid and r2.valid
        assert r1.stratum == r2.stratum


def test_cli_countermodel_accepts_parameters(capsys):
    from bqlcd.cli import main
    code = main(["countermodel", "--premises", "P(#0)", "P(#0) -> q",
                 "--conclusion", "q", "--max-worlds", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["found"] is False


def test_deep_stratum_reduction():
    # hand-built stratum-3 proof: each layer feeds a freshly discharged
    # conditional into a new detachment
    from bqlcd.syntax import TOP
    g1 = assume(f("true -> (p -> q)"), "g1")
    d1 = node("imp_elim", f("p -> q"), [node("top_int", TOP), g1])
    d2 = node("imp_elim", f("q"), [assume(f("p"), "h1"), d1])
    i1 = node("imp_int", f("r -> q"), [d2])
    d3 = node("imp_elim", f("q"), [assume(f("r"), "h2"), i1])
    i2 = node("imp_int", f("s -> q"), [d3])
    d4 = node("imp_elim", f("q"), [assume(f("s"), "h3"), i2])
    assert stratum(d4) == 3
    assert check_proof(d4, "nbqlcd_r").valid
    red = reduce_proof(d4)
    assert red.n == 4
    assert check_proof(red.proof, "nbqlcd").valid
    back = unbox(red.proof, 4)
    assert back.conclusion == f("q")
    assert check_proof(back, "nbqlcd_r").valid


def test_discharge_before_detachment_is_legal():
    """Unsafety is positional over the whole tree, but only detachments
    below the discharging node block a discharge: closing the assumption
    first and then feeding the conditional into a detachment is fine."""
    from bqlcd.proofkernel import unsafe_leaves
    inner = node("imp_int", f("p -> p"), [assume(f("p"), "d")], {"d"})
    outer = node("imp_elim", f("p"), [assume(f("p"), "m"), inner])
    assert check_proof(outer, "nbqlcd_r").valid
    assert unsafe_leaves(outer) == {"d"}
    unsafe, safe = split_assumptions(outer)
    assert unsafe == frozenset() and safe == {f("p")}


def test_embedding_follows_displayed_shape():
    from bqlcd.transform import derive_forall_embedding
    from proofcases import fo
    t = derive_forall_embedding(2, "x", fo("P(x)"))
    assert t.rule == "int_trans"
    assert t.children[0].rule == "int_forall_int"
    assert t.children[1].rule == "imp_int"
    assert t.children[1].children[0].rule == "int_trans"


def test_convergence_point_is_genuinely_stable():
    from bqlcd.bradyfp import detect_convergence, extend_chain, initial_chain, \
        satisfaction_record
    from universes import curry_universe
    state = initial_chain(curry_universe())
    state, res = detect_convergence(state, 5)
    theta = res["theta"]
    record = satisfaction_record(state, theta)
    for _ in range(3):
        state = extend_chain(state)
        assert satisfaction_record(state) == record


def test_inference_mode_roundtrip_on_corpus_formulas():
    from bqlcd.proofgen import random_sentence
    from bqlcd.syntax import parse_inferring, pretty as render
    rng = random.Random(2)
    for _ in range(300):
        phi = random_sentence(rng, 3)
        assert parse_inferring(render(phi))[0] == phi


def test_checker_catches_conclusion_corruption():
    """Swapping any internal conclusion for a foreign atom must be noticed
    (except under ex falso, whose conclusion is arbitrary)."""
    from dataclasses import replace as dc_replace
    from bqlcd.syntax import Atom
    corpus = generate_corpus(seed=12, size=60)
    foreign = Atom("zz_mut")
    corrupted = 0
    for t in corpus:
        paths = []

        def collect(nd, path):
            if nd.children and nd.rule not in ("bot_elim",):
                paths.append(path)
            for i, c in enumerate(nd.children):
                collect(c, path + (i,))

        collect(t, ())
        if not paths:
            continue

        def rebuild(nd, path, target):
            if path == target:
                return dc_replace(nd, conclusion=foreign)
            if not nd.children:
                return nd
            return dc_replace(nd, children=tuple(
                rebuild(c, path + (i,), target)
                for i, c in enumerate(nd.children)))

        for target in paths[:3]:
            bad = rebuild(t, (), target)
            assert not check_proof(bad, "nbqlcd_r").valid, (target,)
            corrupted += 1
    assert corrupted >= 60


def test_checker_catches_dropped_witness_discharge():
    from dataclasses import replace as dc_replace
    corpus = generate_corpus(seed=13, size=120)
    tested = 0

    def strip_first_exists_discharge(nd):
        if nd.rule == "exists_elim" and nd.discharges:
            return dc_replace(nd, discharges=frozenset()), True
        for i, c in enumerate(nd.children):
            new, done = strip_first_exists_discharge(c)
            if done:
                kids = list(nd.children)
                kids[i] = new
                return dc_replace(nd, children=tuple(kids)), True
        return nd, False

    for t in corpus:
        bad, done = strip_first_exists_discharge(t)
        if not done:
            continue
        report = check_proof(bad, "nbqlcd_r")
        if report.valid:
            # the witness fell back to being an ordinary open assumption:
            # the proof now establishes a strictly weaker sequent
            assert set(open_assumptions(t)) < set(report.open_assumptions)
        tested += 1
    assert tested >= 10


# SHA-256 of each corpus's proofs as sorted-key JSON.  The benchmark draws its
# inputs from these corpora, so a change to the generator's random draws, or
# to how formulas print, shows here before it changes what is measured.
CORPUS_DIGESTS = [
    (lambda: generate_corpus(seed=0, size=200),
     "7dc09fdb4973732f026693ac46d69a3aab2f4c45e7e6fb0e9956eb8780020aab"),
    (lambda: generate_corpus(seed=1, size=200),
     "f47d3270e9b306cca72468060e1f055e5bd954030b6b934f3bcdc96fd4f3d2c2"),
    (lambda: generate_corpus(seed=2, size=200),
     "60f534d3ccc3be97baa4167fdb02850b6d2d5d5b45896d2877358950f9a640fc"),
    (closed_theorem_corpus,
     "82fcdf5271ba709771661e281f439d2defa8b8310889fe72095473045b13e87b"),
    (axiomatic_corpus,
     "e738779ffce1678e9bf47e3f52874951844166b44912cd9962a697cad702eaf3"),
]


@pytest.mark.parametrize("corpus, digest", CORPUS_DIGESTS, ids=[
    "seed0", "seed1", "seed2", "closed_theorems", "axiomatic"])
def test_generated_corpora_are_pinned(corpus, digest):
    text = json.dumps([proof_to_json(t) for t in corpus()], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
