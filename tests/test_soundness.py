"""Cross-checks between the proof kernel and the semantics."""

import itertools
import random

from bqlcd.kripke import make_model, validate_model, world_masks
from bqlcd.proofgen import generate_corpus, random_model
from bqlcd.proofkernel import check_proof, split_assumptions, stratum, unsafe_leaves
from bqlcd.syntax import Atom, Const, Imp, Or, BOTTOM, free_vars
from proofcases import f


def test_guard_free_proofs_have_no_unsafe_occurrences():
    corpus = generate_corpus(seed=3, size=80)
    for t in corpus:
        if stratum(t) == -1:
            assert unsafe_leaves(t) == frozenset()


def test_stratum_is_minimal():
    corpus = generate_corpus(seed=4, size=80)
    for t in corpus:
        s = stratum(t)
        assert check_proof(t, f"nbqlcd[{s}]").valid
        if s >= 0:
            assert not check_proof(t, f"nbqlcd[{s - 1}]").valid


def test_generalized_soundness_split_contexts():
    """No model lets a reflexive world verify the unsafe context while a
    successor verifies the side context but not the conclusion."""
    rng = random.Random(11)
    battery = [random_model(rng, max_worlds=3, max_domain=2) for _ in range(40)]
    corpus = generate_corpus(seed=5, size=60)
    for t in corpus:
        unsafe, safe = split_assumptions(t)
        if len(unsafe) + len(safe) > 4:
            continue
        mentioned = set()
        for g in list(unsafe) + list(safe) + [t.conclusion]:
            mentioned |= g.params
        if any(i > 2 for i in mentioned):
            continue
        for model in battery:
            masks = world_masks(model, list(unsafe) + list(safe) + [t.conclusion])
            unsafe_masks = masks[:len(unsafe)]
            safe_masks, conclusion = masks[len(unsafe):-1], masks[-1]

            def holds(mask, w):
                return mask >> model.worlds.index(w) & 1

            for w in model.reflexive_worlds():
                if not all(holds(g, w) for g in unsafe_masks):
                    continue
                for u in model.successors(w):
                    if all(holds(s, u) for s in safe_masks):
                        assert holds(conclusion, u), \
                            (t.conclusion, model.worlds, w, u)


def test_strict_identity_validates_excluded_middle_everywhere():
    """Exhaustive over strict-identity models with two constants: identity
    excluded middle holds at every world, reflexive or not."""
    phi = f("c = d | (c = d -> false)")
    worlds2 = ["a", "b"]
    edge_pool = [(x, y) for x in worlds2 for y in worlds2]
    seen = 0
    for bits in range(2 ** len(edge_pool)):
        edges = {e for i, e in enumerate(edge_pool) if bits >> i & 1}
        transitive = all((a, d) in edges
                         for (a, b) in edges for (c, d) in edges if b == c)
        if not transitive:
            continue
        for m in (1, 2):
            diag = {(x, x) for x in range(m)}
            for cv, dv in itertools.product(range(m), repeat=2):
                model = make_model(
                    worlds2, edges, m, consts={"c": cv, "d": dv},
                    rels={"=": {w: set(diag) for w in worlds2}},
                    rel_arity={"=": 2}, identity="strict")
                assert world_masks(model, [phi]) == [0b11]
                seen += 1
    assert seen >= 60


def test_search_rejects_bad_bounds():
    import pytest
    from bqlcd.kripke import SearchBounds
    with pytest.raises(ValueError):
        SearchBounds(0, 1)
    with pytest.raises(ValueError):
        SearchBounds(1, 0)
