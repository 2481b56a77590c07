"""The ``proofs`` workload: one operation is one proof through the pipeline

    proof_to_json -> JSON text -> proof_from_json -> check_proof(nbqlcd_r)
    -> reduce_proof -> check_proof(nbqlcd) -> unbox -> check_proof(nbqlcd_r)
    -> nd_to_axiomatic -> check_proof(tjk+)

Inputs, per round:
- proofs from ``generate_corpus``, drawn with fixed quotas per class of
  (stratum, number of open assumptions), at evenly spaced quantiles of size
  within each class.  Proofs with detachment (stratum 0 and up) come from
  fixed reference corpora, since their pipeline time varies tenfold with
  proof shape; guard-free ones from corpora of seeds derived from the
  workload seed, so a seed changes which proofs are taken but not the mix
  of classes;
- the 20 derivations of ``axiomatic_corpus``, entering through
  ``axiomatic_to_nd``;
- ``bqlcd check`` and ``bqlcd reduce`` on the proof files in ``tests/data``;
- proofs the checker must reject: the Curry derivation (C5) and seeded
  mutations that give one node a conclusion its rule cannot produce;
- an ``and_int`` chain 1500 nodes deep, which fails today (RecursionError in
  ``check_proof``).
"""

from __future__ import annotations

import copy
import json
import os
import random

from bqlcd.proofgen import axiomatic_corpus, generate_corpus
from bqlcd.proofkernel import (
    assume, check_proof, node, open_assumptions, proof_from_json, proof_to_json,
    proofs_equal,
)
from bqlcd.syntax import And, Imp, big_conj, box, parse_inferring, pretty
from bqlcd.transform import axiomatic_to_nd, nd_to_axiomatic, reduce_proof, unbox

from common import cli_call, proof_nodes, quantile_picks, sub_seed, tree_nodes
from refcheck import expect

# generated proofs per round, by (stratum, open assumptions) class: from
# the corpora of seeds REFERENCE_SEEDS, and from CORPORA seeded corpora
REFERENCE_QUOTAS = {(0, 1): 22, (0, 2): 9, (0, 3): 6, (1, 0): 7}
REFERENCE_SEEDS = (0, 1, 2)
QUOTAS = {(-1, 0): 14, (-1, 1): 32, (-1, 2): 10}
CORPORA = 5
MUTANTS = 10
CHAIN = 1500
FILES = ["mp_proof.json", "nested_proof.json", "top_proof.json", "curry_proof.json"]
INVALID_FILES = {"curry_proof.json"}
# rules whose conclusion is fixed by the premises' conclusions; a fresh atom
# can never be a valid conclusion for them
SHAPE_RULES = {"and_int", "and_elim_l", "and_elim_r", "or_int_l", "or_int_r",
               "imp_int", "imp_elim", "forall_int", "exists_int", "top_int"}
FRESH_ATOM = "mutant"


def stratum_of(data):
    """-1 without detachment, else one more than the stratum of the right
    premise, maximised over the tree (computed here from the JSON)."""
    order, stack = [], [data]
    while stack:
        d = stack.pop()
        order.append(d)
        stack.extend(d.get("children", ()))
    s = {}
    for d in reversed(order):
        kids = d.get("children", ())
        best = max([-1] + [s[id(c)] for c in kids])
        if d.get("rule") == "imp_elim":
            best = max(best, s[id(kids[1])] + 1)
        s[id(d)] = best
    return s[id(data)]


def open_texts(data):
    """Texts of the open assumptions of a proof in JSON form."""
    out, stack = set(), [(data, frozenset())]
    while stack:
        d, closed = stack.pop()
        if "assume" in d:
            if d["id"] not in closed:
                out.add(d["assume"])
            continue
        inner = closed | set(d.get("discharges", ()))
        stack.extend((c, inner) for c in d.get("children", ()))
    return out


def _class(data):
    s = min(stratum_of(data), 1)
    n = len(open_texts(data))
    if s == 1:
        return (1, 0)
    if s == 0:
        return (0, min(max(n, 1), 3))
    return (-1, min(n, 2))


def pipeline(probe, t, source=None):
    """Take ``t`` through the pipeline and check every output.  ``source``
    is the JSON the proof was generated from, when there is one."""
    data = probe.call("proofkernel.to_json", proof_to_json, t)
    text = json.dumps(data)
    loaded = probe.call("proofkernel.from_json", proof_from_json, json.loads(text))
    expect(proofs_equal(loaded, t), "JSON round trip changed the proof")
    phi = loaded.conclusion
    s = stratum_of(source or data)
    r1 = probe.call("proofkernel.check", check_proof, loaded, "nbqlcd_r")
    expect(r1.valid, f"generated proof of {pretty(phi)!r} does not check")
    red = probe.call("transform.reduce", reduce_proof, loaded)
    expect(red.n == s + 1, f"reduced to n={red.n}, stratum is {s}")
    expect(red.proof.conclusion == box(red.n, phi), "reduced conclusion is not box(n, phi)")
    r2 = probe.call("proofkernel.check", check_proof, red.proof, "nbqlcd")
    expect(r2.valid, "reduced proof does not check guard-free")
    expect(set(r2.open_assumptions) <= set(open_assumptions(loaded)),
           "reduction added open assumptions")
    back = probe.call("transform.unbox", unbox, red.proof, red.n)
    expect(back.conclusion == phi, "unbox did not recover the conclusion")
    r3 = probe.call("proofkernel.check", check_proof, back, "nbqlcd_r")
    expect(r3.valid, "unboxed proof does not check")
    gamma = probe.call("syntax.pretty", sorted, r2.open_assumptions, key=pretty)
    ax = probe.call("transform.translate", nd_to_axiomatic, red.proof, gamma)
    expect(ax.conclusion == Imp(big_conj(gamma), box(red.n, phi)),
           "axiomatic conclusion is not big_conj(gamma) -> box(n, phi)")
    r4 = probe.call("proofkernel.check", check_proof, ax, "tjk+")
    expect(r4.valid and not r4.open_assumptions, "axiomatic derivation does not check")
    if probe.tracing:
        sizes = [tree_nodes(x) for x in (loaded, red.proof, back, ax)]
        probe.count("proofkernel.nodes_checked", sum(sizes))
        probe.count("transform.nodes_out", sum(sizes[1:]))
        probe.count("reduced_nodes", sizes[1])
        probe.count("axiomatic_nodes", sizes[3])


def axiomatic(probe, t):
    nd = probe.call("transform.translate", axiomatic_to_nd, t)
    expect(nd.conclusion == t.conclusion, "axiomatic_to_nd changed the conclusion")
    expect(set(open_assumptions(nd)) <= set(open_assumptions(t)),
           "axiomatic_to_nd added open assumptions")
    pipeline(probe, nd)


def reject(probe, data, constraint=None):
    t = probe.call("proofkernel.from_json", proof_from_json, data)
    report = probe.call("proofkernel.check", check_proof, t, "nbqlcd_r")
    expect(not report.valid, "the checker accepted a broken proof")
    if constraint:
        expect(any(v.constraint == constraint for v in report.violations),
               f"no {constraint} violation reported")


def cli_file(probe, path, name):
    invalid = name in INVALID_FILES
    code, out = cli_call(probe, ["check", path])
    expect(code == (1 if invalid else 0) and out["valid"] is not invalid,
           f"bqlcd check {name}: exit {code}")
    if invalid:
        expect(any(v["constraint"] == "C5" for v in out["violations"]),
               f"bqlcd check {name}: no C5 violation")
    code, out = cli_call(probe, ["reduce", path])
    if invalid:
        expect(code == 1, f"bqlcd reduce {name}: exit {code}")
        return
    expect(code == 0, f"bqlcd reduce {name}: exit {code}")
    with open(path) as fh:
        source = json.load(fh)
    expect(out["n"] == stratum_of(source) + 1, f"bqlcd reduce {name}: n={out['n']}")
    red = proof_from_json(out["proof"])
    phi = parse_inferring(source["conclusion"])[0]
    expect(pretty(red.conclusion) == pretty(box(out["n"], phi)),
           f"bqlcd reduce {name}: conclusion is not box(n, phi)")
    expect(check_proof(red, "nbqlcd").valid, f"bqlcd reduce {name}: output does not check")


def deep_chain(probe, t):
    report = probe.call("proofkernel.check", check_proof, t, "nbqlcd_r")
    expect(report.valid, "the and_int chain does not check")


def _sites(data):
    """The nodes of ``data`` whose rule fixes the conclusion's shape."""
    sites, stack = [], [data]
    while stack:
        d = stack.pop()
        if d.get("rule") in SHAPE_RULES:
            sites.append(d)
        stack.extend(d.get("children", ()))
    return sites


def _mutate(data, rng):
    """A copy of ``data`` in which one node of a shape-fixed rule concludes a
    fresh atom."""
    out = copy.deepcopy(data)
    rng.choice(_sites(out))["conclusion"] = FRESH_ATOM
    return out


def _chain():
    p, q = parse_inferring("p")[0], parse_inferring("q")[0]
    t = assume(p, "h0")
    for i in range(1, CHAIN):
        t = node("and_int", And(t.conclusion, q), [t, assume(q, f"h{i}")])
    return t


def _pool(probe, corpus_seeds):
    """Distinct generated proofs with their JSON, grouped by class."""
    pool = {}
    for cs in corpus_seeds:
        for t in probe.call("proofgen.generate", generate_corpus, seed=cs, size=200):
            data = proof_to_json(t)
            pool.setdefault(json.dumps(data, sort_keys=True), (t, data))
    by_class = {}
    for t, data in pool.values():
        by_class.setdefault(_class(data), []).append((t, data))
    return by_class


def setup(seed, probe, data_dir):
    rng = random.Random(seed)
    reference = _pool(probe, REFERENCE_SEEDS)
    seeded = _pool(probe, [sub_seed(seed, j) for j in range(CORPORA)])
    ops, picked = [], []
    for pool, quotas in ((reference, REFERENCE_QUOTAS), (seeded, QUOTAS)):
        for c, quota in quotas.items():
            picked += quantile_picks(pool.get(c, []), quota,
                                     lambda v: (proof_nodes(v[1]), len(json.dumps(v[1]))))
    for t, data in picked:
        ops.append(("generated", lambda p, t=t, d=data: pipeline(p, t, d)))
    for t in axiomatic_corpus():
        ops.append(("axiomatic", lambda p, t=t: axiomatic(p, t)))
    for name in FILES:
        path = os.path.join(data_dir, name)
        ops.append(("cli", lambda p, a=path, n=name: cli_file(p, a, n)))
    with open(os.path.join(data_dir, "curry_proof.json")) as fh:
        curry = json.load(fh)
    ops.append(("curry", lambda p: reject(p, curry, "C5")))
    candidates = sorted((data for _, data in picked if _sites(data)), key=json.dumps)
    mutants = [_mutate(data, rng) for data in rng.sample(candidates, MUTANTS)]
    for m in mutants:
        ops.append(("mutant", lambda p, d=m: reject(p, d)))
    chain = _chain()
    ops.append(("deep_chain", lambda p: deep_chain(p, chain)))
    rng.shuffle(ops)
    return ops


def warm_up(probe):
    p, q = parse_inferring("p")[0], parse_inferring("q")[0]
    t = node("imp_elim", q, [assume(p, "m1"), assume(Imp(p, q), "m2")])
    pipeline(probe, t)
