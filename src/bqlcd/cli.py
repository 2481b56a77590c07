"""Command-line front end.

Exit codes: 0 success (valid proof / satisfied formula / countermodel found
/ checks pass), 1 semantic failure (invalid proof, formula false, nothing
found within bounds, a verification failed), 2 malformed input, which
includes search bounds above 4 worlds and input nested too deeply to
process.  All output is JSON.  Commands are deterministic given their inputs
and ``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import bradyfp, kripke, proofgen, transform
from .kripke import (
    ModelError, SearchBounds, countermodel_search, model_from_json,
    model_to_json, satisfies, signature_of_model, world_masks,
)
from .proofkernel import (
    ProofJsonError, check_proof, load_proof, open_assumptions, parse_system, proof_to_json,
)
from .syntax import (
    BINARY, QUANT, And, Exists, Forall, Imp, Or, ParseError, Signature,
    infer_signature, parse_formula, parse_inferring, pretty,
)

# Evaluation, search and printing recurse a few frames per level of nesting,
# so whether a formula near the recursion limit overflows depends on the
# caller's own stack; deeper formulas are refused up front instead.
MAX_NESTING = 250


def _emit(data, out_path=None):
    text = json.dumps(data, indent=2, sort_keys=False)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _check_nesting(formulas):
    """Refuse formulas nested more than ``MAX_NESTING`` levels deep."""
    level = list(formulas)
    for _ in range(MAX_NESTING + 1):
        if not level:
            return
        level = [sub for phi in level for sub in
                 ((phi.left, phi.right) if isinstance(phi, BINARY) else
                  (phi.body,) if isinstance(phi, QUANT) else ())]
    if level:
        raise ParseError("input nested too deeply")


def cmd_check(args) -> int:
    try:
        proof = load_proof(args.proof)
        system = parse_system(args.system)
    except (ProofJsonError, ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = check_proof(proof, system)
    _emit(report.to_json(), args.out)
    return 0 if report.valid else 1


def cmd_reduce(args) -> int:
    try:
        proof = load_proof(args.proof)
    except (ProofJsonError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = check_proof(proof, "nbqlcd_r")
    if not report.valid:
        _emit(report.to_json(), args.out)
        return 1
    result = transform.reduce_proof(proof)
    final = check_proof(result.proof, "nbqlcd")
    if not final.valid:
        print("error: reduced proof failed to re-check", file=sys.stderr)
        return 1
    _emit({
        "n": result.n,
        "proof": proof_to_json(result.proof),
        "stats": {
            "nodes_in": report.nodes,
            "nodes_out": final.nodes,
            "strata": [result.source_stratum, final.stratum],
        },
    }, args.out)
    return 0


def _sat_trace(model, w, phi, asg, masks, depth=0):
    """The value of phi at w with the values of its parts, at most 7 levels
    deep.  Each value is read off ``world_masks``, computed once per
    formula and assignment and kept in ``masks``."""
    key = (phi, tuple(sorted(asg.items())))
    if key not in masks:
        masks[key] = world_masks(model, [phi], asg)[0]
    value = bool(masks[key] >> model.worlds.index(w) & 1)
    entry = {"world": w, "formula": pretty(phi), "value": value}
    if depth >= 6:
        return entry
    kids = []
    if isinstance(phi, (And, Or)):
        kids = [_sat_trace(model, w, phi.left, asg, masks, depth + 1),
                _sat_trace(model, w, phi.right, asg, masks, depth + 1)]
    elif isinstance(phi, Imp):
        succ = model.successors(w)
        kids = [_sat_trace(model, u, phi.left, asg, masks, depth + 1) for u in succ]
        kids += [_sat_trace(model, u, phi.right, asg, masks, depth + 1) for u in succ]
    elif isinstance(phi, (Forall, Exists)):
        for b in model.domain():
            kids.append(_sat_trace(model, w, phi.body, {**asg, phi.var: b}, masks,
                                   depth + 1))
    if kids:
        entry["parts"] = kids
    return entry


def cmd_sat(args) -> int:
    try:
        model = model_from_json(_load_json(args.model))
        sig = signature_of_model(model)
        phi = parse_formula(args.formula, sig)
        _check_nesting([phi])
        if phi.free:
            raise ParseError("formula must be closed")
        value = satisfies(model, args.world, phi)
    except (ModelError, ParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {"world": args.world, "formula": pretty(phi), "value": value}
    if args.trace:
        payload["trace"] = _sat_trace(model, args.world, phi, {}, {})
    _emit(payload, args.out)
    return 0 if value else 1


def cmd_countermodel(args) -> int:
    try:
        premises, sig = [], Signature()
        for text in args.premises or []:
            phi, sig = parse_inferring(text, sig)
            premises.append(phi)
        conclusion = parse_inferring(args.conclusion, sig)[0]
        _check_nesting(premises + [conclusion])
        bounds = SearchBounds(args.max_worlds, args.max_domain)
        for phi in premises + [conclusion]:
            if phi.free:
                raise ParseError("premises and conclusion must be closed")
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = countermodel_search(premises, conclusion, bounds, args.mode)
    if args.stats:
        print(json.dumps(result.stats, sort_keys=True), file=sys.stderr)
    if result.found:
        _emit({"found": True, "witness": result.witness,
               "model": model_to_json(result.model),
               "notes": list(result.notes)}, args.out)
        return 0
    _emit({"found": False, "exhausted": result.exhausted,
           "notes": list(result.notes)}, args.out)
    return 1


def cmd_brady(args) -> int:
    try:
        universe = bradyfp.universe_from_json(_load_json(args.universe))
    except (bradyfp.UniverseError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = bradyfp.run_universe(universe, args.depth_budget)
    _emit(report, args.out)
    checks_ok = all(report["checks"].values())
    return 0 if checks_ok else 1


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _suite_persistence(rng, n=60):
    for _ in range(n):
        model = proofgen.random_model(rng)
        for _ in range(4):
            phi = proofgen.random_sentence(rng)
            if not kripke.check_persistence(model, phi):
                return f"persistence broken: {pretty(phi)}"
    return None


def _suite_modus_ponens(rng, n=40):
    for _ in range(n):
        model = proofgen.random_model(rng)
        phi = proofgen.random_sentence(rng, 1)
        psi = proofgen.random_sentence(rng, 1)
        if not kripke.entails_in_model(model, [phi, Imp(phi, psi)], psi):
            return f"detachment fails: {pretty(phi)}, {pretty(psi)}"
    return None


def _suite_roundtrip(rng, n=200):
    for _ in range(n):
        phi = proofgen.random_sentence(rng, 3)
        sig = infer_signature([phi])
        if parse_formula(pretty(phi), sig) != phi:
            return f"round trip broke on {pretty(phi)}"
    return None


def _suite_intersection(rng, n=120):
    for _ in range(n):
        model, w, us = proofgen.random_intersection_config(rng)
        phi = proofgen.random_or_exists_free_sentence(rng)
        if not kripke.check_intersection_config(model, w, us, phi):
            return f"intersection biconditional failed for {pretty(phi)}"
    return None


def _suite_reduction(rng, n=40):
    corpus = proofgen.generate_corpus(seed=rng.randrange(10 ** 6), size=n)
    for t in corpus:
        red = transform.reduce_proof(t)
        if not check_proof(red.proof, "nbqlcd").valid:
            return "a reduced proof failed to re-check"
        back = transform.unbox(red.proof, red.n)
        if back.conclusion != t.conclusion \
                or not check_proof(back, "nbqlcd_r").valid:
            return "unboxing did not recover the conclusion"
    return None


def _suite_soundness(rng, n=25):
    corpus = proofgen.generate_corpus(seed=rng.randrange(10 ** 6), size=n)
    for t in corpus:
        opens = sorted(open_assumptions(t), key=pretty)
        if len(opens) > 3:
            continue
        res = countermodel_search(opens, t.conclusion, SearchBounds(3, 2))
        if res.found:
            return f"countermodel against a checked proof of {pretty(t.conclusion)}"
    return None


def _suite_truth_construction(rng):
    texts = ["true", "false", "T(q2) -> false", "T(q2)"]
    universe = bradyfp.make_universe(texts, {t: i for i, t in enumerate(texts)}, 4)
    report = bradyfp.run_universe(universe, 5)
    if not (report["stable"] and all(report["checks"].values())):
        return "the paradox universe did not verify"
    return None


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    suites = [
        ("persistence", _suite_persistence),
        ("modus_ponens_at_reflexive", _suite_modus_ponens),
        ("parse_pretty_roundtrip", _suite_roundtrip),
        ("intersection_configurations", _suite_intersection),
        ("reduction_roundtrip", _suite_reduction),
        ("proof_vs_search_soundness", _suite_soundness),
        ("truth_construction", _suite_truth_construction),
    ]
    failures = 0
    results = {}
    for name, suite in suites:
        problem = suite(rng)
        results[name] = "ok" if problem is None else problem
        line = "ok" if problem is None else f"FAIL: {problem}"
        print(f"{name}: {line}")
        if problem is not None:
            failures += 1
    _emit({"seed": args.seed, "results": results}, args.out)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing fills a
    fresh namespace each time and leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="bqlcd",
        description="workbench for constant domain basic logic with a "
                    "reflexive root: proof checking, reduction, model "
                    "evaluation, countermodel search and the fixed-point "
                    "truth construction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check a proof file against a system")
    p.add_argument("proof")
    p.add_argument("--system", default="nbqlcd_r")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reduce", help="eliminate modus ponens from a proof")
    p.add_argument("proof")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("sat", help="evaluate a formula at a world of a model")
    p.add_argument("model")
    p.add_argument("--world", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("countermodel", help="bounded countermodel search")
    p.add_argument("--premises", nargs="*", action="extend", default=[])
    p.add_argument("--conclusion", required=True)
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--max-domain", type=int, default=2)
    p.add_argument("--mode", default="bqlcd_r", choices=kripke.MODES)
    p.add_argument("--stats", action="store_true",
                   help="print the search counters as one JSON line to stderr")
    p.add_argument("--out")
    p.set_defaults(func=cmd_countermodel)

    p = sub.add_parser("brady", help="run the fixed-point truth construction")
    p.add_argument("universe")
    p.add_argument("--depth-budget", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_brady)

    p = sub.add_parser("selftest", help="run the invariant batteries")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
