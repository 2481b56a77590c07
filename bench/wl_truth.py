"""The ``truth`` workload: one operation is one universe through
``bradyfp.run_universe``, as ``bqlcd brady`` runs it.

Inputs, per round:
- random universes: up to three self-referential root sentences over
  ``T``-atoms, closed under subformulas, drawn with fixed quotas per
  universe size (2 to 6 sentences), since the run time grows about twofold
  with every sentence; sizes 2 and 3 from the workload seed, sizes 4 to 6
  from a fixed seed;
- the Curry, truth-teller and bottom universes;
- guard towers (true, false and box(k, false) for k = 1..h) of heights
  2..5, each run with a depth budget at which it settles (h + 1) and with
  two at which it does not (h - 1 and h);
- the universe files in ``tests/data`` through ``bqlcd brady``.

The seed draws the small random universes and permutes the sentence order and
the coding of every other generated universe (quotation constants are
rewritten to match), which changes the inputs but not their sizes.
"""

from __future__ import annotations

import json
import os
import random

from bqlcd.bradyfp import run_universe, universe_from_json

from common import cli_call
from refcheck import check_chain, expect, parse

TOWERS = range(2, 6)
FILES = ["curry_universe.json", "truth_teller_universe.json", "tower_universe.json"]
FILE_BUDGET = 5
# random universes per round, by number of sentences.  The seed draws the
# small ones; the larger ones, which hold the median and the tail and vary
# severalfold in cost at equal size, come from the fixed seed REFERENCE_SEED,
# as a seeded pick of them would move the timings by more than their bounds.
RANDOM_QUOTAS = {2: 13, 3: 23}
REFERENCE_QUOTAS = {4: 26, 5: 10, 6: 10}
REFERENCE_SEED = 0
RANDOM_BUDGET = 5

# sentence templates; {i} is the quotation constant of sentence i
CURRY = ["true", "false", "T({2}) -> false", "T({2})"]
TRUTH_TELLER = ["true", "T({1})"]
BOTTOM = ["false"]


def tower(h):
    return ["true", "false"] + ["true -> " * k + "false" for k in range(1, h + 1)]


def encode(templates, rng):
    """Universe JSON for the templates under a seeded coding and order."""
    codes = list(range(len(templates)))
    rng.shuffle(codes)
    quotes = {i: f"q{c}" for i, c in enumerate(codes)}
    texts = [t.format(*[quotes[i] for i in range(len(templates))]) for t in templates]
    order = list(range(len(texts)))
    rng.shuffle(order)
    return {"sentences": [texts[i] for i in order],
            "codes": {texts[i]: codes[i] for i in order},
            "domain": len(texts)}


def _show(f):
    """Fully parenthesised text of a parsed formula."""
    tag = f[0]
    if tag in ("top", "bot"):
        return "true" if tag == "top" else "false"
    if tag == "atom":
        return f"{f[1]}({', '.join(t[1] for t in f[2])})"
    op = {"and": "&", "or": "|", "imp": "->"}[tag]
    return f"({_show(f[1])}) {op} ({_show(f[2])})"


def _random_root(rng, k, depth):
    """A formula over T-atoms that quote one of the k roots ({i} stands for
    root i's quotation constant), true and false."""
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.7:
            return ("atom", "T", (("const", "{%d}" % rng.randrange(k)),))
        return ("top",) if r < 0.85 else ("bot",)
    op = rng.choice(["imp", "imp", "and", "or"])
    return (op, _random_root(rng, k, depth - 1), _random_root(rng, k, depth - 1))


def random_universe(rng):
    """Universe JSON closed under subformulas, or None if two roots
    coincide.  The roots take the first codes, in a seeded order."""
    k = rng.choice([1, 2, 2, 3])
    depth = rng.choice([1, 2, 2])
    codes = list(range(k))
    rng.shuffle(codes)
    roots = [_show(parse(_show(_random_root(rng, k, depth)).format(
        *[f"q{c}" for c in codes]))) for _ in range(k)]
    if len(set(roots)) < k:
        return None
    subs, stack = set(), [parse(t) for t in roots]
    while stack:
        f = stack.pop()
        subs.add(_show(f))
        if f[0] in ("and", "or", "imp"):
            stack += [f[1], f[2]]
    others = sorted(subs - set(roots))
    texts = roots + others
    return {"sentences": texts,
            "codes": {t: c for t, c in zip(texts, codes + list(range(k, len(texts))))},
            "domain": len(texts)}


def check_report(rep, data, theta=None, stable=None):
    expect(all(rep["checks"].values()),
           f"failed checks: {[k for k, v in rep['checks'].items() if not v]}")
    if stable is not None:
        expect(rep["stable"] is stable, f"stable={rep['stable']}, expected {stable}")
    if theta is not None:
        expect(rep["theta"] == theta, f"theta={rep['theta']}, expected {theta}")
    if rep["stable"]:
        expect(rep["checks"].get("loop_verified") is True, "the loop was not verified")
    check_chain(data["codes"], data["domain"], rep["t_ext"], rep["theta"])


def library_run(probe, data, budget, theta=None, stable=None, height=None):
    u = probe.call("bradyfp.load", universe_from_json, data)
    rep = probe.call("bradyfp.run", run_universe, u, budget)
    check_report(rep, data, theta, stable)
    if height is not None:
        # closed form: at w_a, box(k, false) is in the extension iff k > a
        codes = data["codes"]
        for w, ext in rep["t_ext"].items():
            a = int(w[1:])
            expect(codes["true"] in ext and codes["false"] not in ext,
                   f"true/false misplaced at {w}")
            for k in range(1, height + 1):
                code = codes["true -> " * k + "false"]
                expect((code in ext) == (k > a), f"box({k}, false) misplaced at {w}")
    if probe.tracing:
        probe.count("bradyfp.worlds", rep["depth"] + 1)
        probe.count("bradyfp.jump_stages", sum(len(t["stages"]) for t in rep["traces"]))


def cli_run(probe, path):
    code, rep = cli_call(probe, ["brady", path, "--depth-budget", str(FILE_BUDGET)])
    expect(code == 0, f"bqlcd brady {os.path.basename(path)}: exit {code}")
    with open(path) as fh:
        check_report(rep, json.load(fh))


def random_universes(rng, quotas):
    """Random universes, ``quotas[n]`` of each size ``n``."""
    out, need = [], dict(quotas)
    while any(need.values()):
        data = random_universe(rng)
        if data is not None and need.get(len(data["sentences"])):
            need[len(data["sentences"])] -= 1
            out.append(data)
    return out


def setup(seed, probe, data_dir):
    rng = random.Random(seed)
    ops = [("random", lambda p, d=data: library_run(p, d, RANDOM_BUDGET))
           for data in random_universes(rng, RANDOM_QUOTAS)
           + random_universes(random.Random(REFERENCE_SEED), REFERENCE_QUOTAS)]
    ops += [
        ("curry", lambda p, d=encode(CURRY, rng): library_run(p, d, 5, theta=1)),
        ("truth_teller", lambda p, d=encode(TRUTH_TELLER, rng):
            library_run(p, d, 4, theta=0)),
        ("bottom", lambda p, d=encode(BOTTOM, rng): library_run(p, d, 4, stable=True)),
    ]
    for h in TOWERS:
        data = encode(tower(h), rng)
        ops.append(("tower_settles", lambda p, d=data, h=h:
                    library_run(p, d, h + 1, theta=h, height=h)))
        for budget in (h - 1, h):
            ops.append(("tower_open", lambda p, d=data, h=h, b=budget:
                        library_run(p, d, b, stable=False, height=h)))
    for name in FILES:
        ops.append(("cli", lambda p, a=os.path.join(data_dir, name): cli_run(p, a)))
    rng.shuffle(ops)
    return ops


def warm_up(probe):
    library_run(probe, encode(CURRY, random.Random(0)), 5, theta=1)
