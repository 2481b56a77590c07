"""Fixed-point truth construction over a descending chain of worlds.

A finite universe of sentences over a signature with the unary truth
predicate T and quotation constants ``q<k>`` (denoting the code k) is
evaluated over a chain w0 > w1 > ... each new world sitting below all the
previous ones and seeing them.  At each world the extension of T is the
least fixed point of the evaluation jump; extensions shrink as the chain
descends, and once the satisfaction record of the bottom world repeats, a
reflexive loop can be added without disturbing any truth value.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, replace

from .kripke import KripkeModel, _compile_sequent
from .syntax import (
    And, Atom, Const, Fn, Imp, Param,
    Formula, Signature, parse_inferring, pretty, subformulas,
)


class UniverseError(ValueError):
    pass


class ChainInvariantError(RuntimeError):
    """An invariant the construction guarantees failed; a bug, not an input
    problem."""


_QUOTE_RE = re.compile(r"q(\d+)$")


# ---------------------------------------------------------------------------
# universes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SentenceUniverse:
    sentences: tuple           # Formula, ...
    texts: tuple               # original renderings, aligned with sentences
    code: dict                 # Formula -> domain element
    domain_size: int

    def codes(self):
        return frozenset(self.code.values())

    def code_of(self, phi):
        return self.code[phi]

    @functools.cached_property
    def _compiled(self):
        """``kripke._compile_sequent`` of the sentences, then of their
        T-biconditionals, with T as relation 0 and ``q<k>`` as constant k.
        The closures share one frame, so a universe is evaluated on one
        frame at a time."""
        return _compile_sequent(
            list(self.sentences) + [tb_instance(self, s) for s in self.sentences],
            {"T": 0}, {f"q{k}": k for k in self.code.values()}, {})


def _quote_constants(phi):
    out = {}

    def on_term(t):
        if isinstance(t, Const):
            m = _QUOTE_RE.fullmatch(t.name)
            if not m:
                raise UniverseError(
                    f"only quotation constants q<k> may appear, got {t.name!r}")
            out[t.name] = int(m.group(1))
        elif isinstance(t, Fn):
            raise UniverseError("universe sentences use no function symbols")

    for f_ in subformulas(phi):
        if isinstance(f_, Atom):
            for a in f_.args:
                if isinstance(a, Param):
                    raise UniverseError("parameters may not appear in universes")
                on_term(a)
    return out


def make_universe(texts, codes, domain_size) -> SentenceUniverse:
    """Validate and build: sentences closed and subformula-closed, codes
    injective into the domain, every T-atom grounded in the domain."""
    if domain_size < 1:
        raise UniverseError("domain must be non-empty")
    parsed = []
    consts = {}
    for text in texts:
        phi = _parse_universe_sentence(text)
        parsed.append(phi)
        consts.update(_quote_constants(phi))
    code = {}
    for text, phi in zip(texts, parsed):
        if text not in codes:
            raise UniverseError(f"no code assigned to {text!r}")
        code[phi] = int(codes[text])
    if set(codes) - set(texts):
        extra = sorted(set(codes) - set(texts))
        raise UniverseError(f"codes listed for unknown sentences: {extra}")
    values = list(code.values())
    if len(set(values)) != len(values):
        raise UniverseError("codes must be injective")
    if any(v < 0 or v >= domain_size for v in values):
        raise UniverseError("codes must lie inside the domain")
    for phi in parsed:
        if phi.free:
            raise UniverseError(f"not a sentence: {pretty(phi)}")
        for sub in subformulas(phi):
            # open subformulas live under their quantifier and are not
            # independent members of the universe
            if not sub.free and sub not in code:
                raise UniverseError(
                    f"not closed under subformulas: {pretty(sub)} missing "
                    f"(from {pretty(phi)})")
    for name, k in consts.items():
        if k >= domain_size:
            raise UniverseError(f"quotation {name} points outside the domain")
    for phi in parsed:
        for sub in subformulas(phi):
            if isinstance(sub, Atom) and sub.rel == "T":
                (arg,) = sub.args
                # bound variables range over the whole domain; only ground
                # references must point at a coded sentence
                if isinstance(arg, Const) and consts[arg.name] not in set(values):
                    raise UniverseError(
                        f"T-atom {pretty(sub)} does not point at a coded sentence")
    return SentenceUniverse(tuple(parsed), tuple(texts), code, domain_size)


def _parse_universe_sentence(text):
    # a tiny closed fragment: T-atoms over quotation constants plus the
    # propositional/quantifier skeleton
    sig = Signature(frozenset(), {}, {"T": 1})
    phi, inferred = parse_inferring(text, seed=sig)
    bad = [r for r, ar in inferred.relations.items() if r != "T"]
    if bad:
        raise UniverseError(f"only the truth predicate is available, got {bad}")
    return phi


def universe_from_json(data) -> SentenceUniverse:
    try:
        texts = [str(s) for s in data["sentences"]]
        if not isinstance(data["codes"], dict):
            raise TypeError("codes is not an object")
        codes = {str(k): int(v) for k, v in data["codes"].items()}
        domain = int(data["domain"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UniverseError(f"malformed universe JSON: {exc}") from exc
    return make_universe(texts, codes, domain)


def universe_to_json(u: SentenceUniverse) -> dict:
    return {"sentences": list(u.texts),
            "codes": {t: u.code[s] for t, s in zip(u.texts, u.sentences)},
            "domain": u.domain_size}


# ---------------------------------------------------------------------------
# chain state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainState:
    universe: SentenceUniverse
    t_ext: tuple               # per world, frozenset of codes
    traces: tuple              # per world, the JumpTrace that computed t_ext
    loop_added: bool = False

    @property
    def depth(self):
        return len(self.t_ext) - 1


@dataclass(frozen=True)
class JumpTrace:
    world: int
    stages: tuple              # X(0) ... X(fixed_point_stage)
    fixed_point_stage: int


def _world_name(a):
    return f"w{a}"


def chain_model(universe, t_exts, loop=False) -> KripkeModel:
    """The chain as a plain model.  No validation: hypothetical extensions
    may break persistence and are evaluated regardless."""
    depth = len(t_exts) - 1
    worlds = tuple(_world_name(a) for a in range(depth + 1))
    edges = {(worlds[b], worlds[a]) for b in range(depth + 1) for a in range(b)}
    if loop:
        edges.add((worlds[depth], worlds[depth]))
    # every coded sentence has a designated quotation constant, whether or
    # not it is mentioned in the universe texts
    consts = {f"q{k}": k for k in universe.code.values()}
    rels = {"T": {worlds[a]: frozenset((c,) for c in t_exts[a])
                  for a in range(depth + 1)}}
    return KripkeModel(worlds, frozenset(edges), universe.domain_size,
                       consts, {}, {}, rels, {"T": 1}, "absent")


def _masks(universe, t_ext, loop=False, below=None, tb=False) -> list:
    """World masks of the sentences (and T-biconditionals, with ``tb``) on
    the chain with extensions ``t_ext``, each world seeing those above it
    and, with ``loop``, the bottom one itself.  ``below = (member, full)``
    adds under the chain one irreflexive world per bit j of ``full``, whose
    T extension holds k iff ``member[k]`` has bit j."""
    n = len(t_ext)
    groups = [((1 << a) - 1 | (loop and a == n - 1) << a, 1 << a) for a in range(n)]
    t_masks = [sum(1 << a for a, ext in enumerate(t_ext) if k in ext)
               for k in range(universe.domain_size)]
    if below is not None:
        member, full = below
        groups.append(((1 << n) - 1, full << n))
        t_masks = [t | member.get(k, 0) << n for k, t in enumerate(t_masks)]
    closures, set_frame, _ = universe._compiled
    set_frame(universe.domain_size, tuple(groups))
    args = ((tuple(t_masks),), range(universe.domain_size), (), ())
    return [run(*args) for run in closures[:None if tb else len(universe.sentences)]]


class _Jump:
    """The jump at world alpha as a function of the candidate extension x.

    ``residual`` decides many candidates at once (bit-sliced): ``member[e]``
    is an int whose bit j is set iff element e is in candidate j, ``full``
    has one bit per candidate, and it returns one such int per universe
    sentence.  It runs the compiled sentences on the worlds above alpha plus
    one irreflexive world per candidate, which sees every world above and
    whose T extension is the candidate, then shifts the worlds above out.
    Calling the jump on one set is the same pass with ``full = 1``.
    """

    def __init__(self, state: ChainState, alpha: int):
        if alpha > state.depth + 1 or alpha < 0:
            raise ValueError(f"world {alpha} is beyond the frontier")
        self.universe = u = state.universe
        self.codes = tuple(u.code_of(s) for s in u.sentences)
        self.above = state.t_ext[:alpha]

    def residual(self, member: dict, full: int) -> tuple:
        return tuple(mask >> len(self.above) for mask in
                     _masks(self.universe, self.above, below=(member, full)))

    def decode(self, masks, j=0) -> frozenset:
        """The jump on candidate j: the codes of the sentences whose mask
        has bit j set."""
        return frozenset(c for c, m in zip(self.codes, masks) if m >> j & 1)

    def __call__(self, x) -> frozenset:
        return self.decode(self.residual(dict.fromkeys(x, 1), 1))


def phi_operator(state: ChainState, alpha: int, x: frozenset) -> frozenset:
    """Codes of the universe sentences satisfied at world alpha when its
    truth extension is hypothetically ``x``: ``_Jump.residual`` on the one
    candidate x, below the worlds above alpha and seeing all of them."""
    return _Jump(state, alpha)(x)


def jump_to_fixpoint(state: ChainState, alpha: int) -> JumpTrace:
    """Iterate the jump from the empty extension until it repeats.

    The universe is finite and the jump monotone, so the fixed point arrives
    within universe-size + 1 stages; a non-monotone step aborts loudly.
    """
    u = state.universe
    jump = _Jump(state, alpha)
    stages = [frozenset()]
    for _ in range(len(u.sentences) + 2):
        nxt = jump(stages[-1])
        if not stages[-1] <= nxt:
            raise ChainInvariantError(
                f"jump step lost members at world {alpha}: "
                f"{sorted(stages[-1] - nxt)}")
        if nxt == stages[-1]:
            fp = len(stages) - 1
            if fp > len(u.sentences) + 1:
                raise ChainInvariantError("fixed point arrived too late")
            return JumpTrace(alpha, tuple(stages), fp)
        stages.append(nxt)
    raise ChainInvariantError(f"no fixed point within bounds at world {alpha}")


def initial_chain(universe: SentenceUniverse) -> ChainState:
    empty = ChainState(universe, (), ())
    trace = jump_to_fixpoint(empty, 0)
    return ChainState(universe, (trace.stages[-1],), (trace,))


def extend_chain(state: ChainState) -> ChainState:
    """One more world at the bottom, its extension computed by the jump;
    extensions must keep shrinking down the chain."""
    if state.loop_added:
        raise ValueError("the chain is finished; no worlds below the loop")
    trace = jump_to_fixpoint(state, state.depth + 1)
    new_ext = trace.stages[-1]
    for a, prev in enumerate(state.t_ext):
        if not new_ext <= prev:
            raise ChainInvariantError(
                f"extension at new world exceeds world {a}")
    return ChainState(state.universe, state.t_ext + (new_ext,),
                      state.traces + (trace,))


def truncate(state: ChainState, depth: int) -> ChainState:
    if depth > state.depth:
        raise ValueError("cannot truncate upward")
    return ChainState(state.universe, state.t_ext[:depth + 1],
                      state.traces[:depth + 1])


def satisfaction_record(state: ChainState, alpha=None) -> tuple:
    """Truth values of every universe sentence at the given (default bottom)
    world."""
    if alpha is None:
        alpha = state.depth
    return tuple(bool(mask >> alpha & 1)
                 for mask in _masks(state.universe, state.t_ext, state.loop_added))


def detect_convergence(state: ChainState, budget: int):
    """Extend until the bottom-world record repeats or the budget runs out.

    Returns ``(state, result)`` where the state has been extended as far as
    the search went and the result carries the least repeat point (when
    found) plus the full history.  Some universes cannot settle at any
    finite depth; ``stable=False`` reports that honestly.
    """
    history = [satisfaction_record(state, a) for a in range(state.depth + 1)]
    theta = None
    for a in range(len(history) - 1):
        if history[a] == history[a + 1]:
            theta = a
            break
    while theta is None and state.depth < budget:
        state = extend_chain(state)
        history.append(satisfaction_record(state))
        if history[-1] == history[-2]:
            theta = state.depth - 1
    return state, {"theta": theta, "stable": theta is not None,
                   "history": history}


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def tb_instance(universe: SentenceUniverse, phi: Formula) -> Formula:
    quote = Atom("T", (Const(f"q{universe.code_of(phi)}"),))
    return And(Imp(quote, phi), Imp(phi, quote))


def add_loop_and_verify(state: ChainState, theta: int) -> dict:
    """Make the world at ``theta`` reflexive and verify the construction:
    no truth value moves, every world stays closed under its extension, the
    truth biconditionals hold at the loop, and detachment has no
    counterexample there.  Any failure is a construction bug and is
    reported, not raised."""
    if not isinstance(theta, int):
        raise ValueError("no stabilisation point: the chain did not settle")
    if theta > state.depth:
        raise ValueError("loop point beyond the chain")
    state = truncate(state, theta)
    u = state.universe
    n = len(u.sentences)
    flat = _masks(u, state.t_ext)
    # the looped masks are computed last: ``implies`` below reads the frame
    # they were computed on
    looped = _masks(u, state.t_ext, loop=True, tb=True)
    implies = u._compiled[2]
    failures = []
    value_changes = [{"world": _world_name(a), "sentence": pretty(phi)}
                     for a in range(state.depth + 1)
                     for phi, f, g in zip(u.sentences, flat, looped) if (f ^ g) >> a & 1]
    if value_changes:
        failures.append({"check": "loop_preserves_values", "cases": value_changes})
    for a in range(state.depth + 1):
        sat_set = frozenset(u.code_of(phi) for phi, g in zip(u.sentences, looped)
                            if g >> a & 1)
        if sat_set != state.t_ext[a]:
            failures.append({"check": "closure", "world": _world_name(a),
                             "satisfied": sorted(sat_set),
                             "extension": sorted(state.t_ext[a])})
    tb_failures = [pretty(phi) for phi, g in zip(u.sentences, looped[n:])
                   if not g >> theta & 1]
    if tb_failures:
        failures.append({"check": "tarski_biconditionals", "sentences": tb_failures})
    mp_failures = [[pretty(phi), pretty(psi)]
                   for phi, f in zip(u.sentences, looped) if f >> theta & 1
                   for psi, g in zip(u.sentences, looped)
                   if not g >> theta & 1 and implies(f, g) >> theta & 1]
    if mp_failures:
        failures.append({"check": "modus_ponens", "pairs": mp_failures})
    return {
        "ok": not failures,
        "failures": failures,
        "theta": theta,
        "state": replace(state, loop_added=True),
        "model": chain_model(u, state.t_ext, loop=True),
    }


# ---------------------------------------------------------------------------
# verification suites over a finished chain
# ---------------------------------------------------------------------------

# with at most this many codes the monotonicity check probes every subset;
# its masks then have 2**16 bits, 8 KiB each
_LATTICE_CODES = 16


def verify_monotonicity(state: ChainState, alpha: int) -> bool:
    """Check that the jump at world alpha respects inclusion.

    With at most ``_LATTICE_CODES`` codes, one residual pass decides the jump
    on every subset of the codes: candidate j holds the i-th code iff bit i
    of j is set, so ``has[i]``, the candidates holding it, is runs of 2**i
    zeros and ones.  Shifting the candidates without code i by 2**i adds
    code i; a sentence mask that loses a bit under that shift breaks
    monotonicity on a covering pair, and the covering pairs reach every
    comparable pair of the lattice.  With more codes, pairs from the pool of
    subsets of at most three codes and their unions are compared instead,
    read from one residual pass over those candidates.
    """
    jump = _Jump(state, alpha)
    codes = sorted(state.universe.codes())
    if len(codes) <= _LATTICE_CODES:
        full = (1 << (1 << len(codes))) - 1
        has = [(((1 << (1 << i)) - 1) << (1 << i)) * (full // ((1 << (2 << i)) - 1))
               for i in range(len(codes))]
        masks = jump.residual(dict(zip(codes, has)), full)
        return all(((m & ~p) << (1 << i)) & ~m == 0
                   for m in masks for i, p in enumerate(has))
    # candidates are bit sets over the positions of the codes, and index[x]
    # is the bit of candidate x in the residual masks
    pool = [sum(1 << i for i in c) for r in range(4)
            for c in itertools.combinations(range(len(codes)), r)]
    index = {x: j for j, x in enumerate(dict.fromkeys(a | b for a in pool for b in pool))}
    member = {c: sum(1 << j for x, j in index.items() if x >> i & 1)
              for i, c in enumerate(codes)}
    masks = jump.residual(member, (1 << len(index)) - 1)
    for a in pool:
        # a sentence holding at a must hold at every union a | b
        ups = 0
        for j in {index[a | b] for b in pool}:
            ups |= 1 << j
        if any(m >> index[a] & 1 and m & ups != ups for m in masks):
            return False
    return True


def verify_globally_decreasing(state: ChainState) -> bool:
    return all(state.t_ext[b] <= state.t_ext[a]
               for a in range(state.depth + 1)
               for b in range(a, state.depth + 1))


def verify_stagewise_domination(state: ChainState, alpha: int, beta: int) -> bool:
    """Earlier worlds dominate later ones stage by stage along the jump;
    ``beta`` may be the frontier world just below the chain."""
    if alpha > beta:
        alpha, beta = beta, alpha
    tr_a = state.traces[alpha]
    tr_b = state.traces[beta] if beta <= state.depth else jump_to_fixpoint(state, beta)
    n = max(len(tr_a.stages), len(tr_b.stages))

    def stage(tr, i):
        return tr.stages[min(i, len(tr.stages) - 1)]

    return all(stage(tr_b, i) <= stage(tr_a, i) for i in range(n))


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def run_universe(universe: SentenceUniverse, budget: int) -> dict:
    """Build the chain, search for stabilisation, loop and verify; the
    returned report carries everything the command line emits."""
    state = initial_chain(universe)
    state, conv = detect_convergence(state, budget)
    masks = _masks(universe, state.t_ext)
    closure_ok = all(
        frozenset(universe.code_of(phi) for phi, mask in zip(universe.sentences, masks)
                  if mask >> a & 1) == state.t_ext[a]
        for a in range(state.depth + 1))
    report = {
        "universe": list(universe.texts),
        "depth": state.depth,
        "theta": conv["theta"],
        "stable": conv["stable"],
        "t_ext": {f"w{a}": sorted(state.t_ext[a]) for a in range(state.depth + 1)},
        "converged_at": [tr.fixed_point_stage for tr in state.traces],
        "history": [[bool(v) for v in rec] for rec in conv["history"]],
        "traces": [{"world": tr.world,
                    "stages": [sorted(s) for s in tr.stages],
                    "fixed_point_stage": tr.fixed_point_stage}
                   for tr in state.traces],
        "checks": {
            "monotonicity": all(verify_monotonicity(state, a)
                                for a in range(state.depth + 1)),
            "locally_increasing": all(
                all(a_ <= b_ for a_, b_ in zip(tr.stages, tr.stages[1:]))
                for tr in state.traces),
            "globally_decreasing": verify_globally_decreasing(state),
            "stagewise_domination": all(
                verify_stagewise_domination(state, a, b)
                for a in range(state.depth + 1)
                for b in range(a + 1, state.depth + 1)),
            "fixed_points_within_bound":
                all(tr.fixed_point_stage <= len(universe.sentences) + 1
                    for tr in state.traces),
            "closure": closure_ok,
        },
    }
    if conv["stable"]:
        loop = add_loop_and_verify(state, conv["theta"])
        report["loop"] = {"ok": loop["ok"], "failures": loop["failures"]}
        report["checks"]["loop_verified"] = loop["ok"]
    return report
