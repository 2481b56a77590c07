"""Workbench for constant domain basic first-order logic with a reflexive
root: formulas, finite Kripke models, natural-deduction checking under the
discharge restriction, guard-elimination rewrites, bounded countermodel
search and the fixed-point truth construction."""

from .syntax import (
    And, Atom, Bottom, Const, Exists, Fn, Forall, Imp, Or, Param, ParseError,
    Signature, Top, TOP, BOTTOM, Var, big_conj, box, free_vars,
    infer_signature, is_sentence, parameters_of, parse_formula,
    parse_inferring, pretty, sig, substitute,
)
from .kripke import (
    KripkeModel, ModelError, SearchBounds, SearchResult, add_chain,
    check_intersection_config, check_persistence, countermodel_search,
    entails_in_model, make_model, model_from_json, model_to_json, satisfies,
    validate_model, world_masks,
)
from .proofkernel import (
    CheckReport, Judgment, Proof, System, assume, canonical_leaf_ids,
    check_judgment, check_proof, load_proof, node, open_assumptions,
    parse_system, proof_from_json, proof_to_json, proofs_equal,
    rename_eigenvariables, split_assumptions, stratum, unsafe_leaves,
)
from .transform import (
    ReductionResult, TransformError, axiomatic_to_nd, derive_and_release,
    derive_distribution, derive_forall_embedding, derive_infinite_distribution,
    nd_to_axiomatic, pad_box, reduce_proof, regularity_transform,
    relative_deduction, unbox, unrestricted_exists_elim, unrestricted_or_elim,
)
from .bradyfp import (
    ChainState, JumpTrace, SentenceUniverse, UniverseError,
    add_loop_and_verify, detect_convergence, extend_chain, initial_chain,
    jump_to_fixpoint, make_universe, phi_operator, run_universe,
    universe_from_json, universe_to_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
