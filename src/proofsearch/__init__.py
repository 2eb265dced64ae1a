"""Stateful, backtracking, LLM-guided depth-first proof search over
tactic-based proof environments, with failure memory, a symbolic progress
check, BM25 retrieval, a staged ensemble strategy, and an offline
benchmark harness built around a toy prover."""

from .agent import (
    EpisodeTrace,
    SearchConfig,
    SearchOutcome,
    ensemble_prove,
    generate_informal_sketch,
    prove,
)
from .core import (
    GlobalContext,
    Obligation,
    ProofEnvironment,
    ProofState,
    at_least_as_hard,
    canonical_key,
    lift_transition,
)

__version__ = "0.1.0"

__all__ = [
    "EpisodeTrace",
    "GlobalContext",
    "Obligation",
    "ProofEnvironment",
    "ProofState",
    "SearchConfig",
    "SearchOutcome",
    "at_least_as_hard",
    "canonical_key",
    "ensemble_prove",
    "generate_informal_sketch",
    "lift_transition",
    "prove",
]
