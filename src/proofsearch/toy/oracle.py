"""Brute-force proof oracle for the toy prover.

Iterative-deepening search over the full tactic alphabet instantiated with
the names in scope. Returns a shortest proof; among shortest proofs the
one least under the canonical tactic order wins, because candidates are
explored in that order. The canonical order is by tactic — intro, split,
exact, assumption, refl, rw, apply — with names ascending inside a tactic
(and the forward direction before the reverse one for rw).
"""

from __future__ import annotations

from typing import Mapping

from ..core import ProofState, canonical_key
from .kernel import ToyEnvironment, ToyTheorem
from .terms import Term


def _fresh_intro_name(hyp_names) -> str:
    if "h" not in hyp_names:
        return "h"
    i = 1
    while f"h{i}" in hyp_names:
        i += 1
    return f"h{i}"


def candidate_tactics(state: ProofState, lemmas: Mapping[str, Term]) -> list:
    """All surface-syntax tactic candidates at a state, in canonical order."""
    if state.is_error or state.is_qed:
        return []
    hyp_names = [name for name, _ in state.obligations[0].hypotheses]
    equation_names = sorted(set(hyp_names) | set(lemmas))
    candidates = [f"intro {_fresh_intro_name(hyp_names)}", "split"]
    candidates.extend(f"exact {name}" for name in hyp_names)
    candidates.extend(["assumption", "refl"])
    for name in equation_names:
        candidates.append(f"rw {name}")
        candidates.append(f"rw ← {name}")
    candidates.extend(f"apply {name}" for name in sorted(lemmas))
    return candidates


def brute_force_prove(theorem: ToyTheorem, max_depth: int):
    """Shortest proof of the theorem within max_depth tactics, or None."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    env = ToyEnvironment(theorem)
    lemmas = dict(theorem.lemmas)
    initial = env.initial_state(theorem.name)

    def search(state: ProofState, remaining: int, path_keys: set):
        if remaining == 0:
            return None
        for tactic in candidate_tactics(state, lemmas):
            result = env.apply_tactic(state, tactic)
            if result.is_error:
                continue
            if result.is_qed:
                return [tactic]
            key = canonical_key(result)
            # a minimal proof never revisits a state on its own path
            if key in path_keys:
                continue
            suffix = search(result, remaining - 1, path_keys | {key})
            if suffix is not None:
                return [tactic] + suffix
        return None

    root_key = canonical_key(initial)
    for depth in range(1, max_depth + 1):
        proof = search(initial, depth, {root_key})
        if proof is not None:
            return proof
    return None
