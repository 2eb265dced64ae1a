"""Abstract proof environment: states, obligations, transitions, and the
progress order used by the search.

A proof state is either a finite set of obligations or an absorbing error
state carrying the obligations at the point of failure plus a feedback
message. The empty, non-error obligation set is the goal state (QED).
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence


def normalize_text(text: str) -> str:
    """Collapse all whitespace runs to single spaces and strip the ends."""
    return " ".join(text.split())


class ErrorStateComparison(Exception):
    """Raised when the progress order is applied to an error state."""


@dataclass(frozen=True)
class GlobalContext:
    """Theorem statement plus optional informal proof sketch."""

    theorem_statement: str
    informal_hints: str | None = None

    def __post_init__(self):
        if not self.theorem_statement.strip():
            raise ValueError("theorem statement must be nonempty")


@dataclass(frozen=True)
class Obligation:
    """One (goal, hypotheses) pair the prover must discharge.

    Hypotheses are stored as (name, proposition) pairs in a frozenset, so
    equality is independent of enumeration order. Goal and proposition text
    are whitespace-normalized at construction.
    """

    goal: str
    hypotheses: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "goal", normalize_text(self.goal))
        pairs = frozenset(
            (name.strip(), normalize_text(prop)) for name, prop in self.hypotheses
        )
        names = [name for name, _ in pairs]
        if len(names) != len(set(names)):
            raise ValueError("duplicate hypothesis names in obligation")
        object.__setattr__(self, "hypotheses", pairs)

    @classmethod
    def make(cls, goal: str, hypotheses: Mapping[str, str] | None = None) -> "Obligation":
        return cls(goal, frozenset((hypotheses or {}).items()))

    def hypothesis_map(self) -> dict:
        return dict(sorted(self.hypotheses))

    def hypothesis_contents(self) -> frozenset:
        """The set of hypothesis propositions, ignoring names."""
        return frozenset(prop for _, prop in self.hypotheses)

    def sort_key(self):
        return (self.goal, sorted((prop, name) for name, prop in self.hypotheses))


@dataclass(frozen=True)
class ProofState:
    """A set of obligations, optionally marked as an absorbing error state.

    QED is the non-error state with an empty obligation set. Error states
    keep the obligations that were pending when the tactic failed, plus the
    environment's feedback message.
    """

    obligations: frozenset
    error_message: str | None = None

    @classmethod
    def of(cls, obligations: Iterable[Obligation]) -> "ProofState":
        return cls(frozenset(obligations))

    @classmethod
    def qed(cls) -> "ProofState":
        return cls(frozenset())

    @classmethod
    def error(cls, obligations: Iterable[Obligation], message: str) -> "ProofState":
        if not message:
            raise ValueError("error states need a feedback message")
        return cls(frozenset(obligations), message)

    @property
    def is_error(self) -> bool:
        return self.error_message is not None

    @property
    def is_qed(self) -> bool:
        return not self.is_error and not self.obligations


def ordered_obligations(state: ProofState) -> list:
    """Deterministic obligation order: by goal text, then by hypothesis list."""
    return sorted(state.obligations, key=Obligation.sort_key)


def at_least_as_hard(o1: ProofState, o2: ProofState) -> bool:
    """Sound-but-incomplete progress order over non-error states.

    o1 is at least as hard as o2 when every obligation (g, h) of o2 has a
    stronger counterpart (g', h') in o1: the goals are equal (after
    whitespace normalization, which construction guarantees) and h' is a
    subset of h, compared by proposition content with names ignored.
    """
    if o1.is_error or o2.is_error:
        raise ErrorStateComparison("progress order is undefined on error states")
    for ob2 in o2.obligations:
        h2 = ob2.hypothesis_contents()
        if not any(
            ob1.goal == ob2.goal and ob1.hypothesis_contents() <= h2
            for ob1 in o1.obligations
        ):
            return False
    return True


def canonical_key(state: ProofState) -> str:
    """Stable serialization of a state, invariant under obligation and
    hypothesis reordering. Used to key the failure table."""
    payload = {
        "error": state.error_message,
        "obligations": [
            [ob.goal, sorted(ob.hypotheses)] for ob in ordered_obligations(state)
        ],
    }
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":"))


class ProofEnvironment(ABC):
    """Deterministic tactic-application semantics behind a uniform interface.

    Implementations must return the same result for the same (state, tactic)
    pair, and must return error states unchanged for every tactic.
    """

    @abstractmethod
    def initial_state(self, theorem_id: str) -> ProofState:
        ...

    @abstractmethod
    def apply_tactic(self, state: ProofState, tactic: str) -> ProofState:
        ...

    def tactic_alphabet(self) -> str:
        """Informal description of the tactics the environment accepts."""
        return ""


def lift_transition(
    env: ProofEnvironment, state: ProofState, tactics: Sequence[str]
) -> ProofState:
    """Fold apply_tactic over a tactic sequence, left to right.

    The empty sequence is the identity; errors absorb the remaining suffix
    because environments return error states unchanged.
    """
    for tactic in tactics:
        state = env.apply_tactic(state, tactic)
    return state
