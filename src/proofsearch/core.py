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
from functools import cached_property
from operator import attrgetter
from types import MappingProxyType
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
    equality is independent of enumeration order. `Obligation(...)` and
    `Obligation.make` whitespace-normalize goal and proposition text and
    reject duplicate names. `Obligation.trusted` does neither: it is for a
    kernel that builds a child from text it already holds normalized (its
    printed goal, its parent's hypotheses), and the child is then `==`,
    hashes and keys the same as one built through `make`.

    Four derived views are `functools.cached_property`s: `sorted_hypotheses`,
    `hypotheses_by_name`, `propositions` and `sort_key`. Each is computed
    on first read and kept on the instance; they are not dataclass fields,
    so `==`, `hash` and `repr` ignore them, and an obligation that is
    never asked for them pays nothing.
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

    @classmethod
    def trusted(cls, goal: str, hypotheses: frozenset) -> "Obligation":
        """An obligation from normalized goal text and distinctly named,
        normalized (name, proposition) pairs, taken as they are."""
        ob = object.__new__(cls)
        ob.__dict__.update(goal=goal, hypotheses=hypotheses)
        return ob

    @cached_property
    def sorted_hypotheses(self) -> tuple:
        """The (name, proposition) pairs in name order: the one order in
        which prompts, keys, the wire and retrieval list hypotheses."""
        return tuple(sorted(self.hypotheses))

    @cached_property
    def hypotheses_by_name(self) -> Mapping:
        """Each hypothesis's proposition under its name, read-only, for
        lookups (its iteration order is not name order)."""
        return MappingProxyType(dict(self.hypotheses))

    @cached_property
    def propositions(self) -> frozenset:
        """The hypotheses' propositions, names dropped."""
        return frozenset(prop for _, prop in self.hypotheses)

    @cached_property
    def sort_key(self) -> tuple:
        """The obligation's place in `ordered_obligations`: goal text,
        then the (proposition, name) pairs in order."""
        return (self.goal, sorted((prop, name) for name, prop in self.hypotheses))


@dataclass(frozen=True)
class ProofState:
    """A set of obligations, optionally marked as an absorbing error state.

    QED is the non-error state with an empty obligation set. Error states
    keep the obligations that were pending when the tactic failed, plus the
    environment's feedback message.

    The obligation order and the canonical key are private
    `functools.cached_property`s, read through `ordered_obligations` and
    `canonical_key`: the search and `BridgedEnvironment` share one of each
    per state object, and `==`, `hash` and `repr` ignore them.
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

    @cached_property
    def _ordered_obligations(self) -> tuple:
        if len(self.obligations) < 2:  # nothing to sort
            return tuple(self.obligations)
        return tuple(sorted(self.obligations, key=attrgetter("sort_key")))

    @cached_property
    def _canonical_key(self) -> str:
        return _encode_key({
            "error": self.error_message,
            "obligations": [[ob.goal, ob.sorted_hypotheses] for ob in self._ordered_obligations],
        })


def ordered_obligations(state: ProofState) -> tuple:
    """Deterministic obligation order: by goal text, then by hypothesis list."""
    return state._ordered_obligations


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
        goal, h2 = ob2.goal, ob2.propositions
        if not any(ob1.goal == goal and ob1.propositions <= h2 for ob1 in o1.obligations):
            return False
    return True


# One encoder for every key: `json.dumps` with a keyword builds a new one per
# call. Neither encoder checks for circular references: each value it is given
# is a tree the program builds (one that held itself would still raise, as
# RecursionError).
_encode_key = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"),
                               check_circular=False).encode
# One encoder for every trace line and wire message, for the same reasons
encode_json = json.JSONEncoder(ensure_ascii=False, check_circular=False).encode


def canonical_key(state: ProofState) -> str:
    """Stable serialization of a state, invariant under obligation and
    hypothesis reordering. Used to key the failure table."""
    return state._canonical_key


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
