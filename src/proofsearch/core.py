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


class _stored:
    """A method's value, computed on the first read of the attribute and
    then kept in the instance's `__dict__` under the method's name, where
    later reads find it first: `functools.cached_property` without its
    lock (Python 3.12 dropped the lock too)."""

    def __init__(self, method):
        self.method = method
        self.name = method.__name__
        self.__doc__ = method.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.method(instance)
        return value


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

    Four views are computed on first use and kept on the instance: the
    hypotheses sorted by name (behind `hypothesis_map` and
    `canonical_key`), `hypotheses_by_name`, `hypothesis_contents()` and
    `sort_key()`. They are not dataclass fields, so `==`, `hash` and
    `repr` ignore them, and an obligation that is never asked for them
    pays nothing. They are `_stored`, not `functools.cached_property`:
    on Python 3.11 that takes a lock at every first use, and the search
    makes thousands of obligations a round that nothing shares between
    threads.
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

    @_stored
    def _by_name(self) -> tuple:
        """The (name, proposition) pairs in name order."""
        return tuple(sorted(self.hypotheses))

    @_stored
    def hypotheses_by_name(self) -> Mapping:
        """Each hypothesis's proposition under its name: a read-only view
        for lookups (`hypothesis_map` gives a fresh dict)."""
        return MappingProxyType(dict(self.hypotheses))

    @_stored
    def _contents(self) -> frozenset:
        return frozenset(prop for _, prop in self.hypotheses)

    @_stored
    def _sort_key(self) -> tuple:
        return (self.goal, sorted((prop, name) for name, prop in self.hypotheses))

    def hypothesis_map(self) -> dict:
        return dict(self._by_name)

    def hypothesis_contents(self) -> frozenset:
        """The set of hypothesis propositions, ignoring names."""
        return self._contents

    def sort_key(self):
        return self._sort_key


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


def ordered_obligations(state: ProofState) -> tuple:
    """Deterministic obligation order: by goal text, then by hypothesis list.

    The tuple is computed on the first call and stored on the (frozen)
    state, outside its fields, as `canonical_key` stores the key; a state
    with one obligation is not sorted at all."""
    order = state.__dict__.get("_order")
    if order is None:
        obligations = state.obligations
        order = state.__dict__["_order"] = (
            tuple(obligations) if len(obligations) < 2
            else tuple(sorted(obligations, key=Obligation.sort_key))
        )
    return order


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
        goal, h2 = ob2.goal, ob2._contents
        if not any(ob1.goal == goal and ob1._contents <= h2 for ob1 in o1.obligations):
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
    hypothesis reordering. Used to key the failure table.

    The key is computed on the first call and stored on the (frozen) state,
    outside its fields, so the search and `BridgedEnvironment` share one
    serialization per state object."""
    key = state.__dict__.get("_key")
    if key is None:
        payload = {
            "error": state.error_message,
            "obligations": [
                [ob.goal, ob._by_name] for ob in ordered_obligations(state)
            ],
        }
        key = state.__dict__["_key"] = _encode_key(payload)
    return key


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
