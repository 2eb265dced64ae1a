"""Abstract proof environment: states, obligations, transitions, and the
progress order used by the search.

A proof state is either a finite set of obligations or an absorbing error
state carrying the obligations at the point of failure plus a feedback
message. The empty, non-error obligation set is the goal state (QED).
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from bisect import bisect, bisect_left
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring
from operator import attrgetter
from typing import Iterable, Mapping, Sequence


def normalize_text(text: str) -> str:
    """Collapse all whitespace runs to single spaces and strip the ends."""
    return " ".join(text.split())


class ErrorStateComparison(Exception):
    """Raised when the progress order is applied to an error state."""


class InfrastructureFailure(Exception):
    """A failure of what serves the search (the model's transport, the
    prover's adapter, a token budget too small for the goals), not of a
    proof: it aborts the episode, which is never counted as failed."""


@dataclass(frozen=True)
class GlobalContext:
    """Theorem statement plus optional informal proof sketch."""

    theorem_statement: str
    informal_hints: str | None = None

    def __post_init__(self):
        if not self.theorem_statement.strip():
            raise ValueError("theorem statement must be nonempty")


def _pair_text(pair: tuple) -> str:
    """`json.dumps(list(pair), ensure_ascii=False, separators=(",", ":"))`:
    the per-pair view whose pieces `canonical_key` joins."""
    return f"[{encode_basestring(pair[0])},{encode_basestring(pair[1])}]"


@dataclass(frozen=True)
class Obligation:
    """One (goal, hypotheses) pair the prover must discharge.

    `hypotheses` is the tuple of distinct (name, proposition) pairs in name
    order: the one order in which prompts, keys, the wire and retrieval
    list hypotheses. `Obligation(...)` and `Obligation.make` build it from
    any iterable of pairs, whitespace-normalizing goal and proposition
    text; identical pairs collapse to one, and two propositions under one
    name raise. So `==` and `hash` ignore the order pairs are given in.

    Derived views are kept on the instance, built on first read:
    `propositions` and `sort_key`, which are `functools.cached_property`s,
    and the per-pair views of `pair_view(render)`, one tuple of
    `render(pair)` over `hypotheses` for each render function asked for
    (the key's pair texts, the prompt's hypothesis lines), kept in the
    instance dict under the function itself, so this module knows none of
    their formats. None is a dataclass field, so `==`, `hash` and `repr`
    ignore them, and an obligation that is never asked for them pays
    nothing.

    A kernel that steps from an obligation builds its children with
    `with_goal` (same hypotheses, new goal) or `with_hypothesis` (one more
    pair, new goal). Both take text that is already normalized and a pair
    whose name is not in use, as they are. `with_goal` shares every view
    its parent has built (`sort_key` with the goal replaced).
    `with_hypothesis` inserts the new pair at its place in name order, and
    its rendering into each per-pair view its parent has built, and leaves
    `propositions` and `sort_key` to be built on first read. Either child
    is `==`, hashes and keys the same as one built through `make`.
    """

    goal: str
    hypotheses: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "goal", normalize_text(self.goal))
        pairs = tuple(sorted({(name.strip(), normalize_text(prop))
                              for name, prop in self.hypotheses}))
        if len({name for name, _ in pairs}) != len(pairs):
            raise ValueError("duplicate hypothesis names in obligation")
        object.__setattr__(self, "hypotheses", pairs)

    @classmethod
    def make(cls, goal: str, hypotheses: Mapping[str, str] | None = None) -> "Obligation":
        return cls(goal, (hypotheses or {}).items())

    def with_goal(self, goal: str) -> "Obligation":
        """This obligation's hypotheses under normalized goal text `goal`,
        with every view built here shared."""
        child = object.__new__(Obligation)
        views = child.__dict__
        views.update(self.__dict__, goal=goal)
        if "sort_key" in views:
            views["sort_key"] = (goal, views["sort_key"][1])
        return child

    def with_hypothesis(self, goal: str, pair: tuple) -> "Obligation":
        """This obligation plus the normalized (name, proposition) `pair`,
        whose name is not in use, under normalized goal text `goal`. The
        pair goes in at its place in name order, and so does its rendering
        in each per-pair view the parent has built."""
        child = object.__new__(Obligation)
        views = child.__dict__
        pairs = self.hypotheses
        at = bisect(pairs, pair)
        views.update(goal=goal, hypotheses=pairs[:at] + (pair,) + pairs[at:])
        for render, view in self.__dict__.items():
            if render.__class__ is not str:  # a per-pair view, keyed by its render
                views[render] = view[:at] + (render(pair),) + view[at:]
        return child

    def hypothesis(self, name: str) -> str | None:
        """The proposition under `name`, or None: a bisect lookup."""
        pairs = self.hypotheses
        at = bisect_left(pairs, (name,))
        if at < len(pairs) and pairs[at][0] == name:
            return pairs[at][1]
        return None

    def pair_view(self, render) -> tuple:
        """`tuple(map(render, self.hypotheses))`, built at the first call
        with this `render` (a function of one (name, proposition) pair,
        the same object at every call) and kept under it."""
        views = self.__dict__
        view = views.get(render)
        if view is None:
            view = views[render] = tuple(map(render, self.hypotheses))
        return view

    @cached_property
    def propositions(self) -> frozenset:
        """The hypotheses' propositions, names dropped."""
        return frozenset(prop for _, prop in self.hypotheses)

    @cached_property
    def sort_key(self) -> tuple:
        """The obligation's place in `ProofState.obligations`: goal text,
        then the (proposition, name) pairs in order."""
        return (self.goal, sorted((prop, name) for name, prop in self.hypotheses))


def _in_order(obligations: Iterable[Obligation]) -> tuple:
    """The distinct obligations in `sort_key` order. Distinct obligations
    have distinct sort keys, so the order is total."""
    obligations = tuple(obligations)
    if len(obligations) < 2:  # nothing to sort
        return obligations
    return tuple(sorted(set(obligations), key=attrgetter("sort_key")))


@dataclass(frozen=True)
class ProofState:
    """Obligations, optionally marked as an absorbing error state.

    `obligations` is the tuple of distinct obligations in `sort_key` order
    (by goal text, then by hypothesis list): the order in which the kernel
    focuses, and prompts, keys, the wire and retrieval list goals. The
    constructors build it from any iterable, so identical obligations
    collapse to one and `==` and `hash` ignore the order given;
    `with_error` keeps a state's stored tuple as it is.

    QED is the non-error state with no obligations. Error states keep the
    obligations that were pending when the tactic failed, plus the
    environment's feedback message.

    The canonical key is a private `functools.cached_property`, read
    through `canonical_key`: the search and `BridgeSession` share one per
    state object, and `==`, `hash` and `repr` ignore it.
    """

    obligations: tuple
    error_message: str | None = None

    @classmethod
    def of(cls, obligations: Iterable[Obligation]) -> "ProofState":
        return cls(_in_order(obligations))

    @classmethod
    def qed(cls) -> "ProofState":
        return cls(())

    @classmethod
    def error(cls, obligations: Iterable[Obligation], message: str) -> "ProofState":
        return cls(_in_order(obligations)).with_error(message)

    def with_error(self, message: str) -> "ProofState":
        """The error state with this state's obligations, kept in their
        stored order, and feedback `message`: `error` without the sort."""
        if not message:
            raise ValueError("error states need a feedback message")
        return ProofState(self.obligations, message)

    @property
    def is_error(self) -> bool:
        return self.error_message is not None

    @property
    def is_qed(self) -> bool:
        return not self.is_error and not self.obligations

    @cached_property
    def _canonical_key(self) -> str:
        # the compact JSON text of {"error": ..., "obligations": [[goal,
        # hypotheses], ...]}, joined from each obligation's pair texts
        error = "null" if self.error_message is None else encode_basestring(self.error_message)
        obligations = []
        for ob in self.obligations:
            # a built view is read from the instance dict, without the call
            texts = ob.__dict__.get(_pair_text) or ob.pair_view(_pair_text)
            obligations.append(f'[{encode_basestring(ob.goal)},[{",".join(texts)}]]')
        return f'{{"error":{error},"obligations":[{",".join(obligations)}]}}'


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


def make_json_encoder():
    """`json.dumps(value, ensure_ascii=False)` as one prebuilt encoder.

    `JSONEncoder.encode` builds a new C encoder at every call; this builds
    it once, from the private `json.encoder.c_make_encoder` with the same
    settings. Where that is missing or rejects the arguments, it falls back
    to `JSONEncoder.encode`, which writes the same text. Neither path
    checks for circular references: each value given is a tree the program
    builds (one that held itself would still raise, as RecursionError).
    """
    settings = json.JSONEncoder(ensure_ascii=False, check_circular=False)
    make = json.encoder.c_make_encoder
    if make is not None:
        try:
            chunks = make(None, settings.default, encode_basestring, settings.indent,
                          settings.key_separator, settings.item_separator,
                          settings.sort_keys, settings.skipkeys, settings.allow_nan)
        except TypeError:
            pass
        else:
            return lambda value: "".join(chunks(value, 0))
    return settings.encode


# One encoder for every trace line, wire request and adapter reply
encode_json = make_json_encoder()


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
