"""Surface syntax of the toy prover's tactics.

Accepted forms:

    intro NAME
    split
    assumption
    exact NAME
    refl
    rw NAME          rewrite left-to-right with equation NAME
    rw <- NAME       rewrite right-to-left ("←" is accepted too)
    apply NAME

A single trailing comma is tolerated (Lean habit). Anything else is a
parse error whose message doubles as environment feedback.
"""

from __future__ import annotations

from dataclasses import dataclass


KNOWN_TACTICS = ("apply", "assumption", "exact", "intro", "refl", "rw", "split")

_NO_ARG = ("split", "assumption", "refl")
_ONE_NAME = ("intro", "exact", "apply")


class ToyTacticParseError(Exception):
    """Parse failure with position and expected-token information."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(message)
        self.position = position


class ToyTactic:
    __slots__ = ()


@dataclass(frozen=True)
class Intro(ToyTactic):
    name: str


@dataclass(frozen=True)
class Split(ToyTactic):
    pass


@dataclass(frozen=True)
class Assumption(ToyTactic):
    pass


@dataclass(frozen=True)
class Exact(ToyTactic):
    name: str


@dataclass(frozen=True)
class Refl(ToyTactic):
    pass


@dataclass(frozen=True)
class Rw(ToyTactic):
    name: str
    reverse: bool = False


@dataclass(frozen=True)
class Apply(ToyTactic):
    name: str


def parse_toy_tactic(text: str) -> ToyTactic:
    raw = text.strip()
    if raw.endswith(","):
        raw = raw[:-1].rstrip()
    if not raw:
        raise ToyTacticParseError(
            "empty tactic at position 0; expected one of: " + ", ".join(KNOWN_TACTICS)
        )
    parts = raw.split()
    head, args = parts[0], parts[1:]
    if head not in KNOWN_TACTICS:
        raise ToyTacticParseError(
            f"unknown tactic {head!r} at position 0; expected one of: "
            + ", ".join(KNOWN_TACTICS)
        )
    arg_pos = len(head) + 1
    if head in _NO_ARG:
        if args:
            raise ToyTacticParseError(
                f"{head!r} takes no argument at position {arg_pos}", arg_pos
            )
        return {"split": Split, "assumption": Assumption, "refl": Refl}[head]()
    if head in _ONE_NAME:
        if len(args) != 1:
            raise ToyTacticParseError(
                f"expected exactly one name after {head!r} at position {arg_pos}",
                arg_pos,
            )
        cls = {"intro": Intro, "exact": Exact, "apply": Apply}[head]
        return cls(args[0])
    # rw [<-] NAME
    if args and args[0] in ("<-", "←"):
        args = args[1:]
        if len(args) != 1:
            raise ToyTacticParseError(
                f"expected an equation name after 'rw {parts[1]}' at position {arg_pos}",
                arg_pos,
            )
        return Rw(args[0], reverse=True)
    if len(args) != 1:
        raise ToyTacticParseError(
            f"expected an equation name after 'rw' at position {arg_pos}", arg_pos
        )
    return Rw(args[0], reverse=False)

