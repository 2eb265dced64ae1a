"""Deterministic stand-in for the guidance model.

The stand-in reads only the prompt it is sent and the seed. It parses the
first goal, its hypotheses and retrieved theorems, the informal sketch,
the steps taken, the incorrect steps and the last step, and answers with
the first candidate tactic that the prompt does not mark as already
tried. What each layer put into the prompt therefore decides the outcome:
a lost hypothesis, a missing incorrect-step list or a wrong retrieval
ranking shows up as a failed or longer proof.

Candidates, in order:
  1. at an implication, k decoys `exact NAME` with hypotheses that do not
     match the goal, picked by a hash of the seed and the goal, where
     k = (seed + number of steps so far) % 3; then `intro`;
  2. at an equality not reached by a rewrite, `rw NAME` for each
     equation hypothesis other than the goal whose left side occurs in
     the goal (in the generated suites these lead into dead ends);
  3. `exact NAME` for a hypothesis equal to the goal;
  4. at a conjunction, `split`; right after a rewrite, its undo
     `rw <- NAME` (a no-progress move);
  5. with an informal sketch that names the goal, `apply NAME` for each
     retrieved theorem that concludes the goal, in rank order;
  6. `assumption`; after that the stand-in gives up with a reply that
     is not in the response format.
A step is skipped when it is listed as incorrect, or when it is the last
step, reported a success, and the search came back to this state (the
steps taken do not end with it): the subtree below it failed.
"""

from __future__ import annotations

import re
import zlib
from functools import cached_property

from proofsearch.llm import Completion, GuidanceBackend
from proofsearch.prompts import NATURAL_STOP

GIVE_UP = "I cannot find a tactic that makes progress here."


class CallCounter:
    """Calls made to every stand-in model of one run."""

    def __init__(self):
        self.calls = 0


def split_top(text: str, op: str) -> tuple | None:
    """(left, right) around the first `op` outside parentheses, or None."""
    if "(" not in text:
        left, found, right = text.partition(op)
        return (left.strip(), right.strip()) if found else None
    depth = 0
    i = 0
    while i < len(text):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0 and text.startswith(op, i):
            return text[:i].strip(), text[i + len(op):].strip()
        i += 1
    return None


def conclusion(statement: str) -> str:
    """The right-most conclusion of a chain of implications."""
    parts = split_top(statement, "->")
    while parts is not None:
        statement = parts[1]
        parts = split_top(statement, "->")
    return statement


_GOAL = re.compile(r"\[GOAL\] 1\n(.*)")
_HYPOTHESIS = re.compile(r"\[HYPOTHESIS\] (\S+) : (.*)")
_INTRO_NAME = re.compile(r"\[HYPOTHESIS\] (h\d+) : ")
_THEOREM = re.compile(r"\[THEOREM\] (\S+) : (.*)")
_INFORMAL = re.compile(r"\[INFORMAL-PROOF\]\n(.*?)\n\[", re.S)
_STEPS = re.compile(r"\n\[STEPS\](.*)")
_INCORRECT = re.compile(r"\[INCORRECT STEPS\](.*)")
_LAST = re.compile(r"\[LAST STEP\] (.*)\n(.*)")


class PromptView:
    """The fields of an agent prompt that the stand-in reads; hypotheses
    and theorems are those of the first goal, parsed on first use."""

    def __init__(self, text: str):
        self.text = text
        goal = _GOAL.search(text)
        self.goal = goal.group(1) if goal else ""
        informal = _INFORMAL.search(text)
        self.informal = informal.group(1) if informal else ""
        steps = _STEPS.search(text)
        self.steps = steps.group(1).split("[STEP]")[1:] if steps else []
        incorrect = _INCORRECT.search(text)
        self.incorrect = incorrect.group(1).split("[STEP]")[1:] if incorrect else []
        last = _LAST.search(text)
        self.last_step = last.group(1) if last else None
        self.last_ok = bool(last) and last.group(2) == "[SUCCESS]"

    @cached_property
    def first_goal(self) -> str:
        second = self.text.find("\n[GOAL] 2\n")
        return self.text if second < 0 else self.text[:second]

    @cached_property
    def hyps(self) -> list:
        """(name, prop) pairs in prompt order."""
        return _HYPOTHESIS.findall(self.first_goal)

    @cached_property
    def theorems(self) -> list:
        """(name, statement) pairs in rank order."""
        return _THEOREM.findall(self.first_goal)

    def fresh_name(self) -> str:
        """The first of h1, h2, ... that no hypothesis uses."""
        used = set(_INTRO_NAME.findall(self.first_goal))
        n = 1
        while f"h{n}" in used:
            n += 1
        return f"h{n}"


class StandInModel(GuidanceBackend):
    """One episode's guidance backend; see the module docstring."""

    def __init__(self, seed: int, counter: CallCounter):
        self.seed = seed
        self.counter = counter

    def complete(self, request) -> Completion:
        self.counter.calls += 1
        user = request.turns[-1][1]
        if user.startswith("Theorem: "):
            goal = user[len("Theorem: "):].rsplit("⊢ ", 1)[-1].strip()
            text = (f"Find a library lemma whose conclusion is {goal}, apply it, "
                    "then close its premise from the hypotheses.")
            return Completion(text, NATURAL_STOP, 0.0)
        tactic = self.choose(PromptView(user))
        text = GIVE_UP if tactic is None else f"[RUN TACTIC] {tactic} [END]"
        return Completion(text, NATURAL_STOP, 0.0)

    def choose(self, view: PromptView) -> str | None:
        goal = view.goal
        avoid = set(view.incorrect)
        if view.last_ok and (not view.steps or view.steps[-1] != view.last_step):
            avoid.add(view.last_step)
        for tactic in self.candidates(view, goal):
            if tactic not in avoid:
                return tactic
        return None

    def candidates(self, view: PromptView, goal: str):
        if split_top(goal, "->") is not None:
            k = (self.seed + len(view.steps)) % 3
            others = [name for name, prop in view.hyps if prop != goal] if k else []
            if others:
                first = zlib.crc32(f"{self.seed}|{goal}".encode())
                for i in range(min(k, len(others))):
                    yield f"exact {others[(first + i) % len(others)]}"
            yield f"intro {view.fresh_name()}"
            return
        conj = split_top(goal, "/\\") is not None
        after_rw = bool(view.steps) and view.steps[-1].startswith("rw ")
        sides = None if conj or after_rw else split_top(goal, "=")
        if sides is not None:
            for name, prop in view.hyps:
                eq = split_top(prop, "=")
                if eq is not None and prop != goal and eq[0] in sides:
                    yield f"rw {name}"
        yield from (f"exact {name}" for name, prop in view.hyps if prop == goal)
        if conj:
            yield "split"
        elif after_rw:
            yield "rw <- " + view.steps[-1].split()[-1]
        if goal and goal in view.informal:
            for name, statement in view.theorems:
                if conclusion(statement) == goal:
                    yield f"apply {name}"
        yield "assumption"
