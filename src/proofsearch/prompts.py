"""Prompt serialization protocol: rendering search state into the
keyword-structured agent prompt, and parsing model responses back into
tactics.

The agent-prompt grammar and the response grammar are documented in
docs/prompt-grammar.md; `check_agent_grammar` in tests/test_prompts.py is
the reference checker for the former. System prompts are fixed per
environment style and shipped as assets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from .core import GlobalContext, InfrastructureFailure, ProofState, ordered_obligations

NATURAL_STOP = "natural-stop"
LENGTH_CAP = "length-cap"

_ASSETS = {
    "lean": "system_lean.txt",
    "coq": "system_coq.txt",
}

_SECTION_GOALS = "goals"
_SECTION_INFORMAL = "informal"
_SECTION_STEPS = "steps"
_SECTION_RETRIEVED = "retrieved"
_SECTION_INCORRECT = "incorrect"
_SECTION_LAST = "last"
_SECTION_NOTICE = "notice"

# dropped first under budget pressure; goals and the format notice never drop
_DROP_ORDER = (_SECTION_STEPS, _SECTION_INFORMAL, _SECTION_RETRIEVED,
               _SECTION_INCORRECT, _SECTION_LAST)


class PromptBudgetError(InfrastructureFailure):
    """The token budget cannot even fit the current goals."""


@dataclass
class PromptBundle:
    """Everything promptify needs: the current state, the failure set at
    it, retrieval results, global context, and last-step feedback."""

    state: ProofState
    bad_tactics: Sequence[str] = ()
    retrieved: list | None = None  # (record, score) pairs from `retrieve`
    context: GlobalContext | None = None
    steps: Sequence[str] = ()
    last_step: str | None = None
    last_outcome: str | None = None  # "success" or an error message
    format_error_notice: str | None = None


@dataclass(frozen=True)
class AgentPrompt:
    system: str
    agent_text: str
    token_estimate: int


@dataclass(frozen=True)
class ParsedAction:
    tactic: str


@dataclass(frozen=True)
class FormatError:
    reason: str
    repair_message: str


def estimate_tokens(text: str) -> int:
    """Token estimate: ceil(len / 4)."""
    return math.ceil(len(text) / 4)


@functools.cache
def system_prompt(style: str = "lean") -> str:
    try:
        asset = _ASSETS[style]
    except KeyError:
        raise ValueError(f"unknown system-prompt style {style!r}") from None
    return resources.files("proofsearch.assets").joinpath(asset).read_text(encoding="utf-8")


@functools.cache
def sketch_prompt() -> str:
    return resources.files("proofsearch.assets").joinpath("sketch_fewshot.txt").read_text(
        encoding="utf-8"
    )


def _render_goals(state: ProofState, retrieved: list | None) -> str:
    """The goals block, with the retrieved entries under the first goal.
    A block without entries is rendered on the first call and stored on
    the (frozen) state, outside its fields: the search prompts at a state
    several times."""
    if not retrieved:
        text = state.__dict__.get("_goals")
        if text is None:
            text = state.__dict__["_goals"] = _goals_block(state, None)
        return text
    return _goals_block(state, retrieved)


def _goals_block(state: ProofState, retrieved: list | None) -> str:
    lines = ["[GOALS]"]
    for i, obligation in enumerate(ordered_obligations(state), start=1):
        lines.append(f"[GOAL] {i}")
        lines.append(obligation.goal)
        if obligation.hypotheses:
            lines.append(f"[HYPOTHESES] {i}")
            lines.extend(f"[HYPOTHESIS] {name} : {prop}"
                         for name, prop in obligation.sorted_hypotheses)
        if i == 1 and retrieved:
            definitions = [r for r, _ in retrieved if r.kind == "definition"]
            theorems = [r for r, _ in retrieved if r.kind == "lemma"]
            if definitions:
                lines.append(f"[DEFINITIONS] {i}")
                lines.extend(f"[DEFINITION] {r.name} : {r.statement}" for r in definitions)
            if theorems:
                lines.append(f"[THEOREMS] {i}")
                lines.extend(f"[THEOREM] {r.name} : {r.statement}" for r in theorems)
    return "\n".join(lines)


def _sections(bundle: PromptBundle) -> dict:
    sections = {_SECTION_GOALS: _render_goals(bundle.state, bundle.retrieved)}
    if bundle.context is not None and bundle.context.informal_hints:
        sections[_SECTION_INFORMAL] = "[INFORMAL-PROOF]\n" + bundle.context.informal_hints.strip()
    if bundle.steps:
        sections[_SECTION_STEPS] = "[STEPS]" + "".join(f"[STEP]{t}" for t in bundle.steps)
    if bundle.bad_tactics:
        sections[_SECTION_INCORRECT] = "[INCORRECT STEPS]" + "".join(
            f"[STEP]{t}" for t in bundle.bad_tactics
        )
    if bundle.last_step is not None:
        if bundle.last_outcome == "success":
            tail = "[SUCCESS]"
        else:
            tail = f"[ERROR MESSAGE]\n{bundle.last_outcome or ''}".rstrip()
        sections[_SECTION_LAST] = f"[LAST STEP] {bundle.last_step}\n{tail}"
    if bundle.format_error_notice:
        sections[_SECTION_NOTICE] = bundle.format_error_notice
    return sections


_SECTION_RENDER_ORDER = (
    _SECTION_GOALS,
    _SECTION_INFORMAL,
    _SECTION_STEPS,
    _SECTION_INCORRECT,
    _SECTION_LAST,
    _SECTION_NOTICE,
)


def _assemble(sections: dict) -> str:
    parts = [sections[name] for name in _SECTION_RENDER_ORDER if name in sections]
    if _SECTION_NOTICE in sections:
        # the repair notice carries its own closing [END]
        return "\n".join(parts)
    return "\n".join(parts + ["[END]"])


def promptify(bundle: PromptBundle, token_budget: int, style: str = "lean") -> AgentPrompt:
    """Render the agent prompt, trimming sections to fit the budget.

    Sections drop in a fixed priority order; the goals block (and a
    pending format-error notice) are never dropped. If even those exceed
    the budget, a PromptBudgetError is raised.
    """
    if bundle.state.is_error:
        raise ValueError("cannot promptify an error state")
    sections = _sections(bundle)
    for drop in (None, *_DROP_ORDER):  # None: try the full prompt first
        if drop == _SECTION_RETRIEVED:
            # the retrieved entries live inside the goals block
            sections[_SECTION_GOALS] = _render_goals(bundle.state, None)
        else:
            sections.pop(drop, None)
        text = _assemble(sections)
        estimate = estimate_tokens(text)
        if estimate <= token_budget:
            return AgentPrompt(system_prompt(style), text, estimate)
    raise PromptBudgetError(
        f"token budget {token_budget} cannot fit the goals section (needs about {estimate})"
    )


_RUN_TACTIC = "[RUN TACTIC]"
_END = "[END]"


def repair_message(response: str, stop_reason: str) -> str:
    stop = "length" if stop_reason == LENGTH_CAP else "stop"
    return (
        "[ERROR]\n"
        f"Invalid response:\n'{response}', \n"
        f"Stopping Reason: '{stop}'.\n"
        " Please respond only in the format specified.[END]"
    )


def parse_tactic(response: str, stop_reason: str = NATURAL_STOP):
    """Extract the single proof step from a model response.

    Complete responses look like "[RUN TACTIC] ... [END]". When the
    response was cut off by the model's output-token cap, the text after
    [RUN TACTIC] is salvaged. Everything else is a FormatError carrying
    the repair message to send back.
    """
    def fail(reason: str) -> FormatError:
        return FormatError(reason, repair_message(response, stop_reason))

    start = response.find(_RUN_TACTIC)
    if start < 0:
        return fail("response does not contain [RUN TACTIC]")
    body = response[start + len(_RUN_TACTIC):]
    end = body.find(_END)
    if end >= 0:
        tactic = body[:end].strip()
    elif stop_reason == LENGTH_CAP:
        tactic = body.strip()
    else:
        return fail("response does not contain [END]")
    if not tactic:
        return fail("empty tactic between [RUN TACTIC] and [END]")
    return ParsedAction(tactic)

