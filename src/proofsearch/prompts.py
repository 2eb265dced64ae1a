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

from .core import GlobalContext, InfrastructureFailure, ProofState

NATURAL_STOP = "natural-stop"
LENGTH_CAP = "length-cap"

_ASSETS = {
    "lean": "system_lean.txt",
    "coq": "system_coq.txt",
}


class PromptBudgetError(InfrastructureFailure):
    """The token budget cannot even fit the current goals."""


@dataclass
class PromptBundle:
    """Everything promptify needs: the current state, the failure set at
    it, retrieval results, global context, and last-step feedback.

    The search builds one bundle per frame and prompts it at every query
    there. Once a bundle is prompted, `state`, `retrieved`, `context` and
    `steps` stay fixed: `promptify` joins their sections once and keeps
    the text on the bundle, outside its fields. A query changes only the
    rest: `bad_tactics` grows, and `last_step`, `last_outcome` and
    `format_error_notice` are set."""

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


def _hypothesis_line(pair: tuple) -> str:
    return f"[HYPOTHESIS] {pair[0]} : {pair[1]}"


def _goals(state: ProofState) -> tuple:
    """The goals block as (head, rest): the first goal with its hypotheses,
    where the retrieved entries attach, and the goals after it. Rendered
    on the first call and stored on the (frozen) state, outside its
    fields: a frame's bundle joins it into its fixed text once, and the
    stages of an episode push the same root state. The `[HYPOTHESIS]`
    lines are each obligation's `pair_view` of `_hypothesis_line`, which
    a kernel child inherits from its parent with only its new pair's line
    rendered."""
    goals = state.__dict__.get("_goals")
    if goals is None:
        blocks = []
        for i, obligation in enumerate(state.obligations, start=1):
            lines = [f"[GOAL] {i}", obligation.goal]
            if obligation.hypotheses:
                lines.append(f"[HYPOTHESES] {i}")
                lines.extend(obligation.pair_view(_hypothesis_line))
            blocks.append("\n".join(lines))
        goals = state.__dict__["_goals"] = ("\n".join(["[GOALS]", *blocks[:1]]),
                                            "\n".join(blocks[1:]))
    return goals


def _entries(retrieved: list) -> str:
    """The first goal's retrieved definitions and theorems."""
    lines = []
    for kind, heading, entry in (("definition", "[DEFINITIONS] 1", "[DEFINITION]"),
                                 ("lemma", "[THEOREMS] 1", "[THEOREM]")):
        records = [record for record, _ in retrieved if record.kind == kind]
        if records:
            lines.append(heading)
            lines.extend(f"{entry} {r.name} : {r.statement}" for r in records)
    return "\n".join(lines)


def _fixed(bundle: PromptBundle) -> tuple:
    """The bundle's fixed sections as (text, sections). `sections` holds
    the goals with the retrieved entries, the informal sketch and the
    steps taken, as (text, drop rank) pairs in render order, an empty
    text absent; `text` joins them. Built on the first call and kept on
    the bundle, outside its fields, as `_goals` is kept on the state."""
    fixed = bundle.__dict__.get("_fixed")
    if fixed is None:
        if bundle.state.is_error:
            raise ValueError("cannot promptify an error state")
        head, rest = _goals(bundle.state)
        hints = bundle.context.informal_hints if bundle.context is not None else None
        sections = (
            (head, 0),
            (_entries(bundle.retrieved) if bundle.retrieved else "", 3),
            (rest, 0),
            ("[INFORMAL-PROOF]\n" + hints.strip() if hints else "", 2),
            ("[STEPS][STEP]" + "[STEP]".join(bundle.steps) if bundle.steps else "", 1),
        )
        fixed = bundle.__dict__["_fixed"] = ("\n".join([part for part, _ in sections if part]),
                                             sections)
    return fixed


def promptify(bundle: PromptBundle, token_budget: int, style: str = "lean") -> AgentPrompt:
    """Render the agent prompt, trimming sections to fit the budget.

    Each section has a drop rank: under budget pressure rank 1 drops
    first, then 2, up to 5. The goals and the closing notice or [END]
    have rank 0 and never drop. If even those exceed the budget, a
    PromptBudgetError is raised. The fixed sections are joined once per
    bundle (`_fixed`); each call joins that text with its own incorrect
    steps, last step and notice or [END], and only a prompt over budget
    is joined again section by section.
    """
    fixed, sections = _fixed(bundle)
    last = ""
    if bundle.last_step is not None:
        if bundle.last_outcome == "success":
            tail = "[SUCCESS]"
        else:
            tail = f"[ERROR MESSAGE]\n{bundle.last_outcome or ''}".rstrip()
        last = f"[LAST STEP] {bundle.last_step}\n{tail}"
    bad = bundle.bad_tactics
    incorrect = "[INCORRECT STEPS][STEP]" + "[STEP]".join(bad) if bad else ""
    closing = bundle.format_error_notice or "[END]"  # the notice carries its own [END]
    text = "\n".join([part for part in (fixed, incorrect, last, closing) if part])
    estimate = estimate_tokens(text)
    if estimate <= token_budget:
        return AgentPrompt(system_prompt(style), text, estimate)
    sections += ((incorrect, 4), (last, 5), (closing, 0))
    for dropped in range(1, 6):  # ranks 1..dropped are left out
        text = "\n".join([part for part, rank in sections
                          if part and not 0 < rank <= dropped])
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

