"""Prompt serialization: agent-prompt rendering, token-budget trimming,
the response parser with partial-response salvage, and the repair message."""

import random
import re
from dataclasses import replace
from importlib import resources
from types import SimpleNamespace

import pytest

import proofsearch.agent
from proofsearch import prompts
from proofsearch.cli import main as cli_main
from proofsearch.core import GlobalContext, Obligation, ProofState
from proofsearch.prompts import (
    AgentPrompt,
    FormatError,
    LENGTH_CAP,
    NATURAL_STOP,
    ParsedAction,
    PromptBudgetError,
    PromptBundle,
    estimate_tokens,
    parse_tactic,
    promptify,
    repair_message,
    sketch_prompt,
    system_prompt,
)
from proofsearch.retrieval import LemmaRecord
from proofsearch.trace import EpisodeTrace, QueryRecord

from conftest import CORPUS_PATH, SUITE_PATH, fuzz_bundle, fuzz_tactic


def single_state(goal, hyps=None):
    return ProofState.of([Obligation.make(goal, hyps or {})])


BIG_BUDGET = 100_000


class TestEstimateTokens:
    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_exact_multiple(self):
        assert estimate_tokens("a" * 8) == 2

    def test_ceiling(self):
        assert estimate_tokens("a" * 9) == 3


class TestSystemPrompts:
    def test_styles_load_and_differ(self):
        lean = system_prompt("lean")
        coq = system_prompt("coq")
        assert "[RUN TACTIC]" in lean and "[RUN TACTIC]" in coq
        assert lean != coq

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            system_prompt("isabelle")

    def test_sketch_prompt_has_examples(self):
        assert sketch_prompt().strip()

    def test_asset_read_once(self, monkeypatch):
        reads = []

        def counting_files(package):
            reads.append(package)
            return resources.files(package)

        monkeypatch.setattr(prompts, "resources", SimpleNamespace(files=counting_files))
        system_prompt.cache_clear()
        sketch_prompt.cache_clear()
        assert system_prompt("lean") == system_prompt("lean")
        assert sketch_prompt() == sketch_prompt()
        assert len(reads) == 2


class TestPromptifyGolden:
    def test_minimal_goal_with_hypothesis(self):
        bundle = PromptBundle(state=single_state("x * x % 2 = 0", {"h": "x % 2 = 0"}))
        prompt = promptify(bundle, BIG_BUDGET)
        assert prompt.agent_text == (
            "[GOALS]\n"
            "[GOAL] 1\n"
            "x * x % 2 = 0\n"
            "[HYPOTHESES] 1\n"
            "[HYPOTHESIS] h : x % 2 = 0\n"
            "[END]"
        )
        assert "[INCORRECT STEPS]" not in prompt.agent_text
        assert isinstance(prompt, AgentPrompt)
        assert prompt.token_estimate == estimate_tokens(prompt.agent_text)

    def test_incorrect_steps_inline_section(self):
        bundle = PromptBundle(
            state=single_state("g"),
            bad_tactics=["apply h₁,", "rw ←h₁"],
        )
        text = promptify(bundle, BIG_BUDGET).agent_text
        assert "[INCORRECT STEPS][STEP]apply h₁,[STEP]rw ←h₁" in text

    def test_steps_inline_section(self):
        bundle = PromptBundle(state=single_state("g"), steps=["intros a.", "induction a."])
        text = promptify(bundle, BIG_BUDGET).agent_text
        assert "[STEPS][STEP]intros a.[STEP]induction a." in text

    def test_last_step_success(self):
        bundle = PromptBundle(
            state=single_state("g"), last_step="intro h", last_outcome="success"
        )
        text = promptify(bundle, BIG_BUDGET).agent_text
        assert "[LAST STEP] intro h\n[SUCCESS]" in text

    def test_last_step_error_message(self):
        bundle = PromptBundle(
            state=single_state("g"),
            last_step="refl",
            last_outcome="refl failed: goal is not an equality",
        )
        text = promptify(bundle, BIG_BUDGET).agent_text
        assert "[LAST STEP] refl\n[ERROR MESSAGE]\nrefl failed: goal is not an equality" in text

    def test_multiple_goals_numbered(self):
        state = ProofState.of([Obligation.make("A"), Obligation.make("B", {"h": "P"})])
        text = promptify(PromptBundle(state=state), BIG_BUDGET).agent_text
        assert "[GOAL] 1\nA\n" in text
        assert "[GOAL] 2\nB\n[HYPOTHESES] 2\n[HYPOTHESIS] h : P" in text

    def test_retrieved_records_attach_to_first_goal(self):
        retrieved = [
            (LemmaRecord("l_ab", "a = b", "lemma"), 2.0),
            (LemmaRecord("d_gcd", "gcd a b", "definition"), 1.0),
        ]
        bundle = PromptBundle(state=single_state("a = b"), retrieved=retrieved)
        text = promptify(bundle, BIG_BUDGET).agent_text
        assert "[DEFINITIONS] 1\n[DEFINITION] d_gcd : gcd a b" in text
        assert "[THEOREMS] 1\n[THEOREM] l_ab : a = b" in text

    def test_informal_hints_rendered(self):
        gctx = GlobalContext(theorem_statement="t", informal_hints="Use reflexivity.")
        text = promptify(PromptBundle(state=single_state("g"), context=gctx), BIG_BUDGET).agent_text
        assert "[INFORMAL-PROOF]\nUse reflexivity." in text

    def test_format_notice_supplies_closing_end(self):
        notice = repair_message("Great!", NATURAL_STOP)
        bundle = PromptBundle(state=single_state("g"), format_error_notice=notice)
        text = promptify(bundle, BIG_BUDGET).agent_text
        assert text.endswith(" Please respond only in the format specified.[END]")
        assert text.count("[END]") == 1

    def test_error_state_rejected(self):
        err = ProofState.error([Obligation.make("g")], "boom")
        with pytest.raises(ValueError):
            promptify(PromptBundle(state=err), BIG_BUDGET)

    def test_retrieved_entries_neither_read_nor_fill_the_goals_cache(self):
        state = single_state("a = c", {"h1": "a = b", "h2": "b = c"})
        retrieved = [(LemmaRecord("l_ab", "a = b", "lemma"), 1.5),
                     (LemmaRecord("d_c", "c", "definition"), 0.5)]
        first = promptify(PromptBundle(state, retrieved=retrieved), BIG_BUDGET)
        # whatever the state caches outside its fields holds no retrieved entry
        cached = repr(vars(state))
        assert "[GOALS]" in cached
        assert "[THEOREM]" not in cached and "[DEFINITION]" not in cached
        plain = promptify(PromptBundle(state), BIG_BUDGET)
        again = promptify(PromptBundle(state, retrieved=retrieved), BIG_BUDGET)
        assert "[THEOREM]" not in repr(vars(state)) and "[DEFINITION]" not in repr(vars(state))
        assert again == first
        assert "[THEOREM] l_ab : a = b" in again.agent_text
        assert "[THEOREM]" not in plain.agent_text
        assert promptify(PromptBundle(state), BIG_BUDGET) == plain


def full_bundle():
    retrieved = [(LemmaRecord("l_ab", "a = b", "lemma"), 1.5)]
    gctx = GlobalContext(theorem_statement="t", informal_hints="Rewrite twice, then refl.")
    return PromptBundle(
        state=single_state("a = c", {"h1": "a = b", "h2": "b = c"}),
        bad_tactics=["refl", "split"],
        retrieved=retrieved,
        context=gctx,
        steps=["intro h"],
        last_step="split",
        last_outcome="split failed: goal is not a conjunction",
    )


SECTION_MARKS = {
    "steps": "[STEPS]",
    "informal": "[INFORMAL-PROOF]",
    "retrieved": "[THEOREMS] 1",
    "incorrect": "[INCORRECT STEPS]",
    "last": "[LAST STEP]",
}


class TestTrimming:
    def test_drop_order(self):
        # shrink the budget one token at a time and log each section's death
        last_seen = dict.fromkeys(SECTION_MARKS, None)
        budget = promptify(full_bundle(), BIG_BUDGET).token_estimate
        floor = None
        while budget > 0:
            try:
                text = promptify(full_bundle(), budget).agent_text
            except PromptBudgetError:
                floor = budget
                break
            for name, mark in SECTION_MARKS.items():
                if mark in text and (last_seen[name] is None or budget < last_seen[name]):
                    last_seen[name] = budget
            budget -= 1
        assert floor is not None, "goals section should eventually overflow"
        # sections must disappear in the documented priority order
        assert (
            last_seen["steps"]
            >= last_seen["informal"]
            >= last_seen["retrieved"]
            >= last_seen["incorrect"]
            >= last_seen["last"]
        )

    def test_goals_survive_to_the_floor(self):
        budget = BIG_BUDGET
        while budget > 0:
            try:
                text = promptify(full_bundle(), budget).agent_text
            except PromptBudgetError:
                break
            assert text.startswith("[GOALS]\n[GOAL] 1\na = c")
            budget -= 1

    def test_monotone_sections(self):
        marks = list(SECTION_MARKS.values())
        previous_present = None
        for budget in range(1, promptify(full_bundle(), BIG_BUDGET).token_estimate + 2):
            try:
                text = promptify(full_bundle(), budget).agent_text
            except PromptBudgetError:
                previous_present = None
                continue
            present = {mark for mark in marks if mark in text}
            if previous_present is not None:
                assert previous_present <= present
            previous_present = present

    def test_estimate_never_exceeds_budget(self):
        for budget in (40, 60, 90, 140, 100_000):
            prompt = promptify(full_bundle(), budget)
            assert prompt.token_estimate <= budget

    def test_budget_too_small_for_goals(self):
        with pytest.raises(PromptBudgetError):
            promptify(PromptBundle(state=single_state("a" * 400)), 10)

    def test_notice_never_dropped(self):
        notice = repair_message("nope", NATURAL_STOP)
        bundle = full_bundle()
        bundle.format_error_notice = notice
        floor_text = None
        budget = promptify(bundle, BIG_BUDGET).token_estimate
        while budget > 0:
            try:
                floor_text = promptify(bundle, budget).agent_text
            except PromptBudgetError:
                break
            budget -= 1
        assert floor_text is not None
        assert "[ERROR]\nInvalid response:" in floor_text


def fresh(bundle):
    """A new bundle with the same field values; its lists are copies."""
    return replace(bundle, bad_tactics=list(bundle.bad_tactics), steps=list(bundle.steps))


def prompted(bundle, budget):
    """The prompt, or the message of the PromptBudgetError raised instead."""
    try:
        return promptify(bundle, budget)
    except PromptBudgetError as exc:
        return str(exc)


class TestFrameBundle:
    """The search prompts one bundle per frame: it joins the fixed sections
    once and changes only the incorrect steps, the last step and the
    notice from query to query."""

    @staticmethod
    def queries(bundle):
        """Walk the bundle through a frame's queries; yield at each."""
        yield
        bundle.bad_tactics.append("refl")
        bundle.last_step, bundle.last_outcome = "refl", "refl failed: goal is not an equation"
        yield
        bundle.format_error_notice = repair_message("Sure!", NATURAL_STOP)
        yield
        bundle.format_error_notice = None
        bundle.last_step, bundle.last_outcome = "intro h3", "success"
        yield
        bundle.bad_tactics.append("split")
        bundle.last_step, bundle.last_outcome = "split", "split failed: goal is not a conjunction"
        yield
        bundle.format_error_notice = repair_message("[RUN TACTIC] split", LENGTH_CAP)
        yield

    @staticmethod
    def first_query():
        bundle = full_bundle()
        bundle.bad_tactics, bundle.last_step, bundle.last_outcome = [], None, None
        return bundle

    def test_prompts_as_a_fresh_bundle_at_every_budget(self):
        """At every budget from the full prompt's down to below the goals
        floor, each prompt of the walk equals that of a new bundle."""
        walked = self.first_query()
        full = max(promptify(fresh(walked), BIG_BUDGET).token_estimate
                   for _ in self.queries(walked))
        floor = promptify(PromptBundle(walked.state), BIG_BUDGET).token_estimate
        assert isinstance(prompted(PromptBundle(walked.state), floor - 1), str)
        for budget in (BIG_BUDGET, *range(full, floor - 2, -1)):
            bundle = self.first_query()
            for n, _ in enumerate(self.queries(bundle)):
                assert prompted(bundle, budget) == prompted(fresh(bundle), budget), (budget, n)

    def test_fixed_sections_are_joined_once_a_frame(self, tmp_path, monkeypatch, capsys):
        bundles, calls = [], []  # each bundle is kept, so no two share an id

        def counting(bundle, *args):
            if "_fixed" not in vars(bundle):  # not joined yet
                bundles.append(bundle)
            calls.append(bundle)
            return promptify(bundle, *args)

        monkeypatch.setattr(proofsearch.agent, "promptify", counting)
        out = tmp_path / "out"
        assert cli_main(["run", "--suite", str(SUITE_PATH), "--corpus", str(CORPUS_PATH),
                         "--out", str(out), "--oracle-depth", "2"]) == 0
        capsys.readouterr()
        frames = queries = 0
        for path in sorted((out / "traces").iterdir()):
            log = [item for item in EpisodeTrace.load(path).log
                   if not (isinstance(item, tuple) and item[0] == "retrieve")]
            queries += sum(1 for item in log
                           if isinstance(item, QueryRecord) and item.result_class != "sketch")
            # a frame prompts when its push is followed by a query
            frames += sum(1 for item, after in zip(log, log[1:])
                          if isinstance(item, tuple) and item[0] == "push"
                          and isinstance(after, QueryRecord))
        assert len(bundles) == len({id(b) for b in bundles}) == frames
        assert len(calls) == queries
        assert frames < queries
        assert {id(b) for b in calls} == {id(b) for b in bundles}


class TestParseTactic:
    def test_appendix_induction_example(self):
        parsed = parse_tactic("[RUN TACTIC] induction c, [END]")
        assert parsed == ParsedAction("induction c,")

    def test_appendix_truncation_salvage(self):
        parsed = parse_tactic("[RUN TACTIC] linarith,", stop_reason=LENGTH_CAP)
        assert parsed == ParsedAction("linarith,")

    def test_appendix_repair_message_byte_exact(self):
        response = "Great! The proof is complete."
        parsed = parse_tactic(response, stop_reason=NATURAL_STOP)
        assert isinstance(parsed, FormatError)
        assert parsed.repair_message == (
            "[ERROR]\n"
            "Invalid response:\n"
            "'Great! The proof is complete.', \n"
            "Stopping Reason: 'stop'.\n"
            " Please respond only in the format specified.[END]"
        )

    def test_surrounding_prose_tolerated(self):
        parsed = parse_tactic("Sure thing.\n[RUN TACTIC] refl [END]\nDone.")
        assert parsed == ParsedAction("refl")

    def test_missing_end_natural_stop_is_error(self):
        parsed = parse_tactic("[RUN TACTIC] refl", stop_reason=NATURAL_STOP)
        assert isinstance(parsed, FormatError)

    def test_length_cap_repair_says_length(self):
        parsed = parse_tactic("no marker here", stop_reason=LENGTH_CAP)
        assert isinstance(parsed, FormatError)
        assert "Stopping Reason: 'length'." in parsed.repair_message

    def test_empty_tactic_rejected(self):
        parsed = parse_tactic("[RUN TACTIC]  [END]")
        assert isinstance(parsed, FormatError)

    def test_round_trip_fuzz(self):
        rng = random.Random(4242)
        for _ in range(2000):
            tactic = fuzz_tactic(rng)
            assert parse_tactic(f"[RUN TACTIC] {tactic} [END]") == ParsedAction(tactic)


# --- reference checker for the agent-prompt grammar ---

_KEYWORD_LINE = re.compile(
    r"\[(GOALS|GOAL|HYPOTHESES|HYPOTHESIS|DEFINITIONS|DEFINITION|THEOREMS|THEOREM|"
    r"INFORMAL-PROOF|STEPS|INCORRECT STEPS|LAST STEP|SUCCESS|ERROR MESSAGE|ERROR|END)\]"
)


class GrammarViolation(Exception):
    pass


def _expect(condition: bool, message: str):
    if not condition:
        raise GrammarViolation(message)


def check_agent_grammar(text: str) -> bool:
    """Validate an agent prompt against the grammar; raises on violation."""
    lines = text.split("\n")
    _expect(bool(lines) and lines[0] == "[GOALS]", "prompt must open with [GOALS]")
    _expect(lines[-1].endswith("[END]"), "prompt must close with [END]")
    i = 1
    goal_index = 0
    # goal blocks
    while i < len(lines) and lines[i].startswith("[GOAL] "):
        goal_index += 1
        _expect(lines[i] == f"[GOAL] {goal_index}", f"goal numbering broken at {lines[i]!r}")
        i += 1
        _expect(i < len(lines) and not _KEYWORD_LINE.match(lines[i]),
                f"[GOAL] {goal_index} has no goal text")
        while i < len(lines) and not _KEYWORD_LINE.match(lines[i]):
            i += 1
        for header, entry in (
            (f"[HYPOTHESES] {goal_index}", "[HYPOTHESIS] "),
            (f"[DEFINITIONS] {goal_index}", "[DEFINITION] "),
            (f"[THEOREMS] {goal_index}", "[THEOREM] "),
        ):
            if i < len(lines) and lines[i] == header:
                i += 1
                _expect(i < len(lines) and lines[i].startswith(entry),
                        f"{header} section is empty")
                while i < len(lines) and lines[i].startswith(entry):
                    i += 1
    _expect(goal_index >= 1, "at least one [GOAL] block required")

    if i < len(lines) and lines[i] == "[INFORMAL-PROOF]":
        i += 1
        _expect(i < len(lines) and not _KEYWORD_LINE.match(lines[i]),
                "[INFORMAL-PROOF] section is empty")
        while i < len(lines) and not _KEYWORD_LINE.match(lines[i]):
            i += 1
    if i < len(lines) and lines[i].startswith("[STEPS]"):
        _expect(lines[i].startswith("[STEPS][STEP]"), "[STEPS] must list [STEP] entries")
        i += 1
    if i < len(lines) and lines[i].startswith("[INCORRECT STEPS]"):
        _expect(lines[i].startswith("[INCORRECT STEPS][STEP]"),
                "[INCORRECT STEPS] must list [STEP] entries")
        i += 1
    if i < len(lines) and lines[i].startswith("[LAST STEP]"):
        _expect(lines[i] != "[LAST STEP]", "[LAST STEP] must carry the step text")
        i += 1
        _expect(i < len(lines) and (lines[i] == "[SUCCESS]" or lines[i].startswith("[ERROR MESSAGE]")),
                "[LAST STEP] must be followed by [SUCCESS] or [ERROR MESSAGE]")
        i += 1
        while i < len(lines) and not _KEYWORD_LINE.match(lines[i]):
            i += 1
    if i < len(lines) and lines[i] == "[ERROR]":
        # repair notice: free text ending with [END]
        i = len(lines) - 1
        _expect(lines[i].endswith("[END]"), "repair notice must end with [END]")
        return True
    _expect(i == len(lines) - 1 and lines[i] == "[END]",
            f"unexpected content near line {i + 1}: {lines[min(i, len(lines) - 1)]!r}")
    return True


class TestGrammarChecker:
    def test_accepts_golden_prompt(self):
        text = promptify(full_bundle(), BIG_BUDGET).agent_text
        assert check_agent_grammar(text)

    @pytest.mark.parametrize(
        "text",
        [
            "[GOAL] 1\ng\n[END]",  # missing [GOALS]
            "[GOALS]\n[END]",  # no goal blocks
            "[GOALS]\n[GOAL] 2\ng\n[END]",  # numbering broken
            "[GOALS]\n[GOAL] 1\ng",  # missing [END]
            "[GOALS]\n[GOAL] 1\ng\n[HYPOTHESES] 1\n[END]",  # empty hypotheses
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(GrammarViolation):
            check_agent_grammar(text)

    def test_fuzzed_bundles_always_valid(self):
        rng = random.Random(20240819)
        for _ in range(1000):
            bundle = fuzz_bundle(rng)
            budget = rng.choice([64, 128, 256, BIG_BUDGET])
            try:
                prompt = promptify(bundle, budget)
            except PromptBudgetError:
                continue
            assert check_agent_grammar(prompt.agent_text)
