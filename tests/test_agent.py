"""The search engine: pseudocode fidelity, failure memory, progress guard,
budgets, format repair, the informal-sketch call, and the staged ensemble."""

import pytest

from proofsearch.agent import (
    EpisodeTrace,
    NO_PROGRESS_MESSAGE,
    QueryRecord,
    REASON_BUDGET,
    REASON_EXHAUSTED,
    REASON_INFRASTRUCTURE,
    REASON_TIMEOUT,
    SearchConfig,
    SearchOutcome,
    STAGE_INFORMAL,
    STAGE_PLAIN,
    STAGE_RETRIEVAL,
    _Budget,
    ensemble_prove,
    generate_informal_sketch,
    prove,
)
from proofsearch.core import GlobalContext, canonical_key, lift_transition
from proofsearch.llm import (
    Completion,
    GuidanceBackend,
    InfrastructureFailure,
    ScriptedBackend,
    SequenceBackend,
)
from proofsearch.prompts import NATURAL_STOP
from proofsearch.retrieval import build_index
from proofsearch.toy import ToyEnvironment, parse_suite

from conftest import wrap


SCENARIOS = """
lemma l_pq : P -> Q

theorem pp
  goal P -> P
end

theorem loopy
  goal a = b
  hyp h : a = b
  hyp e : a = a
end

theorem needs_lemma
  goal Q
  hyp hp : P
  use l_pq
end

theorem eq_aa
  goal a = a
end
"""


@pytest.fixture(scope="module")
def scenarios():
    return parse_suite(SCENARIOS)


def env_for(scenarios, name):
    return ToyEnvironment(scenarios.theorem(name))


def config(**overrides):
    defaults = dict(max_queries=60, wall_timeout_seconds=600.0, per_state_budget=4)
    defaults.update(overrides)
    return SearchConfig(**defaults)


def gctx_for(scenarios, name):
    return GlobalContext(theorem_statement=scenarios.theorem(name).statement())


def run_plain(scenarios, name, backend, cfg=None, index=None):
    return prove(
        name, env_for(scenarios, name), backend, index,
        gctx_for(scenarios, name), cfg or config(),
    )


class PromptAwareBackend(GuidanceBackend):
    """Chooses its reply by inspecting the rendered agent prompt; used to
    emulate guidance that only succeeds with retrieval or a sketch."""

    def __init__(self, chooser):
        self.chooser = chooser

    def complete(self, request):
        prompt = request.turns[-1][1]
        return Completion(self.chooser(request, prompt), NATURAL_STOP, 0.0)


class TestConfig:
    def test_defaults_match_documented_budgets(self):
        cfg = SearchConfig()
        assert cfg.max_queries == 60
        assert cfg.wall_timeout_seconds == 600.0
        assert cfg.per_state_budget == 4
        assert cfg.max_depth == 50
        assert cfg.format_retry_cap == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queries": 0},
            {"per_state_budget": 0},
            {"max_depth": 0},
            {"wall_timeout_seconds": 0},
            {"format_retry_cap": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)

    def test_proved_outcome_needs_proof(self):
        with pytest.raises(ValueError):
            SearchOutcome(proved=True)


class TestStraightLineProof:
    def test_two_query_proof(self, scenarios):
        backend = SequenceBackend([wrap("intro h"), wrap("exact h")])
        outcome, trace = run_plain(scenarios, "pp", backend)
        assert outcome.proved
        assert outcome.proof == ("intro h", "exact h")
        assert trace.queries_used == 2
        assert [r.result_class for r in trace.records] == ["progressed", "qed"]
        assert [r.ordinal for r in trace.records] == [1, 2]

    def test_pseudocode_event_order(self, scenarios):
        backend = SequenceBackend([wrap("intro h"), wrap("exact h")])
        _, trace = run_plain(scenarios, "pp", backend)
        kinds = [event[0] for event in trace.events]
        assert kinds == [
            "push", "promptify", "parse", "transition",
            "push", "promptify", "parse", "transition",
        ]
        assert trace.events[3] == ("transition", "progressed")
        assert trace.events[7] == ("transition", "qed")

    def test_proof_replays_independently(self, scenarios):
        backend = SequenceBackend([wrap("intro h"), wrap("exact h")])
        outcome, _ = run_plain(scenarios, "pp", backend)
        env = env_for(scenarios, "pp")
        assert lift_transition(env, env.initial_state("pp"), list(outcome.proof)).is_qed


class TestProgressGuard:
    def test_identity_rewrite_lands_in_bad(self, scenarios):
        backend = SequenceBackend([wrap("rw e"), wrap("exact h")])
        outcome, trace = run_plain(scenarios, "loopy", backend)
        assert outcome.proved
        first, second = trace.records
        assert first.result_class == "no-progress"
        assert ("bad", canonical_key(env_for(scenarios, "loopy").initial_state("loopy")),
                "rw e") in trace.events
        assert "[INCORRECT STEPS][STEP]rw e" in second.prompt_text
        assert NO_PROGRESS_MESSAGE in second.prompt_text

    def test_error_feedback_in_next_prompt(self, scenarios):
        backend = SequenceBackend([wrap("split"), wrap("intro h"), wrap("exact h")])
        outcome, trace = run_plain(scenarios, "pp", backend)
        assert outcome.proved
        second = trace.records[1]
        assert "[LAST STEP] split\n[ERROR MESSAGE]\nsplit failed" in second.prompt_text
        assert "[INCORRECT STEPS][STEP]split" in second.prompt_text

    def test_never_pushes_dominated_state(self, scenarios):
        backend = SequenceBackend([wrap("rw e")] * 3 + [wrap("exact h")])
        _, trace = run_plain(scenarios, "loopy", backend)
        pushes = [event for event in trace.events if event[0] == "push"]
        assert len(pushes) == 1  # the looping rewrite never creates a frame


class TestBacktracking:
    def test_pop_and_retry_at_root(self, scenarios):
        env = env_for(scenarios, "pp")
        root = env.initial_state("pp")
        s1 = env.apply_tactic(root, "intro h")
        backend = ScriptedBackend(
            {
                (canonical_key(root), 1): wrap("intro h"),
                (canonical_key(s1), 1): wrap("refl"),
                (canonical_key(s1), 2): wrap("split"),
                (canonical_key(root), 2): wrap("intro h"),
                (canonical_key(s1), 3): wrap("exact h"),
            }
        )
        outcome, trace = run_plain(scenarios, "pp", backend,
                                   cfg=config(per_state_budget=2))
        assert outcome.proved
        assert trace.queries_used == 5
        kinds = [event[0] for event in trace.events]
        assert kinds.count("pop") == 1  # the dead-end frame was backtracked
        assert kinds.count("push") == 3

    def test_search_exhausted(self, scenarios):
        backend = SequenceBackend([], default=wrap("split"))
        outcome, trace = run_plain(scenarios, "pp", backend,
                                   cfg=config(per_state_budget=2))
        assert not outcome.proved
        assert outcome.failure_reason == REASON_EXHAUSTED
        assert trace.queries_used == 2
        assert trace.events[-1][0] == "pop"

    def test_max_depth_counts_as_no_progress(self, scenarios):
        backend = SequenceBackend([], default=wrap("intro h"))
        outcome, trace = run_plain(
            scenarios, "pp", backend, cfg=config(per_state_budget=2, max_depth=1)
        )
        assert not outcome.proved
        assert all(r.result_class == "no-progress" for r in trace.records)


class TestFormatRepair:
    def test_repair_then_success(self, scenarios):
        backend = SequenceBackend(["no marker", wrap("refl")])
        outcome, trace = run_plain(scenarios, "eq_aa", backend)
        assert outcome.proved
        assert trace.queries_used == 2
        first, second = trace.records
        assert first.result_class == "format-error"
        assert first.format_error
        assert "[ERROR]\nInvalid response:\n'no marker', " in second.prompt_text
        assert [r.ordinal for r in trace.records] == [1, 2]

    def test_retry_cap_spends_the_attempt(self, scenarios):
        backend = SequenceBackend([], default="garbage")
        cfg = config(per_state_budget=1, format_retry_cap=2, max_queries=10)
        outcome, trace = run_plain(scenarios, "eq_aa", backend, cfg=cfg)
        assert not outcome.proved
        assert outcome.failure_reason == REASON_EXHAUSTED
        # one attempt = 1 original + 2 repairs, all format errors
        assert trace.queries_used == 3
        assert all(r.result_class == "format-error" for r in trace.records)

    def test_always_malformed_consumes_exact_budget(self, scenarios):
        backend = SequenceBackend([], default="garbage")
        cfg = config(max_queries=7, per_state_budget=50, format_retry_cap=3)
        outcome, trace = run_plain(scenarios, "eq_aa", backend, cfg=cfg)
        assert not outcome.proved
        assert outcome.failure_reason == REASON_BUDGET
        assert trace.queries_used == 7
        assert all(r.result_class == "format-error" for r in trace.records)


class TestBudgets:
    def test_query_budget_aborts_mid_search(self, scenarios):
        backend = SequenceBackend([], default=wrap("split"))
        outcome, trace = run_plain(
            scenarios, "pp", backend, cfg=config(max_queries=3, per_state_budget=50)
        )
        assert outcome.failure_reason == REASON_BUDGET
        assert trace.queries_used == 3

    def test_timeout_aborts(self, scenarios):
        backend = SequenceBackend([wrap("intro h")])
        cfg = config(wall_timeout_seconds=1e-9)
        outcome, trace = run_plain(scenarios, "pp", backend, cfg=cfg)
        assert outcome.failure_reason == REASON_TIMEOUT
        assert trace.queries_used == 0

    def test_infrastructure_failure_flags_trace(self, scenarios):
        class FailingBackend(GuidanceBackend):
            def complete(self, request):
                raise InfrastructureFailure("connection reset")

        outcome, trace = run_plain(scenarios, "pp", FailingBackend())
        assert not outcome.proved
        assert outcome.failure_reason == REASON_INFRASTRUCTURE
        assert trace.aborted
        assert any("connection reset" in note for note in trace.notes)

    def test_token_budget_too_small_aborts(self, scenarios):
        backend = SequenceBackend([wrap("intro h"), wrap("exact h")])
        outcome, trace = run_plain(scenarios, "pp", backend, cfg=config(token_budget=5))
        assert not outcome.proved
        assert outcome.failure_reason == REASON_INFRASTRUCTURE
        assert trace.aborted
        assert trace.queries_used == 0
        assert trace.notes == ["infrastructure failure: token budget 5 cannot fit the goals "
                               "section (needs about 8)"]


class TestSketch:
    def test_sketch_costs_one_query(self, scenarios):
        backend = SequenceBackend(["Case on h, then close by assumption."])
        budget = _Budget(10, 600.0)
        trace = EpisodeTrace(theorem="t", config=config().to_dict())
        sketch = generate_informal_sketch("P -> P", backend, budget, trace)
        assert sketch == "Case on h, then close by assumption."
        assert budget.queries_used == 1
        assert trace.records[0].result_class == "sketch"
        assert trace.records[0].stage == STAGE_INFORMAL

    def test_sketch_skipped_on_exhausted_budget(self, scenarios):
        budget = _Budget(1, 600.0)
        budget.consume()
        trace = EpisodeTrace(theorem="t", config=config().to_dict())
        sketch = generate_informal_sketch("P -> P", SequenceBackend(["x"]), budget, trace)
        assert sketch is None
        assert "skipped: budget" in trace.notes

    def test_sketch_infrastructure_noted(self, scenarios):
        class FailingBackend(GuidanceBackend):
            def complete(self, request):
                raise InfrastructureFailure("boom")

        budget = _Budget(10, 600.0)
        trace = EpisodeTrace(theorem="t", config=config().to_dict())
        assert generate_informal_sketch("P", FailingBackend(), budget, trace) is None
        assert any(note.startswith("skipped: infrastructure") for note in trace.notes)
        assert budget.queries_used == 0


def retrieval_index(scenarios):
    from proofsearch.retrieval import LemmaRecord

    return build_index(
        [LemmaRecord("l_pq", "P -> Q", "lemma"), LemmaRecord("l_zz", "z = z", "lemma")]
    )


class TestEnsemble:
    def test_stage1_success_skips_later_stages(self, scenarios):
        backend = SequenceBackend([wrap("intro h"), wrap("exact h")])
        outcome, trace = ensemble_prove(
            "pp", env_for(scenarios, "pp"), backend, retrieval_index(scenarios),
            config(), gctx_for(scenarios, "pp"),
        )
        assert outcome.proved
        assert trace.stage == STAGE_PLAIN
        assert {r.stage for r in trace.records} == {STAGE_PLAIN}

    def test_retrieval_stage_rescues(self, scenarios):
        def choose(request, prompt):
            if "[THEOREM] l_pq : P -> Q" in prompt:
                if "[STEPS]" not in prompt:
                    return wrap("apply l_pq")
                return wrap("exact hp")
            return wrap("split")  # always fails without retrieval

        backend = PromptAwareBackend(choose)
        cfg = config(per_state_budget=2)
        outcome, trace = ensemble_prove(
            "needs_lemma", env_for(scenarios, "needs_lemma"), backend,
            retrieval_index(scenarios), cfg, gctx_for(scenarios, "needs_lemma"),
        )
        assert outcome.proved
        assert trace.stage == STAGE_RETRIEVAL
        stages = [r.stage for r in trace.records]
        assert stages == [STAGE_PLAIN, STAGE_PLAIN, STAGE_RETRIEVAL, STAGE_RETRIEVAL]
        assert trace.queries_used == 4  # shared budget across stages

    def test_informal_stage_rescues(self, scenarios):
        sketch_text = "Apply the library lemma, then use the hypothesis."

        def choose(request, prompt):
            if request.metadata.get("state_key") == "sketch":
                return sketch_text
            if "[INFORMAL-PROOF]\n" + sketch_text in prompt:
                if "[STEPS]" not in prompt:
                    return wrap("apply l_pq")
                return wrap("exact hp")
            return wrap("split")

        backend = PromptAwareBackend(choose)
        cfg = config(per_state_budget=1)
        outcome, trace = ensemble_prove(
            "needs_lemma", env_for(scenarios, "needs_lemma"), backend,
            retrieval_index(scenarios), cfg, gctx_for(scenarios, "needs_lemma"),
        )
        assert outcome.proved
        assert trace.stage == STAGE_INFORMAL
        sketch_records = [r for r in trace.records if r.result_class == "sketch"]
        assert len(sketch_records) == 1
        assert sketch_records[0].response == sketch_text

    def test_all_stages_fail_under_shared_budget(self, scenarios):
        backend = SequenceBackend([], default=wrap("split"))
        cfg = config(per_state_budget=2, max_queries=60)
        outcome, trace = ensemble_prove(
            "needs_lemma", env_for(scenarios, "needs_lemma"), backend,
            retrieval_index(scenarios), cfg, gctx_for(scenarios, "needs_lemma"),
        )
        assert not outcome.proved
        assert trace.queries_used == 7  # 2 + 2 + sketch + 2
        assert [r.stage for r in trace.records].count(STAGE_INFORMAL) == 3

    def test_no_index_means_single_stage(self, scenarios):
        backend = SequenceBackend([], default=wrap("split"))
        outcome, trace = ensemble_prove(
            "pp", env_for(scenarios, "pp"), backend, None,
            config(per_state_budget=1), gctx_for(scenarios, "pp"),
        )
        assert not outcome.proved
        assert {r.stage for r in trace.records} == {STAGE_PLAIN}

    def test_bad_reset_between_stages(self, scenarios):
        # stage 1 ends with "split" in Bad at the root; stage 2's first
        # prompt at the same root must not list it
        prompts = []

        def choose(request, prompt):
            prompts.append((request.metadata.get("stage"), prompt))
            return wrap("split")

        backend = PromptAwareBackend(choose)
        ensemble_prove(
            "needs_lemma", env_for(scenarios, "needs_lemma"), backend,
            retrieval_index(scenarios), config(per_state_budget=2),
            gctx_for(scenarios, "needs_lemma"),
        )
        stage2_first = next(p for stage, p in prompts if stage == STAGE_RETRIEVAL)
        assert "[INCORRECT STEPS]" not in stage2_first


class TestDeterminismAndTrace:
    def make_trace(self, scenarios):
        backend = SequenceBackend(
            ["noise", wrap("rw e"), wrap("split"), wrap("exact h")]
        )
        return run_plain(scenarios, "loopy", backend)[1]

    def test_repeat_runs_identical(self, scenarios):
        first = self.make_trace(scenarios)
        second = self.make_trace(scenarios)
        assert first.comparable() == second.comparable()

    def test_save_load_round_trip(self, scenarios, tmp_path):
        trace = self.make_trace(scenarios)
        path = tmp_path / "episode.jsonl"
        trace.save(path)
        loaded = EpisodeTrace.load(path)
        assert loaded.comparable() == trace.comparable()
        assert loaded.wall_seconds == trace.wall_seconds
        assert loaded.queries_used == trace.queries_used

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "header", "schema": "other/9", "theorem": "t", '
                        '"config": {}, "bad_reset": "per-stage"}\n', encoding="utf-8")
        with pytest.raises(ValueError):
            EpisodeTrace.load(path)

    def test_bad_reset_policy_recorded(self, scenarios):
        trace = self.make_trace(scenarios)
        assert trace.bad_reset == "per-stage"


def hand_built_trace():
    trace = EpisodeTrace(
        theorem="pp", config={"max_queries": 5, "prompt_style": "lean"},
        attempt=2, category="implication",
    )
    trace.records.append(QueryRecord(
        ordinal=1, stage=STAGE_PLAIN, state_key="k0", prompt_text="goal P -> P",
        prompt_tokens=4, response=wrap("intro h"), stop_reason=NATURAL_STOP,
        tactic="intro h", result_class="progressed", latency_seconds=0.25,
    ))
    trace.records.append(QueryRecord(
        ordinal=2, stage=STAGE_RETRIEVAL, state_key="k1", prompt_text="goal P",
        prompt_tokens=2, response="noise", stop_reason=NATURAL_STOP,
        format_error="no tactic", result_class="format-error", latency_seconds=0.1,
    ))
    trace.event("push", "k0")
    trace.event("retrieve", "k0", [["l_pq", 1.5]])
    trace.notes.append("skipped: budget")
    trace.outcome = SearchOutcome(proved=True, proof=("intro h", "exact h"))
    trace.queries_used = 2
    trace.wall_seconds = 0.7
    trace.stage = STAGE_RETRIEVAL
    return trace


HAND_BUILT_LINES = [
    '{"type": "header", "schema": "proofsearch-trace/1", "theorem": "pp", '
    '"config": {"max_queries": 5, "prompt_style": "lean"}, "attempt": 2, '
    '"category": "implication", "bad_reset": "per-stage"}',
    '{"type": "query", "ordinal": 1, "stage": "plain", "state_key": "k0", '
    '"prompt_text": "goal P -> P", "prompt_tokens": 4, '
    '"response": "[RUN TACTIC] intro h [END]", "stop_reason": "natural-stop", '
    '"tactic": "intro h", "format_error": null, "result_class": "progressed", '
    '"latency_seconds": 0.25}',
    '{"type": "query", "ordinal": 2, "stage": "retrieval", "state_key": "k1", '
    '"prompt_text": "goal P", "prompt_tokens": 2, "response": "noise", '
    '"stop_reason": "natural-stop", "tactic": null, "format_error": "no tactic", '
    '"result_class": "format-error", "latency_seconds": 0.1}',
    '{"type": "event", "data": ["push", "k0"]}',
    '{"type": "event", "data": ["retrieve", "k0", [["l_pq", 1.5]]]}',
    '{"type": "note", "text": "skipped: budget"}',
    '{"type": "outcome", "proved": true, "proof": ["intro h", "exact h"], '
    '"failure_reason": null, "queries_used": 2, "wall_seconds": 0.7, '
    '"stage": "retrieval", "aborted": false}',
]


class TestTraceFormat:
    """The on-disk trace format, pinned line by line."""

    def test_saved_lines_match_format(self, tmp_path):
        path = tmp_path / "pp__a2.jsonl"
        hand_built_trace().save(path)
        assert path.read_text(encoding="utf-8").splitlines() == HAND_BUILT_LINES

    def test_save_load_save_byte_identical(self, tmp_path):
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        hand_built_trace().save(first)
        loaded = EpisodeTrace.load(first)
        assert [r.latency_seconds for r in loaded.records] == [0.25, 0.1]
        assert loaded.wall_seconds == 0.7
        loaded.save(second)
        assert second.read_bytes() == first.read_bytes()

    def test_save_over_a_longer_file_leaves_only_the_new_trace(self, tmp_path):
        path = tmp_path / "pp__a2.jsonl"
        path.write_text("x" * 5000 + "\n", encoding="utf-8")
        hand_built_trace().save(path)
        assert path.read_text(encoding="utf-8").splitlines() == HAND_BUILT_LINES
        shorter = hand_built_trace()
        shorter.records.pop()
        shorter.save(path)
        fresh = tmp_path / "fresh.jsonl"
        shorter.save(fresh)
        assert path.read_bytes() == fresh.read_bytes()
        assert len(EpisodeTrace.load(path).records) == 1

    def test_header_without_attempt_or_category_loads_defaults(self, tmp_path):
        path = tmp_path / "old.jsonl"
        lines = ['{"type": "header", "schema": "proofsearch-trace/1", "theorem": "pp", '
                 '"config": {}, "bad_reset": "per-stage"}'] + HAND_BUILT_LINES[1:]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        trace = EpisodeTrace.load(path)
        assert trace.attempt == 1
        assert trace.category is None
        assert trace.outcome == SearchOutcome(proved=True, proof=("intro h", "exact h"))
        assert trace.stage == STAGE_RETRIEVAL
