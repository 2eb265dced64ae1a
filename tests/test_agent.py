"""The search engine: pseudocode fidelity, failure memory, progress guard,
budgets, format repair, the informal-sketch call, and the staged ensemble."""

import json
import random
import sys
import zlib

import pytest

import proofsearch.agent
import proofsearch.trace
from proofsearch.agent import (
    NO_PROGRESS_MESSAGE,
    SearchConfig,
    _Budget,
    ensemble_prove,
    generate_informal_sketch,
    prove,
)
from proofsearch.bench import (
    BenchmarkSuite,
    oracle_scripted_backend,
    results_from_traces,
    run_suite,
)
from proofsearch.bridge import BridgeConfig, BridgeSession
from proofsearch.core import (
    GlobalContext,
    ProofState,
    at_least_as_hard,
    canonical_key,
    lift_transition,
)
from proofsearch.llm import (
    Completion,
    GuidanceBackend,
    InfrastructureFailure,
    ReplayBackend,
    ScriptedBackend,
)
from proofsearch.prompts import NATURAL_STOP
from proofsearch.retrieval import build_index
from proofsearch.toy import ToyEnvironment
from proofsearch.toy.suite import ToySuite, parse_suite
from proofsearch.trace import (
    EpisodeTrace,
    QueryRecord,
    REASON_BUDGET,
    REASON_EXHAUSTED,
    REASON_INFRASTRUCTURE,
    REASON_TIMEOUT,
    SearchOutcome,
    STAGE_INFORMAL,
    STAGE_PLAIN,
    STAGE_RETRIEVAL,
    TRACE_SCHEMA,
    TraceFormatError,
    overwrite_text,
)

from conftest import SequenceBackend, wrap


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

    def test_dominated_frame_found_under_a_goal_other_than_the_first(self):
        # split pushes {b, c}; rw h makes b into a /\ b; split again gives
        # {a, b, c}, which holds both obligations of the frame {b, c} but
        # whose first goal, a, is not the frame's least goal, b
        theorem = parse_suite("theorem two\n  goal b /\\ c\n  hyp h : b = (a /\\ b)\nend\n"
                              ).theorem("two")
        env = ToyEnvironment(theorem)
        frame = env.apply_tactic(env.initial_state("two"), "split")
        new = lift_transition(env, frame, ["rw h", "split"])
        assert [ob.goal for ob in frame.obligations] == ["b", "c"]
        assert [ob.goal for ob in new.obligations] == ["a", "b", "c"]
        assert at_least_as_hard(new, frame)

        backend = SequenceBackend([wrap("split"), wrap("rw h"), wrap("split")])
        _, trace = prove("two", ToyEnvironment(theorem), backend, None,
                         GlobalContext(theorem.statement()), config(per_state_budget=1))
        assert [r.result_class for r in trace.records] == [
            "progressed", "progressed", "no-progress"]


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


class TestInitialState:
    """The search starts only from a state it can search: not an error,
    and not one that is already QED."""

    @staticmethod
    def starting_at(scenarios, initial):
        class Environment(ToyEnvironment):
            def initial_state(self, theorem_id):
                return initial(super().initial_state(theorem_id))

        return Environment(scenarios.theorem("pp"))

    def test_error_initial_state_raises(self, scenarios):
        env = self.starting_at(scenarios, lambda state: state.with_error("broken"))
        with pytest.raises(ValueError, match="^initial state must be non-error$"):
            prove("pp", env, SequenceBackend([]), None, gctx_for(scenarios, "pp"), config())

    def test_qed_initial_state_aborts_as_infrastructure(self, scenarios):
        env = self.starting_at(scenarios, lambda state: ProofState.qed())
        outcome, trace = prove("pp", env, SequenceBackend([wrap("intro h")]), None,
                               gctx_for(scenarios, "pp"), config())
        assert outcome == SearchOutcome(proved=False, failure_reason=REASON_INFRASTRUCTURE)
        assert trace.aborted and trace.queries_used == 0 and trace.log == []
        assert trace.notes == ["infrastructure failure: the theorem was closed at its initial "
                               "state: no tactic script to replay"]


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
        """A backend failure at the sketch aborts the episode, as one in the
        search does: it is not counted as a failed proof."""
        def choose(request, prompt):
            if request.metadata.get("state_key") == "sketch":
                raise InfrastructureFailure("boom")
            return wrap("split")  # always an error on needs_lemma

        env = CountingEnvironment(scenarios.theorem("needs_lemma"))
        outcome, trace = ensemble_prove(
            "needs_lemma", env, PromptAwareBackend(choose), retrieval_index(scenarios),
            gctx_for(scenarios, "needs_lemma"), config(per_state_budget=2))
        assert outcome == SearchOutcome(proved=False, failure_reason=REASON_INFRASTRUCTURE)
        assert trace.aborted and trace.stage == STAGE_INFORMAL
        assert trace.notes == ["infrastructure failure: boom"]
        assert trace.queries_used == 4
        assert {r.stage for r in trace.records} == {STAGE_PLAIN, STAGE_RETRIEVAL}
        assert env.initial_states == 2  # the informal stage's search never starts


def retrieval_index(scenarios):
    from proofsearch.retrieval import LemmaRecord

    return build_index(
        [LemmaRecord("l_pq", "P -> Q", "lemma"), LemmaRecord("l_zz", "z = z", "lemma")]
    )


class CountingEnvironment(ToyEnvironment):
    """Counts the calls the search makes to the environment."""

    def __init__(self, theorem):
        super().__init__(theorem)
        self.initial_states = 0
        self.tactics = 0

    def initial_state(self, theorem_id):
        self.initial_states += 1
        return super().initial_state(theorem_id)

    def apply_tactic(self, state, tactic):
        self.tactics += 1
        return super().apply_tactic(state, tactic)


def sketch_or_split(request, prompt):
    if request.metadata.get("state_key") == "sketch":
        return "Apply the library lemma."
    return wrap("split")  # always an error on needs_lemma


class TestEnsemble:
    def test_stage1_success_skips_later_stages(self, scenarios):
        backend = SequenceBackend([wrap("intro h"), wrap("exact h")])
        outcome, trace = ensemble_prove(
            "pp", env_for(scenarios, "pp"), backend, retrieval_index(scenarios),
            gctx_for(scenarios, "pp"), config(),
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
            retrieval_index(scenarios), gctx_for(scenarios, "needs_lemma"), cfg,
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
            retrieval_index(scenarios), gctx_for(scenarios, "needs_lemma"), cfg,
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
            retrieval_index(scenarios), gctx_for(scenarios, "needs_lemma"), cfg,
        )
        assert not outcome.proved
        assert trace.queries_used == 7  # 2 + 2 + sketch + 2
        assert [r.stage for r in trace.records].count(STAGE_INFORMAL) == 3

    def test_no_index_means_single_stage(self, scenarios):
        backend = SequenceBackend([], default=wrap("split"))
        outcome, trace = ensemble_prove(
            "pp", env_for(scenarios, "pp"), backend, None,
            gctx_for(scenarios, "pp"), config(per_state_budget=1),
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
            retrieval_index(scenarios), gctx_for(scenarios, "needs_lemma"),
            config(per_state_budget=2),
        )
        stage2_first = next(p for stage, p in prompts if stage == STAGE_RETRIEVAL)
        assert "[INCORRECT STEPS]" not in stage2_first

    def needs_lemma(self, scenarios, backend, **overrides):
        env = CountingEnvironment(scenarios.theorem("needs_lemma"))
        outcome, trace = ensemble_prove(
            "needs_lemma", env, backend, retrieval_index(scenarios),
            gctx_for(scenarios, "needs_lemma"), config(per_state_budget=2, **overrides),
        )
        return outcome, trace, env

    def test_budget_spent_by_the_plain_stage(self, scenarios):
        outcome, trace, env = self.needs_lemma(
            scenarios, PromptAwareBackend(sketch_or_split), max_queries=2)
        assert outcome.failure_reason == REASON_BUDGET
        assert trace.outcome == outcome
        assert trace.stage == STAGE_RETRIEVAL
        assert trace.queries_used == 2
        assert {r.stage for r in trace.records} == {STAGE_PLAIN}
        assert env.initial_states == 1  # the retrieval stage never starts

    def test_sketch_spends_the_last_query(self, scenarios):
        outcome, trace, env = self.needs_lemma(
            scenarios, PromptAwareBackend(sketch_or_split), max_queries=5)
        assert outcome.failure_reason == REASON_BUDGET
        assert trace.stage == STAGE_INFORMAL
        assert trace.queries_used == 5
        assert [r.result_class for r in trace.records].count("sketch") == 1
        assert trace.notes == []
        assert env.initial_states == 2  # the informal stage never starts

    def test_infrastructure_failure_in_retrieval_ends_the_episode(self, scenarios):
        def choose(request, prompt):
            if request.metadata.get("stage") == STAGE_RETRIEVAL:
                raise InfrastructureFailure("connection reset")
            return sketch_or_split(request, prompt)

        outcome, trace, env = self.needs_lemma(scenarios, PromptAwareBackend(choose))
        assert outcome.failure_reason == REASON_INFRASTRUCTURE
        assert trace.aborted
        assert trace.stage == STAGE_RETRIEVAL
        assert trace.notes == ["infrastructure failure: connection reset"]
        assert {r.stage for r in trace.records} == {STAGE_PLAIN}
        assert "sketch" not in [e[0] for e in trace.events]
        assert env.initial_states == 2

    def test_stage_past_its_deadline_never_calls_the_environment(self, scenarios):
        env = CountingEnvironment(scenarios.theorem("pp"))
        outcome, trace = prove(
            "pp", env, SequenceBackend([wrap("intro h")]), None,
            gctx_for(scenarios, "pp"), config(wall_timeout_seconds=1e-9),
        )
        assert outcome.failure_reason == REASON_TIMEOUT
        assert (env.initial_states, env.tactics) == (0, 0)
        assert trace.events == ()


class DiesAfter(GuidanceBackend):
    """Answers `split` to its first `n` queries, then raises at each one."""

    def __init__(self, n):
        self.n = n

    def complete(self, request):
        if self.n == 0:
            raise InfrastructureFailure("backend died")
        self.n -= 1
        return Completion(wrap("split"), NATURAL_STOP, 0.0)


class TestReplayOfAnAbortedEpisode:
    @pytest.mark.parametrize("answered", [0, 3, 4], ids=["first-query", "mid-stage", "sketch"])
    def test_backend_failure_replays_as_recorded(self, scenarios, tmp_path, answered):
        """A replay asked past the last record of an episode that a backend
        failure aborted raises with the recorded failure's message, so the
        replayed trace equals the recording, note included."""
        def episode(backend):
            return ensemble_prove("needs_lemma", env_for(scenarios, "needs_lemma"), backend,
                                  retrieval_index(scenarios), gctx_for(scenarios, "needs_lemma"),
                                  config(per_state_budget=2))

        _, recording = episode(DiesAfter(answered))
        assert recording.aborted and len(recording.records) == answered
        assert recording.notes == ["infrastructure failure: backend died"]
        recording.save(tmp_path / "recorded.jsonl")
        _, replayed = episode(ReplayBackend(EpisodeTrace.load(tmp_path / "recorded.jsonl")))
        assert replayed.comparable() == recording.comparable()

    def test_environment_failure_replays_past_the_failure(self, scenarios):
        """The replay runs a live environment, which does not fail where the
        recorded one did: it applies the last recorded tactic and searches
        on, and its next query, past the recording, aborts it with the
        recorded note."""
        class FailingEnvironment(ToyEnvironment):
            def apply_tactic(self, state, tactic):
                raise InfrastructureFailure("environment down")

        def episode(env, backend):
            return prove("pp", env, backend, None, gctx_for(scenarios, "pp"), config())

        _, recording = episode(FailingEnvironment(scenarios.theorem("pp")),
                               SequenceBackend([wrap("intro h")]))
        assert recording.notes == ["infrastructure failure: environment down"]
        assert recording.records[-1].result_class is None
        _, replayed = episode(env_for(scenarios, "pp"), ReplayBackend(recording))
        assert replayed.aborted and replayed.notes == recording.notes
        assert replayed.records[-1].result_class == "progressed"
        assert replayed.events[:len(recording.events)] == recording.events
        assert [e[0] for e in replayed.events[len(recording.events):]] == [
            "transition", "push", "promptify"]


def intro_then_split(request, prompt):
    """`intro h` at the root of `pp`, `split` (an error) below it: with
    `per_state_budget=2` a stage pushes the root once and its child twice."""
    return wrap("split" if "[STEPS]" in prompt else "intro h")


@pytest.fixture()
def ranked_keys(monkeypatch):
    """The canonical key of every state `retrieve` ranks, in call order."""
    keys = []
    ranked = proofsearch.agent.retrieve

    def counted(index, state, k):
        keys.append(canonical_key(state))
        return ranked(index, state, k)

    monkeypatch.setattr(proofsearch.agent, "retrieve", counted)
    return keys


def retrieve_events(trace):
    return [e for e in trace.events if e[0] == "retrieve"]


class TestRankingsPerEpisode:
    """Each distinct state of an episode is ranked once, whichever stage
    or push reaches it; nothing is kept from one episode to the next."""

    def ensemble(self, scenarios, env):
        return ensemble_prove(
            "pp", env, PromptAwareBackend(intro_then_split), retrieval_index(scenarios),
            gctx_for(scenarios, "pp"), config(per_state_budget=2),
        )

    def test_stages_share_the_root_and_its_rankings(self, scenarios, ranked_keys):
        env = CountingEnvironment(scenarios.theorem("pp"))
        outcome, trace = self.ensemble(scenarios, env)
        assert outcome.failure_reason == REASON_EXHAUSTED
        assert trace.stage == STAGE_INFORMAL
        assert env.initial_states == 3
        events = retrieve_events(trace)
        assert len(events) == 6  # three pushes in each stage with an index
        assert ranked_keys == list(dict.fromkeys(e[1] for e in events))
        assert len(ranked_keys) == 2

    def test_prove_alone_ranks_each_key_once_within_its_stage(self, scenarios, ranked_keys):
        outcome, trace = run_plain(scenarios, "pp", PromptAwareBackend(intro_then_split),
                                   cfg=config(per_state_budget=2),
                                   index=retrieval_index(scenarios))
        assert outcome.failure_reason == REASON_EXHAUSTED
        events = retrieve_events(trace)
        assert [e[1] for e in events].count(events[1][1]) == 2  # the child, pushed twice
        assert ranked_keys == list(dict.fromkeys(e[1] for e in events))
        assert len(ranked_keys) == 2
        run_plain(scenarios, "pp", PromptAwareBackend(intro_then_split),
                  cfg=config(per_state_budget=2), index=retrieval_index(scenarios))
        assert ranked_keys[2:] == ranked_keys[:2]  # a second call ranks again

    def test_keyed_by_state_key_over_the_bridge(self, scenarios, ranked_keys, tmp_path):
        """Each stage's `init` returns a new state object; the rankings
        are still shared, and the trace equals the in-process one."""
        suite_path = tmp_path / "scenarios.toysuite"
        suite_path.write_text(SCENARIOS, encoding="utf-8")
        command = [sys.executable, "-m", "proofsearch.bridge_adapter", str(suite_path)]
        roots = []

        class Recorded(BridgeSession):
            def initial_state(self, theorem_id):
                roots.append(super().initial_state(theorem_id))
                return roots[-1]

        with Recorded(BridgeConfig(command=command)) as session:
            bridged = self.ensemble(scenarios, session)
        assert len(roots) == 3
        assert roots[1] == roots[0] and roots[1] is not roots[0]
        assert len(retrieve_events(bridged[1])) == 6
        assert len(ranked_keys) == len(set(ranked_keys)) == 2
        direct = self.ensemble(scenarios, env_for(scenarios, "pp"))
        assert bridged[0] == direct[0]
        assert bridged[1].comparable() == direct[1].comparable()

    def test_nothing_outlives_an_episode(self, scenarios, ranked_keys, tmp_path):
        suite = ToySuite(scenarios.lemmas, {"pp": scenarios.theorem("pp")})
        bench = BenchmarkSuite(suite=suite, index=retrieval_index(scenarios))
        starts = []

        def factory(theorem, attempt):
            starts.append(len(ranked_keys))
            return PromptAwareBackend(intro_then_split)

        results = run_suite(bench, config(per_state_budget=2), tmp_path, factory, attempts=2)
        assert [r.attempt for r in results] == [1, 2]
        first, second = ranked_keys[starts[0]:starts[1]], ranked_keys[starts[1]:]
        assert len(first) == 2 and second == first


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
    trace.event("push", "k0")
    trace.event("retrieve", "k0", [["l_pq", 1.5]])
    trace.log.append(QueryRecord(
        ordinal=1, stage=STAGE_PLAIN, state_key="k0", prompt_text="goal P -> P",
        prompt_tokens=4, response=wrap("intro h"), stop_reason=NATURAL_STOP,
        tactic="intro h", result_class="progressed", latency_seconds=0.25,
    ))
    trace.event("push", "k1")
    trace.log.append(QueryRecord(
        ordinal=2, stage=STAGE_RETRIEVAL, state_key="k1", prompt_text="goal P",
        prompt_tokens=2, response="noise", stop_reason=NATURAL_STOP,
        format_error="no tactic", result_class="format-error", latency_seconds=0.1,
    ))
    trace.event("promptify", "k1")  # a prompt whose completion raised: no record
    trace.notes.append("skipped: budget")
    trace.outcome = SearchOutcome(proved=True, proof=("intro h", "exact h"))
    trace.queries_used = 2
    trace.wall_seconds = 0.7
    trace.stage = STAGE_RETRIEVAL
    return trace


HAND_BUILT_LINES = [
    '{"type": "header", "schema": "proofsearch-trace/3", "theorem": "pp", '
    '"config": {"max_queries": 5, "prompt_style": "lean"}, "attempt": 2, '
    '"category": "implication", "bad_reset": "per-stage"}',
    '{"type": "state", "id": 0, "key": "k0"}',
    '{"type": "event", "data": ["push", 0]}',
    '{"type": "event", "data": ["retrieve", 0, [["l_pq", 1.5]]]}',
    '{"type": "query", "ordinal": 1, "stage": "plain", "state_key": 0, '
    '"prompt_text": "goal P -> P", "prompt_tokens": 4, '
    '"response": "[RUN TACTIC] intro h [END]", "stop_reason": "natural-stop", '
    '"tactic": "intro h", "format_error": null, "result_class": "progressed", '
    '"latency_seconds": 0.25}',
    '{"type": "state", "id": 1, "key": "k1"}',
    '{"type": "event", "data": ["push", 1]}',
    '{"type": "query", "ordinal": 2, "stage": "retrieval", "state_key": 1, '
    '"prompt_text": "goal P", "prompt_tokens": 2, "response": "noise", '
    '"stop_reason": "natural-stop", "tactic": null, "format_error": "no tactic", '
    '"result_class": "format-error", "latency_seconds": 0.1}',
    '{"type": "event", "data": ["promptify", 1]}',
    '{"type": "note", "text": "skipped: budget"}',
    '{"type": "outcome", "proved": true, "proof": ["intro h", "exact h"], '
    '"failure_reason": null, "queries_used": 2, "wall_seconds": 0.7, '
    '"stage": "retrieval", "aborted": false, "crc32": 1387229639, "lines": 10}',
]


def with_crc32(text: str) -> str:
    """A trace file's text with its outcome line's crc32 set to match the
    lines before it, as `save` would write it after a hand edit."""
    body, _, last = text[:-1].rpartition("\n")
    outcome = json.loads(last)
    outcome["crc32"] = zlib.crc32((body + "\n").encode("utf-8"))
    return body + "\n" + json.dumps(outcome, ensure_ascii=False) + "\n"


def torn_rewrite(text: str) -> str:
    """`text` written in place over a longer file by `overwrite_text`, and
    killed partway through its last line: the file has the new length, a
    new prefix and the old file's bytes after it. Here the old byte at the
    new end is a newline, so the file ends in a line that is not JSON."""
    written = text.rindex("\n", 0, -1) + 20
    stale = "x" * (len(text) - 1) + "\n" + "x" * 40 + "\n"
    return text[:written] + stale[written:len(text)]


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
        shorter.log.remove(shorter.records[-1])
        shorter.save(path)
        fresh = tmp_path / "fresh.jsonl"
        shorter.save(fresh)
        assert path.read_bytes() == fresh.read_bytes()
        assert len(EpisodeTrace.load(path).records) == 1

    def test_header_without_attempt_or_category_loads_defaults(self, tmp_path):
        path = tmp_path / "old.jsonl"
        lines = ['{"type": "header", "schema": "proofsearch-trace/3", "theorem": "pp", '
                 '"config": {}, "bad_reset": "per-stage"}'] + HAND_BUILT_LINES[1:]
        path.write_text(with_crc32("\n".join(lines) + "\n"), encoding="utf-8")
        trace = EpisodeTrace.load(path)
        assert trace.attempt == 1
        assert trace.category is None
        assert trace.outcome == SearchOutcome(proved=True, proof=("intro h", "exact h"))
        assert trace.stage == STAGE_RETRIEVAL

    def test_loaded_trace_equals_the_saved_one(self, tmp_path):
        path = tmp_path / "pp__a2.jsonl"
        built = hand_built_trace()
        built.save(path)
        loaded = EpisodeTrace.load(path)
        assert loaded.events == built.events
        assert loaded.records == built.records
        assert loaded == built

    @pytest.mark.parametrize("cut", [
        lambda text: text[:-9],  # inside the outcome line
        lambda text: text[:text.rindex('{"type": "outcome"')],  # before it
        lambda text: text[:text.rindex('{"type": "note"')],
        lambda text: text.replace('"lines": 10}', '"lines": 9}'),  # a wrong count
        lambda text: text.replace('{"type": "note"', '{"type": "note", "text": "x"}\n{"type": "note"'),
        torn_rewrite,
    ], ids=["inside-outcome", "before-outcome", "before-note", "wrong-count", "extra-line",
            "torn-rewrite"])
    def test_cut_trace_loads_incomplete(self, tmp_path, cut):
        path = tmp_path / "pp__a2.jsonl"
        hand_built_trace().save(path)
        path.write_text(cut(path.read_text(encoding="utf-8")), encoding="utf-8")
        for read in (EpisodeTrace.load, EpisodeTrace.load_head):
            trace = read(path)
            assert trace.incomplete
            assert (trace.theorem, trace.attempt, trace.category) == ("pp", 2, "implication")
            assert (trace.records, trace.events, trace.outcome) == ((), (), None)
            with pytest.raises(ValueError, match="incomplete"):
                trace.save(tmp_path / "again.jsonl")

    def test_complete_trace_is_not_incomplete(self, tmp_path):
        path = tmp_path / "pp__a2.jsonl"
        hand_built_trace().save(path)
        assert not EpisodeTrace.load(path).incomplete

    def test_version_1_trace_names_its_file_and_schema(self, tmp_path):
        path = tmp_path / "pp__a2.jsonl"
        path.write_text('{"type": "header", "schema": "proofsearch-trace/1", "theorem": "pp", '
                        '"config": {}, "bad_reset": "per-stage"}\n', encoding="utf-8")
        with pytest.raises(TraceFormatError) as error:
            EpisodeTrace.load(path)
        assert str(error.value) == (f"{path}: trace schema 'proofsearch-trace/1' is not "
                                    "supported; this version reads 'proofsearch-trace/3'")

    @pytest.mark.parametrize("edit", [
        lambda text: "",
        lambda text: text[:40],  # cut inside the header
        lambda text: "not json\n" + text,
        lambda text: text.replace('["push", 1]', '["push", 7]'),  # an undefined state id
        lambda text: text.replace('"ordinal": 2', '"ordinal": 2, "extra": 1'),
        lambda text: text.replace('{"type": "note"', '{"type": "remark"'),
    ], ids=["empty", "cut-header", "no-header", "state-id", "record-field", "line-type"])
    def test_unreadable_trace_raises_one_line(self, tmp_path, edit):
        path = tmp_path / "pp__a2.jsonl"
        hand_built_trace().save(path)
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        with pytest.raises(TraceFormatError) as error:
            EpisodeTrace.load(path)
        message = str(error.value)
        assert message.startswith(f"{path}: ") and "proofsearch-trace/3" in message
        assert "\n" not in message
        with pytest.raises(TraceFormatError) as from_results:
            results_from_traces(tmp_path)
        assert str(from_results.value) == message

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace('["push", 1]', '["push", 7]'),  # an undefined state id
        lambda text: text.replace('"ordinal": 2', '"ordinal": 2, "extra": 1'),
        lambda text: text.replace('{"type": "note"', '{"type": "remark"'),
    ], ids=["state-id", "record-field", "line-type"])
    def test_body_that_matches_its_crc32_but_does_not_parse(self, tmp_path, edit):
        path = tmp_path / "pp__a2.jsonl"
        hand_built_trace().save(path)
        path.write_text(with_crc32(edit(path.read_text(encoding="utf-8"))), encoding="utf-8")
        with pytest.raises(TraceFormatError) as error:
            EpisodeTrace.load(path)
        assert str(error.value).startswith(f"{path}: unreadable proofsearch-trace/3 trace: ")
        assert "\n" not in str(error.value)
        assert EpisodeTrace.load_head(path).outcome.proved  # the head step reads no body

    def test_same_length_body_edit_that_parses_raises(self, tmp_path):
        path = tmp_path / "pp__a2.jsonl"
        hand_built_trace().save(path)
        text = path.read_text(encoding="utf-8")
        edited = text.replace('"prompt_text": "goal P -> P"', '"prompt_text": "goal Q -> P"')
        assert edited != text and len(edited) == len(text)  # one character, still JSON
        path.write_text(edited, encoding="utf-8")
        expected = (f"{path}: damaged proofsearch-trace/3 trace: its lines do not match "
                    "the crc32 on its outcome line")
        for read in (EpisodeTrace.load, EpisodeTrace.load_head):
            with pytest.raises(TraceFormatError) as error:
                read(path)
            assert str(error.value) == expected

    def test_version_2_trace_names_its_file_and_schema(self, tmp_path):
        path = tmp_path / "pp__a2.jsonl"
        lines = [HAND_BUILT_LINES[0].replace("proofsearch-trace/3", "proofsearch-trace/2"),
                 *HAND_BUILT_LINES[1:-1],
                 HAND_BUILT_LINES[-1].replace('"crc32": 1387229639, ', "")]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for read in (EpisodeTrace.load, EpisodeTrace.load_head):
            with pytest.raises(TraceFormatError) as error:
                read(path)
            assert str(error.value) == (f"{path}: trace schema 'proofsearch-trace/2' is not "
                                        "supported; this version reads 'proofsearch-trace/3'")

    def test_head_holds_the_header_and_outcome_only(self, tmp_path):
        path = tmp_path / "pp__a2.jsonl"
        built = hand_built_trace()
        built.save(path)
        head = EpisodeTrace.load_head(path)
        assert head.head_only and not head.incomplete
        assert (head.records, head.events, head.notes) == ((), (), [])
        for name in ("theorem", "config", "attempt", "category", "bad_reset", "outcome",
                     "queries_used", "wall_seconds", "stage", "aborted"):
            assert getattr(head, name) == getattr(built, name), name
        assert head != EpisodeTrace.load(path)
        with pytest.raises(ValueError, match="without its body"):
            head.save(tmp_path / "again.jsonl")
        with pytest.raises(ValueError, match="without its body"):
            head.comparable()
        assert not (tmp_path / "again.jsonl").exists()

    def test_save_makes_a_missing_directory(self, tmp_path):
        path = tmp_path / "runs" / "traces" / "pp__a2.jsonl"
        hand_built_trace().save(path)
        assert path.read_text(encoding="utf-8").splitlines() == HAND_BUILT_LINES

    def test_save_into_an_existing_directory_makes_none(self, tmp_path, monkeypatch):
        def no_mkdir(self, *args, **kwargs):
            raise AssertionError(f"mkdir {self}")

        monkeypatch.setattr(proofsearch.trace.Path, "mkdir", no_mkdir)
        path = tmp_path / "pp__a2.jsonl"
        hand_built_trace().save(path)
        hand_built_trace().save(str(path))  # over the file, by a str path
        assert path.read_text(encoding="utf-8").splitlines() == HAND_BUILT_LINES

    def test_save_under_a_regular_file_raises(self, tmp_path):
        parent = tmp_path / "traces"
        parent.write_text("not a directory", encoding="utf-8")
        with pytest.raises(FileExistsError):
            hand_built_trace().save(parent / "pp__a2.jsonl")
        assert parent.read_text(encoding="utf-8") == "not a directory"


def reference_head_verdict(data: bytes, path) -> tuple:
    """The head step's verdict on a trace file's bytes, with its lines
    counted by `data.count(b"\\n")`: ("complete", None), ("incomplete",
    None) or ("error", message). Independent of `_read_head`, from
    docs/trace-format.md, for files whose header and outcome fields are
    whole; it checks the header, its schema, `lines`, then `crc32`."""
    end = data.find(b"\n")
    try:
        header = json.loads(data if end < 0 else data[:end])
    except ValueError:
        header = None
    if not isinstance(header, dict) or header.get("type") != "header":
        return "error", (f"{path}: not a trace file: its first line is not a "
                         f"{TRACE_SCHEMA} header")
    if header.get("schema") != TRACE_SCHEMA:
        return "error", (f"{path}: trace schema {header.get('schema')!r} is not supported; "
                         f"this version reads {TRACE_SCHEMA!r}")
    lines = data.split(b"\n")
    if lines[-1] != b"" or len(lines) < 3:  # no newline at the end, or no outcome line
        return "incomplete", None
    try:
        outcome = json.loads(lines[-2])
    except ValueError:
        return "incomplete", None
    if (not isinstance(outcome, dict) or outcome.get("type") != "outcome"
            or outcome.get("lines") != data.count(b"\n") - 1):
        return "incomplete", None
    if outcome.get("crc32") != zlib.crc32(data[:len(data) - len(lines[-2]) - 1]):
        return "error", (f"{path}: damaged {TRACE_SCHEMA} trace: its lines do not match "
                         "the crc32 on its outcome line")
    return "complete", None


def head_verdict(read, path) -> tuple:
    try:
        trace = read(path)
    except TraceFormatError as exc:
        return "error", str(exc)
    return ("incomplete" if trace.incomplete else "complete"), None


def with_outcome(data: bytes, **fields) -> bytes:
    """The trace's bytes with fields of its outcome line replaced."""
    body, _, last = data[:-1].rpartition(b"\n")
    outcome = {**json.loads(last), **fields}
    return body + b"\n" + json.dumps(outcome, ensure_ascii=False).encode("utf-8") + b"\n"


def mutations(data: bytes, rng: random.Random):
    """(name, bytes) for seeded damage to a saved trace: cuts at every byte
    of its last two lines, at random body offsets and in the header, a
    flipped body byte,
    an added and a dropped line, `lines` off by one and a wrong `crc32`."""
    header_end = data.find(b"\n") + 1
    outcome_start = data.rfind(b"\n", 0, -1) + 1
    last_two = data.rfind(b"\n", 0, outcome_start - 1) + 1
    for cut in range(last_two, len(data) + 1):
        yield f"cut at {cut}", data[:cut]
    for _ in range(8):
        cut = rng.randrange(header_end, outcome_start)
        yield f"cut at {cut}", data[:cut]
    cut = rng.randrange(header_end)
    yield f"cut at {cut}", data[:cut]  # inside the header
    for _ in range(4):
        at = rng.randrange(header_end, outcome_start)
        flipped = data[at] ^ rng.randrange(1, 256)
        yield f"byte {at} flipped", data[:at] + bytes([flipped]) + data[at + 1:]
    lines = data.splitlines(keepends=True)
    for _ in range(2):
        n = rng.randrange(1, len(lines) - 1)
        yield f"line {n} dropped", b"".join(lines[:n] + lines[n + 1:])
        yield f"line {n} added", b"".join(lines[:n + 1] + lines[n:])
    outcome = json.loads(data[outcome_start:-1])
    for delta in (-1, 1):
        yield f"lines {delta:+d}", with_outcome(data, lines=outcome["lines"] + delta)
    yield "crc32 wrong", with_outcome(data, crc32=outcome["crc32"] ^ 1)


def short_line_trace() -> EpisodeTrace:
    """A trace whose body lines are all shorter than 40 bytes."""
    trace = EpisodeTrace(theorem="pp", config={})
    for n in range(30):
        trace.event("push", "k")
        trace.event(str(n % 10))
        trace.event("pop", "k")
    trace.outcome = SearchOutcome(proved=False, failure_reason=REASON_EXHAUSTED)
    return trace


class TestHeadCheckAgainstReference:
    """`load_head` and `load` give the reference's verdict and message on
    seeded damage to real saved traces: the bundled suite's, and one of
    short lines."""

    @pytest.fixture(scope="class")
    def saved(self, suite, corpus_index, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("bundled")
        bench = BenchmarkSuite(suite=suite, index=corpus_index)
        run_suite(bench, config(max_queries=33), out_dir,
                  lambda theorem, attempt: (oracle_scripted_backend(theorem, max_depth=2)
                                            or ScriptedBackend({})))
        short = out_dir / "traces" / "short__a1.jsonl"
        short_line_trace().save(short)
        assert max(map(len, short.read_bytes().splitlines()[1:-1])) < 40
        return sorted((out_dir / "traces").glob("*.jsonl"))

    def test_verdicts_equal_the_reference(self, saved, tmp_path):
        assert len(saved) == 33
        rng = random.Random(27)
        path = tmp_path / "mutated.jsonl"
        seen = set()
        for original in saved:
            data = original.read_bytes()
            assert reference_head_verdict(data, original) == ("complete", None)
            for name, mutated in mutations(data, rng):
                overwrite_text(path, mutated)  # in place: no write-back wait per file
                expected = reference_head_verdict(mutated, path)
                for read in (EpisodeTrace.load_head, EpisodeTrace.load):
                    assert head_verdict(read, path) == expected, (original.name, name, read)
                seen.add(expected[0] if expected[1] is None else expected[1].split(": ")[1])
        assert seen == {"complete", "incomplete", "damaged proofsearch-trace/3 trace",
                        "not a trace file"}
