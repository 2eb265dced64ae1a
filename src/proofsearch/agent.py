"""LLM-guided depth-first proof search with backtracking, failure memory,
a symbolic progress guard, and the staged ensemble strategy.

The search keeps a stack of non-error states and a failure table mapping
state keys to tactics known to be unproductive there (they errored or
failed the progress check). At each state it prompts the guidance backend
up to a fixed number of times, executes the proposed tactic, and either
terminates on QED, records the tactic as bad, or recurses; exhausting the
per-state budget pops the stack. Global query and wall-clock budgets abort
the search wherever they trip.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .core import (
    GlobalContext,
    InfrastructureFailure,
    ProofEnvironment,
    ProofState,
    at_least_as_hard,
    canonical_key,
)
from .llm import CompletionRequest, GuidanceBackend
from .prompts import (
    ParsedAction,
    PromptBundle,
    parse_tactic,
    promptify,
    sketch_prompt,
)
from .retrieval import RetrievalIndex, retrieve
from .trace import (INFRASTRUCTURE_NOTE, REASON_BUDGET, REASON_EXHAUSTED,
                    REASON_INFRASTRUCTURE, REASON_TIMEOUT, STAGE_INFORMAL, STAGE_PLAIN,
                    STAGE_RETRIEVAL, EpisodeTrace, QueryRecord, SearchOutcome)

NO_PROGRESS_MESSAGE = (
    "no progress: the resulting proof state is at least as hard as a state "
    "already on the search stack"
)


@dataclass
class SearchConfig:
    max_queries: int = 60
    wall_timeout_seconds: float = 600.0
    per_state_budget: int = 4
    max_depth: int = 50
    format_retry_cap: int = 3  # repair queries per attempt, inside max_queries
    token_budget: int = 4096
    k_retrieve: int = 8
    prompt_style: str = "lean"

    def __post_init__(self):
        for name in ("max_queries", "per_state_budget", "max_depth", "token_budget", "k_retrieve"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.format_retry_cap < 0:
            raise ValueError("format_retry_cap must be >= 0")
        if self.wall_timeout_seconds <= 0:
            raise ValueError("wall_timeout_seconds must be > 0")

    def to_dict(self) -> dict:
        return dict(vars(self))


class _Budget:
    """Query and wall-clock budget shared across ensemble stages. The clock
    runs out at the deadline, or once the episode's `log` is `timeout_at`
    long: the backend's `timeout_at`, where a replay's recording timed out."""

    def __init__(self, max_queries: int, wall_timeout_seconds: float, log: list | tuple = (),
                 timeout_at: int | None = None):
        self.max_queries = max_queries
        self.queries_used = 0
        self.started = time.monotonic()
        self.deadline = self.started + wall_timeout_seconds
        self.log = log
        self.timeout_at = timeout_at

    def exhausted_reason(self) -> str | None:
        if self.queries_used >= self.max_queries:
            return REASON_BUDGET
        if len(self.log) == self.timeout_at or time.monotonic() >= self.deadline:
            return REASON_TIMEOUT
        return None

    def consume(self) -> int:
        self.queries_used += 1
        return self.queries_used

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def _ask(backend, budget, trace, stage, key, system, text, tokens) -> QueryRecord:
    """One query: ask `backend` to complete `text` under `system`, spend one
    query of `budget` and log its record on `trace`. A backend that raises
    spends and logs nothing."""
    completion = backend.complete(CompletionRequest(
        system=system, turns=[("user", text)], metadata={"state_key": key, "stage": stage}))
    record = QueryRecord(ordinal=budget.consume(), stage=stage, state_key=key, prompt_text=text,
                         prompt_tokens=tokens, response=completion.text,
                         stop_reason=completion.stop_reason,
                         latency_seconds=completion.latency_seconds)
    trace.log.append(record)
    return record


class _Abort(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Proved(Exception):
    def __init__(self, proof: list):
        super().__init__("proved")
        self.proof = proof


@dataclass
class _Frame:
    state: ProofState
    least_goal: str  # the goal of the state's first obligation in order


class _Searcher:
    def __init__(self, env, backend, index, gctx, config, budget, trace, stage, rankings):
        self.env = env
        self.backend = backend
        self.index = index
        self.rankings = rankings  # state key -> its `retrieve` ranking, for the episode
        self.gctx = gctx
        self.config = config
        self.budget = budget
        self.trace = trace
        self.stage = stage
        self.bad: dict = {}  # state key -> ordered list of bad tactics
        self.stack: list = []  # the frames of the states being searched, root first

    def run(self, theorem_id: str):
        if self.stage == STAGE_INFORMAL:  # the stage starts with its sketch
            sketch = generate_informal_sketch(self.gctx.theorem_statement, self.backend,
                                              self.budget, self.trace)
            if sketch is not None:
                self.gctx = replace(self.gctx, informal_hints=sketch)
        reason = self.budget.exhausted_reason()
        if reason is not None:  # no budget left to start this stage
            raise _Abort(reason)
        initial = self.env.initial_state(theorem_id)
        if initial.is_error:
            raise ValueError("initial state must be non-error")
        if initial.is_qed:
            raise InfrastructureFailure(
                "the theorem was closed at its initial state: no tactic script to replay")
        self._search(initial, path=[])

    # one state: push, retrieve, query loop, pop
    def _search(self, state: ProofState, path: list):
        key = canonical_key(state)
        self.stack.append(_Frame(state, state.obligations[0].goal))
        self.trace.event("push", key)
        rho = None
        if self.index is not None:
            rho = self.rankings.get(key)
            if rho is None:
                rho = self.rankings[key] = retrieve(self.index, state, self.config.k_retrieve)
            self.trace.event("retrieve", key, [[r.name, score] for r, score in rho])
        bad = self.bad.setdefault(key, [])
        # the frame's one bundle: a query changes only its incorrect steps, last step,
        # outcome and notice
        bundle = PromptBundle(state=state, bad_tactics=bad, retrieved=rho, context=self.gctx,
                              steps=path)
        for _ in range(self.config.per_state_budget):
            queried = self._query_tactic(key, bundle)
            if queried is None:
                # format repairs exhausted; the attempt is spent
                continue
            tactic, record = queried
            new_state = self.env.apply_tactic(state, tactic)
            if new_state.is_qed:
                result = "qed"
            elif new_state.is_error:
                result, bundle.last_outcome = "error", new_state.error_message
            elif self._dominated(new_state) or len(self.stack) >= self.config.max_depth:
                result, bundle.last_outcome = "no-progress", NO_PROGRESS_MESSAGE
            else:
                result, bundle.last_outcome = "progressed", "success"
            record.result_class = result
            bundle.last_step = tactic
            if result == "qed":
                raise _Proved(path + [tactic])
            if result == "progressed":
                self._search(new_state, path + [tactic])
            elif tactic not in bad:
                bad.append(tactic)
                self.trace.event("bad", key, tactic)
        # per-state attempts exhausted: backtrack (a proof or an abort
        # unwinds past this point without emitting a pop)
        self.stack.pop()
        self.trace.event("pop", key)

    def _dominated(self, state: ProofState) -> bool:
        """Whether `state` is at least as hard as a frame on the stack. A
        state has every goal of a frame it is at least as hard as, so a
        frame whose least goal the state lacks is skipped unchecked."""
        goals = {ob.goal for ob in state.obligations}
        return any(f.least_goal in goals and at_least_as_hard(state, f.state)
                   for f in self.stack)

    def _query_tactic(self, key: str, bundle: PromptBundle):
        """Prompt for one tactic at the frame of `key`, spending repair
        queries on format errors. Sets the bundle's notice, and logs one
        record a query once the backend has answered.

        Returns (tactic, record), or None when format_retry_cap consecutive
        repairs did not yield a parseable response.
        """
        bundle.format_error_notice = None
        for _ in range(self.config.format_retry_cap + 1):
            reason = self.budget.exhausted_reason()
            if reason is not None:
                raise _Abort(reason)
            prompt = promptify(bundle, self.config.token_budget, self.config.prompt_style)
            try:
                record = _ask(self.backend, self.budget, self.trace, self.stage, key,
                              prompt.system, prompt.agent_text, prompt.token_estimate)
            except InfrastructureFailure:
                self.trace.event("promptify", key)  # a prompt with no record
                raise
            parsed = parse_tactic(record.response, record.stop_reason)
            if isinstance(parsed, ParsedAction):
                record.tactic = parsed.tactic
                return parsed.tactic, record
            record.format_error = parsed.reason
            record.result_class = "format-error"
            bundle.format_error_notice = parsed.repair_message
        return None


def prove(
    theorem_id: str,
    env: ProofEnvironment,
    backend: GuidanceBackend,
    index: RetrievalIndex | None,
    gctx: GlobalContext | None,
    config: SearchConfig,
    trace: EpisodeTrace | None = None,
    budget: _Budget | None = None,
    stage: str = STAGE_PLAIN,
    rankings: dict | None = None,
):
    """Run one stage: the depth-first search for one theorem, which the
    informal stage starts with a sketch query (`generate_informal_sketch`).

    Returns (SearchOutcome, EpisodeTrace) and records on the trace how the
    stage ended; a budget spent before it starts ends it with no call to
    the environment. `rankings` maps a state key to its `retrieve`
    ranking: the stages of an episode share one, and a stage run alone
    gets its own, so each distinct state is ranked once an episode.
    An InfrastructureFailure aborts the trace and is not a proof failure:
    one of the backend (at the sketch too) or the environment, `init`
    included, a token budget too small for the goals, or an initial state
    that is already QED.
    """
    if trace is None:
        trace = EpisodeTrace(theorem=theorem_id, config=config.to_dict())
    if budget is None:
        budget = _Budget(config.max_queries, config.wall_timeout_seconds, trace.log,
                         backend.timeout_at)
    if rankings is None:
        rankings = {}
    trace.stage = stage
    searcher = _Searcher(env, backend, index, gctx, config, budget, trace, stage, rankings)
    try:
        searcher.run(theorem_id)
        outcome = SearchOutcome(proved=False, failure_reason=REASON_EXHAUSTED)
    except _Proved as proved:
        outcome = SearchOutcome(proved=True, proof=tuple(proved.proof))
    except _Abort as abort:
        outcome = SearchOutcome(proved=False, failure_reason=abort.reason)
    except InfrastructureFailure as exc:
        trace.notes.append(f"{INFRASTRUCTURE_NOTE}{exc}")
        trace.aborted = True
        outcome = SearchOutcome(proved=False, failure_reason=REASON_INFRASTRUCTURE)
    trace.outcome = outcome
    trace.queries_used = budget.queries_used
    trace.wall_seconds = budget.elapsed()
    return outcome, trace


def generate_informal_sketch(
    theorem_statement: str,
    backend: GuidanceBackend,
    budget: _Budget,
    trace: EpisodeTrace,
) -> str | None:
    """One few-shot completion producing an informal proof sketch.

    Costs one query from the shared budget; None, with a `skipped` note,
    when the budget is already exhausted. A backend failure raises
    InfrastructureFailure, which aborts the episode as in the search.
    """
    reason = budget.exhausted_reason()
    if reason is not None:
        trace.notes.append(f"skipped: {reason}")
        return None
    record = _ask(backend, budget, trace, STAGE_INFORMAL, "sketch", sketch_prompt(),
                  f"Theorem: {theorem_statement}", 0)
    record.result_class = "sketch"
    return record.response


def ensemble_prove(
    theorem_id: str,
    env: ProofEnvironment,
    backend: GuidanceBackend,
    index: RetrievalIndex | None,
    gctx: GlobalContext,
    config: SearchConfig,
):
    """Staged strategy under one shared query/time budget: plain search,
    then with retrieval, then with retrieval plus an informal sketch.

    Each stage is one call to `prove`, which records how it ended; the
    episode stops at the first stage that does not end in an exhausted
    search. Every stage starts from the environment's initial state, and
    the stages share one table of rankings, so a state is ranked once an
    episode however many stages push it. Only the failure table is reset
    between stages (each stage is a distinct execution); the trace labels
    every query with its stage.
    """
    trace = EpisodeTrace(theorem=theorem_id, config=config.to_dict())
    budget = _Budget(config.max_queries, config.wall_timeout_seconds, trace.log,
                     backend.timeout_at)
    rankings: dict = {}
    stages = [(STAGE_PLAIN, None)]
    if index is not None:
        stages += [(STAGE_RETRIEVAL, index), (STAGE_INFORMAL, index)]
    for stage, stage_index in stages:
        outcome, trace = prove(
            theorem_id, env, backend, stage_index, gctx, config,
            trace=trace, budget=budget, stage=stage, rankings=rankings,
        )
        if outcome.failure_reason != REASON_EXHAUSTED:
            break
    return outcome, trace
