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

import json
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from .bridge import BridgeFailure
from .core import (
    GlobalContext,
    ProofEnvironment,
    ProofState,
    at_least_as_hard,
    canonical_key,
)
from .llm import CompletionRequest, GuidanceBackend, InfrastructureFailure
from .prompts import (
    FormatError,
    ParsedAction,
    PromptBudgetError,
    PromptBundle,
    parse_tactic,
    promptify,
    sketch_prompt,
)
from .retrieval import RetrievalIndex, retrieve

NO_PROGRESS_MESSAGE = (
    "no progress: the resulting proof state is at least as hard as a state "
    "already on the search stack"
)

TRACE_SCHEMA = "proofsearch-trace/1"

STAGE_PLAIN = "plain"
STAGE_RETRIEVAL = "retrieval"
STAGE_INFORMAL = "informal"

REASON_BUDGET = "budget"
REASON_TIMEOUT = "timeout"
REASON_EXHAUSTED = "search exhausted"
REASON_INFRASTRUCTURE = "infrastructure"


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


@dataclass(frozen=True)
class SearchOutcome:
    proved: bool
    proof: tuple = ()
    failure_reason: str | None = None

    def __post_init__(self):
        if self.proved and not self.proof:
            raise ValueError("a proved outcome needs a nonempty proof")

    def to_dict(self) -> dict:
        return {**vars(self), "proof": list(self.proof)}


@dataclass
class QueryRecord:
    ordinal: int
    stage: str
    state_key: str
    prompt_text: str
    prompt_tokens: int
    response: str
    stop_reason: str
    tactic: str | None = None
    format_error: str | None = None
    result_class: str | None = None  # qed | progressed | error | no-progress | format-error | sketch
    latency_seconds: float = 0.0

    def to_dict(self) -> dict:
        # A dataclass instance's dict holds exactly its fields, in declaration
        # order; `dataclasses.asdict` would deep-copy every value, and a
        # getattr per field name costs three times as much on this per-query path.
        return {"type": "query", **vars(self)}


def _field_dict(obj, names: tuple) -> dict:
    return {name: getattr(obj, name) for name in names}


def overwrite_text(path: str | Path, text: str):
    """Write `text` to `path` as UTF-8, replacing what the file held.

    An existing file is cut to the new length and overwritten in place,
    not truncated to zero first: on ext4 with `auto_da_alloc` (the
    default), closing a file that was truncated to zero and rewritten
    starts its write-back at once, so a run into an existing output
    directory waited on the disk at every trace (0.25 ms a 13 KB file,
    at times past 1 ms, against 0.03 ms in place, on an ext4 virtual
    disk)."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        os.ftruncate(fd, len(data))
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


# EpisodeTrace fields on the trace's header line, and on its outcome line
# after the SearchOutcome's own fields
_HEADER_FIELDS = ("theorem", "config", "attempt", "category", "bad_reset")
_TRAILER_FIELDS = ("queries_used", "wall_seconds", "stage", "aborted")


@dataclass
class EpisodeTrace:
    """Per-episode record of every query, search event, and the outcome."""

    theorem: str
    config: dict
    attempt: int = 1
    category: str | None = None
    bad_reset: str = "per-stage"
    records: list = field(default_factory=list)
    events: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    outcome: SearchOutcome | None = None
    queries_used: int = 0
    wall_seconds: float = 0.0
    stage: str = STAGE_PLAIN
    aborted: bool = False  # infrastructure failure, excluded from metrics

    def event(self, *data):
        self.events.append(tuple(data))

    def comparable(self) -> dict:
        """Trace content with wall-clock fields stripped, for determinism
        comparisons."""
        records = []
        for record in self.records:
            item = record.to_dict()
            item.pop("latency_seconds")
            records.append(item)
        trailer = _field_dict(self, _TRAILER_FIELDS)
        trailer.pop("wall_seconds")
        return {
            **_field_dict(self, _HEADER_FIELDS),
            "records": records,
            "events": [list(e) for e in self.events],
            "notes": self.notes,
            "outcome": None if self.outcome is None else self.outcome.to_dict(),
            **trailer,
        }

    def save(self, path: str | Path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        outcome = self.outcome or SearchOutcome(proved=False)
        lines = [{"type": "header", "schema": TRACE_SCHEMA, **_field_dict(self, _HEADER_FIELDS)}]
        lines += [record.to_dict() for record in self.records]
        lines += [{"type": "event", "data": list(event)} for event in self.events]
        lines += [{"type": "note", "text": note} for note in self.notes]
        lines.append({"type": "outcome", **outcome.to_dict(),
                      **_field_dict(self, _TRAILER_FIELDS)})
        overwrite_text(path, "".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines))

    @classmethod
    def load(cls, path: str | Path) -> "EpisodeTrace":
        trace = None
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            item = json.loads(line)
            kind = item.pop("type")
            if kind == "header":
                schema = item.pop("schema", None)
                if schema != TRACE_SCHEMA:
                    raise ValueError(f"unsupported trace schema {schema!r}")
                trace = cls(**item)
            elif kind == "query":
                trace.records.append(QueryRecord(**item))
            elif kind == "event":
                trace.events.append(tuple(item["data"]))
            elif kind == "note":
                trace.notes.append(item["text"])
            elif kind == "outcome":
                for name in _TRAILER_FIELDS:
                    setattr(trace, name, item.pop(name))
                item["proof"] = tuple(item["proof"])
                trace.outcome = SearchOutcome(**item)
        if trace is None:
            raise ValueError(f"no trace header in {path}")
        return trace


class _Budget:
    """Query and wall-clock budget shared across ensemble stages."""

    def __init__(self, max_queries: int, wall_timeout_seconds: float):
        self.max_queries = max_queries
        self.queries_used = 0
        self.started = time.monotonic()
        self.deadline = self.started + wall_timeout_seconds

    def exhausted_reason(self) -> str | None:
        if self.queries_used >= self.max_queries:
            return REASON_BUDGET
        if time.monotonic() >= self.deadline:
            return REASON_TIMEOUT
        return None

    def consume(self) -> int:
        self.queries_used += 1
        return self.queries_used

    def elapsed(self) -> float:
        return time.monotonic() - self.started


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
    key: str
    rho: object = None


class _Searcher:
    def __init__(self, env, backend, index, gctx, config, budget, trace, stage):
        self.env = env
        self.backend = backend
        self.index = index
        self.gctx = gctx
        self.config = config
        self.budget = budget
        self.trace = trace
        self.stage = stage
        self.bad: dict = {}  # state key -> ordered list of bad tactics
        self.frames: list = []

    def run(self, theorem_id: str):
        initial = self.env.initial_state(theorem_id)
        if initial.is_error:
            raise ValueError("initial state must be non-error")
        if initial.is_qed:
            raise ValueError("theorem is already proved at the initial state")
        self._search(initial, depth=0, path=[])

    # one state: push, retrieve, query loop, pop
    def _search(self, state: ProofState, depth: int, path: list):
        key = canonical_key(state)
        frame = _Frame(state, key)
        self.frames.append(frame)
        self.trace.event("push", key)
        if self.index is not None:
            frame.rho = retrieve(self.index, state, self.config.k_retrieve)
            self.trace.event(
                "retrieve", key, [[r.name, score] for r, score in frame.rho]
            )
        bad = self.bad.setdefault(key, [])
        last_step: str | None = None
        last_outcome: str | None = None
        for _ in range(self.config.per_state_budget):
            queried = self._query_tactic(frame, bad, path, last_step, last_outcome)
            if queried is None:
                # format repairs exhausted; the attempt is spent
                continue
            tactic, record = queried
            new_state = self.env.apply_tactic(state, tactic)
            if new_state.is_qed:
                record.result_class = "qed"
                self.trace.event("transition", "qed")
                raise _Proved(path + [tactic])
            if new_state.is_error:
                record.result_class = "error"
                self.trace.event("transition", "error")
                if tactic not in bad:
                    bad.append(tactic)
                    self.trace.event("bad", key, tactic)
                last_step, last_outcome = tactic, new_state.error_message
                continue
            dominated = any(
                at_least_as_hard(new_state, f.state) for f in self.frames
            )
            if dominated or depth + 1 >= self.config.max_depth:
                record.result_class = "no-progress"
                self.trace.event("transition", "no-progress")
                if tactic not in bad:
                    bad.append(tactic)
                    self.trace.event("bad", key, tactic)
                last_step, last_outcome = tactic, NO_PROGRESS_MESSAGE
                continue
            record.result_class = "progressed"
            self.trace.event("transition", "progressed")
            last_step, last_outcome = tactic, "success"
            self._search(new_state, depth + 1, path + [tactic])
        # per-state attempts exhausted: backtrack (a proof or an abort
        # unwinds past this point without emitting a pop)
        self.frames.pop()
        self.trace.event("pop", key)

    def _query_tactic(self, frame, bad, path, last_step, last_outcome):
        """Prompt for one tactic, spending repair queries on format errors.

        Returns the tactic text, or None when format_retry_cap consecutive
        repairs did not yield a parseable response.
        """
        notice = None
        for _ in range(self.config.format_retry_cap + 1):
            reason = self.budget.exhausted_reason()
            if reason is not None:
                raise _Abort(reason)
            bundle = PromptBundle(
                state=frame.state,
                bad_tactics=list(bad),
                retrieved=frame.rho,
                context=self.gctx,
                steps=list(path),
                last_step=last_step,
                last_outcome=last_outcome,
                format_error_notice=notice,
            )
            prompt = promptify(bundle, self.config.token_budget, self.config.prompt_style)
            self.trace.event("promptify", frame.key)
            request = CompletionRequest(
                system=prompt.system,
                turns=[("user", prompt.agent_text)],
                metadata={"state_key": frame.key, "stage": self.stage},
            )
            completion = self.backend.complete(request)
            ordinal = self.budget.consume()
            parsed = parse_tactic(completion.text, completion.stop_reason)
            record = QueryRecord(
                ordinal=ordinal,
                stage=self.stage,
                state_key=frame.key,
                prompt_text=prompt.agent_text,
                prompt_tokens=prompt.token_estimate,
                response=completion.text,
                stop_reason=completion.stop_reason,
                latency_seconds=completion.latency_seconds,
            )
            self.trace.records.append(record)
            if isinstance(parsed, ParsedAction):
                record.tactic = parsed.tactic
                self.trace.event("parse", parsed.tactic)
                return parsed.tactic, record
            record.format_error = parsed.reason
            record.result_class = "format-error"
            self.trace.event("parse-error")
            notice = parsed.repair_message
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
):
    """Run the depth-first search for one theorem.

    Returns (SearchOutcome, EpisodeTrace). Infrastructure failures of the
    backend or the environment, `init` included, and a token budget too
    small for the goals abort the trace; they are not proof failures.
    """
    if trace is None:
        trace = EpisodeTrace(theorem=theorem_id, config=config.to_dict())
    if budget is None:
        budget = _Budget(config.max_queries, config.wall_timeout_seconds)
    trace.stage = stage
    searcher = _Searcher(env, backend, index, gctx, config, budget, trace, stage)
    try:
        searcher.run(theorem_id)
        outcome = SearchOutcome(proved=False, failure_reason=REASON_EXHAUSTED)
    except _Proved as proved:
        outcome = SearchOutcome(proved=True, proof=tuple(proved.proof))
    except _Abort as abort:
        outcome = SearchOutcome(proved=False, failure_reason=abort.reason)
    except (InfrastructureFailure, BridgeFailure, PromptBudgetError) as exc:
        trace.notes.append(f"infrastructure failure: {exc}")
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

    Costs one query from the shared budget; None when the budget is
    already exhausted or the backend fails.
    """
    reason = budget.exhausted_reason()
    if reason is not None:
        trace.notes.append(f"skipped: {reason}")
        return None
    system = sketch_prompt()
    request = CompletionRequest(
        system=system,
        turns=[("user", f"Theorem: {theorem_statement}")],
        metadata={"state_key": "sketch", "stage": STAGE_INFORMAL},
    )
    try:
        completion = backend.complete(request)
    except (InfrastructureFailure, BridgeFailure) as exc:
        trace.notes.append(f"skipped: infrastructure failure: {exc}")
        return None
    ordinal = budget.consume()
    trace.records.append(
        QueryRecord(
            ordinal=ordinal,
            stage=STAGE_INFORMAL,
            state_key="sketch",
            prompt_text=f"Theorem: {theorem_statement}",
            prompt_tokens=0,
            response=completion.text,
            stop_reason=completion.stop_reason,
            result_class="sketch",
            latency_seconds=completion.latency_seconds,
        )
    )
    trace.event("sketch")
    return completion.text


def ensemble_prove(
    theorem_id: str,
    env: ProofEnvironment,
    backend: GuidanceBackend,
    index: RetrievalIndex | None,
    config: SearchConfig,
    gctx: GlobalContext | None = None,
):
    """Staged strategy under one shared query/time budget: plain search,
    then with retrieval, then with retrieval plus an informal sketch.

    The failure table is reset between stages (each stage is a distinct
    execution); the trace labels every query with its stage.
    """
    if gctx is None:
        gctx = GlobalContext(theorem_statement=theorem_id)
    trace = EpisodeTrace(theorem=theorem_id, config=config.to_dict())
    budget = _Budget(config.max_queries, config.wall_timeout_seconds)

    stages = [(STAGE_PLAIN, None, gctx)]
    if index is not None:
        stages.append((STAGE_RETRIEVAL, index, gctx))
        stages.append((STAGE_INFORMAL, index, gctx))

    outcome = SearchOutcome(proved=False, failure_reason=REASON_EXHAUSTED)
    for stage, stage_index, stage_gctx in stages:
        if stage == STAGE_INFORMAL:
            sketch = generate_informal_sketch(gctx.theorem_statement, backend, budget, trace)
            if sketch is not None:
                stage_gctx = replace(gctx, informal_hints=sketch)
        reason = budget.exhausted_reason()
        if reason is not None:
            outcome = SearchOutcome(proved=False, failure_reason=reason)
            trace.stage = stage
            break
        outcome, trace = prove(
            theorem_id, env, backend, stage_index, stage_gctx, config,
            trace=trace, budget=budget, stage=stage,
        )
        if outcome.proved or outcome.failure_reason in (
            REASON_BUDGET, REASON_TIMEOUT, REASON_INFRASTRUCTURE,
        ):
            break
    trace.outcome = outcome
    trace.queries_used = budget.queries_used
    trace.wall_seconds = budget.elapsed()
    return outcome, trace
