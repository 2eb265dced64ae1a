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
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

from .core import (
    GlobalContext,
    InfrastructureFailure,
    ProofEnvironment,
    ProofState,
    at_least_as_hard,
    canonical_key,
    encode_json,
)
from .llm import CompletionRequest, GuidanceBackend, RecordedTimeout
from .prompts import (
    ParsedAction,
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

TRACE_SCHEMA = "proofsearch-trace/3"

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


def _field_dict(obj, names: tuple) -> dict:
    return {name: getattr(obj, name) for name in names}


def overwrite_text(path: str | Path, *parts: str | bytes):
    """Write the parts to `path` one after another, a str as UTF-8 and
    bytes as they are, replacing what the file held.

    An existing file is cut to the new length and overwritten in place,
    not truncated to zero first: on ext4 with `auto_da_alloc` (the
    default), closing a file that was truncated to zero and rewritten
    starts its write-back at once, so a run into an existing output
    directory waited on the disk at every trace (0.25 ms a 13 KB file,
    at times past 1 ms, against 0.03 ms in place, on an ext4 virtual
    disk)."""
    chunks = [part.encode("utf-8") if isinstance(part, str) else part for part in parts]
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        os.ftruncate(fd, sum(map(len, chunks)))
        for chunk in chunks:
            view = memoryview(chunk)
            while view:  # one `os.write` may take only part of it
                view = view[os.write(fd, view):]
    finally:
        os.close(fd)


# EpisodeTrace fields on the trace's header line, and on its outcome line
# after the SearchOutcome's own fields
_HEADER_FIELDS = ("theorem", "config", "attempt", "category", "bad_reset")
_TRAILER_FIELDS = ("queries_used", "wall_seconds", "stage", "aborted")

# Event kinds whose second item is a state key; a trace file holds the key's
# state id there instead
_KEYED_EVENTS = frozenset(("push", "retrieve", "bad", "pop", "promptify"))
_TRANSITIONS = frozenset(("qed", "progressed", "error", "no-progress"))


class TraceFormatError(ValueError):
    """A trace file this version cannot read: another schema, not a trace
    at all, or one whose lines do not match their crc32. The message is one
    line that names the file."""


def _unreadable(path, exc: Exception) -> TraceFormatError:
    return TraceFormatError(f"{path}: unreadable {TRACE_SCHEMA} trace: "
                            f"{type(exc).__name__}: {exc}")


def _derived_events(record: QueryRecord) -> list:
    """The events a query record stands for in `EpisodeTrace.events`: a
    sketch; or the prompt, the parse or parse error, and the transition
    when the environment returned one (docs/trace-format.md)."""
    if record.result_class == "sketch":
        return [("sketch",)]
    events = [("promptify", record.state_key)]
    if record.format_error is not None:
        events.append(("parse-error",))
    elif record.tactic is not None:
        events.append(("parse", record.tactic))
        if record.result_class in _TRANSITIONS:
            events.append(("transition", record.result_class))
    return events


@dataclass
class EpisodeTrace:
    """Per-episode record of every query, search event, and the outcome."""

    theorem: str
    config: dict
    attempt: int = 1
    category: str | None = None
    bad_reset: str = "per-stage"
    # search events (tuples) and QueryRecords in the order they happened, as
    # the trace file holds them; a record stands for its `_derived_events`
    log: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    outcome: SearchOutcome | None = None
    queries_used: int = 0
    wall_seconds: float = 0.0
    stage: str = STAGE_PLAIN
    aborted: bool = False  # infrastructure failure, excluded from metrics
    # loaded from a file without its outcome line: only the header was read,
    # and the episode is excluded from metrics
    incomplete: bool = False
    # read by `load_head`: the header and outcome line only, with an empty
    # log and no notes, so it can be neither saved nor compared
    head_only: bool = False

    def event(self, *data):
        self.log.append(data)

    @property
    def records(self) -> tuple:
        return tuple(item for item in self.log if isinstance(item, QueryRecord))

    @property
    def events(self) -> tuple:
        """Every search event, each record expanded into its derived events."""
        events = []
        for item in self.log:
            if isinstance(item, QueryRecord):
                events += _derived_events(item)
            else:
                events.append(item)
        return tuple(events)

    def _require_body(self, use: str):
        if self.head_only:
            raise ValueError(f"trace of {self.theorem} was read without its body; "
                             f"`load` it to {use} it")

    def comparable(self) -> dict:
        """Trace content with wall-clock fields stripped, for determinism
        comparisons."""
        self._require_body("compare")
        records = []
        for record in self.records:
            # a dataclass instance's dict holds exactly its fields, in declaration order
            item = {"type": "query", **vars(record)}
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
        """Write the trace in the format of docs/trace-format.md. Raises
        ValueError, and writes nothing, for an incomplete trace or one read
        by `load_head`."""
        if self.incomplete:
            raise ValueError(f"trace of {self.theorem} is incomplete; it has nothing to save")
        self._require_body("save")
        lines = [encode_json({"type": "header", "schema": TRACE_SCHEMA,
                               **_field_dict(self, _HEADER_FIELDS)})]
        append = lines.append
        ids: dict = {}
        for item in self.log:
            record = isinstance(item, QueryRecord)
            key = item.state_key if record else item[1] if item[0] in _KEYED_EVENTS else None
            if key is not None:  # written as its state id, after its state line
                n = ids.get(key)
                if n is None:
                    n = ids[key] = len(ids)
                    append(f'{{"type": "state", "id": {n}, "key": {encode_json(key)}}}')
                if record:
                    append(encode_json({"type": "query", **vars(item), "state_key": n}))
                    continue
                item = (item[0], n, *item[2:])
            append(f'{{"type": "event", "data": {encode_json(item)}}}')
        for note in self.notes:
            append(encode_json({"type": "note", "text": note}))
        append("")  # the body ends in a newline
        data = "\n".join(lines).encode("utf-8")
        outcome = self.outcome or SearchOutcome(proved=False)
        last = encode_json({"type": "outcome", **outcome.to_dict(),
                             **_field_dict(self, _TRAILER_FIELDS),
                             "crc32": zlib.crc32(data), "lines": len(lines) - 1})
        try:
            overwrite_text(path, data, f"{last}\n")
        except (FileNotFoundError, NotADirectoryError):  # make the directory on first use
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            overwrite_text(path, data, f"{last}\n")

    @classmethod
    def _read_head(cls, path: str | Path) -> tuple:
        """The head step of `load`: the trace from the file's header and
        outcome line alone, the file's bytes, and the slice of them that
        holds the lines in between (None for an incomplete trace). Raises
        TraceFormatError for a file of another schema, one without a
        header, or a complete one whose bytes do not match the outcome
        line's crc32."""
        data = Path(path).read_bytes()
        end = data.find(b"\n")
        try:
            header = json.loads(data if end < 0 else data[:end])
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.pop("type", None) != "header":
            raise TraceFormatError(f"{path}: not a trace file: its first line is not a "
                                   f"{TRACE_SCHEMA} header")
        schema = header.pop("schema", None)
        if schema != TRACE_SCHEMA:
            raise TraceFormatError(f"{path}: trace schema {schema!r} is not supported; "
                                   f"this version reads {TRACE_SCHEMA!r}")
        try:
            trace = cls(**header)
            start = data.rfind(b"\n", 0, -1) + 1  # of the last line
            try:
                outcome = json.loads(data[start:-1]) if data.endswith(b"\n") else None
            except ValueError:  # the file was cut inside its last line
                outcome = None
            # `replace` finds each newline with memchr; `count` of one byte is a scalar loop
            newlines = len(data) - len(data.replace(b"\n", b""))
            if (not isinstance(outcome, dict) or outcome.pop("type", None) != "outcome"
                    or outcome.pop("lines", None) != newlines - 1):
                trace.incomplete = True
                return trace, data, None
            crc = outcome.pop("crc32", None)
            for name in _TRAILER_FIELDS:
                setattr(trace, name, outcome.pop(name))
            outcome["proof"] = tuple(outcome["proof"])
            trace.outcome = SearchOutcome(**outcome)
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise _unreadable(path, exc) from None
        if crc != zlib.crc32(memoryview(data)[:start]):
            raise TraceFormatError(f"{path}: damaged {TRACE_SCHEMA} trace: its lines do not "
                                   f"match the crc32 on its outcome line")
        return trace, data, slice(end + 1, start - 1)

    @classmethod
    def load_head(cls, path: str | Path) -> "EpisodeTrace":
        """Read a trace file's header and outcome line, and check the rest
        against the outcome line's crc32 without parsing it. The trace has
        every header and outcome field, `incomplete` as `load` would set
        it, and `head_only` set: it holds no records, events or notes, and
        `save` and `comparable()` refuse it. Raises TraceFormatError as
        `load` does, except for a body that matches its crc32 but does not
        parse."""
        trace, _, _ = cls._read_head(path)
        trace.head_only = True
        return trace

    @classmethod
    def load(cls, path: str | Path) -> "EpisodeTrace":
        """Read a trace file. A file whose last line is not an outcome line
        counting the lines before it loads as an incomplete trace that holds
        only its header. Raises TraceFormatError for a file of another
        schema, one without a header, or a complete one that does not match
        its crc32 or does not parse."""
        trace, data, body = cls._read_head(path)
        if body is None:
            return trace
        try:
            keys: dict = {}
            # no line holds a raw newline, so the body is one JSON array
            for item in json.loads(b"[" + data[body].replace(b"\n", b",") + b"]"):
                kind = item.pop("type")
                if kind == "event":
                    event = item["data"]
                    if event[0] in _KEYED_EVENTS:
                        event[1] = keys[event[1]]
                    trace.log.append(tuple(event))
                elif kind == "query":
                    item["state_key"] = keys[item["state_key"]]
                    trace.log.append(QueryRecord(**item))
                elif kind == "state":
                    keys[item["id"]] = item["key"]
                elif kind == "note":
                    trace.notes.append(item["text"])
                else:
                    raise ValueError(f"unknown line type {kind!r}")
        except (ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
            raise _unreadable(path, exc) from None
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
            request = CompletionRequest(
                system=prompt.system,
                turns=[("user", prompt.agent_text)],
                metadata={"state_key": key, "stage": self.stage},
            )
            try:
                completion = self.backend.complete(request)
            except RecordedTimeout:  # the replayed run's clock ran out here
                raise _Abort(REASON_TIMEOUT) from None
            except InfrastructureFailure:
                self.trace.event("promptify", key)  # a prompt with no record
                raise
            parsed = parse_tactic(completion.text, completion.stop_reason)
            record = QueryRecord(
                ordinal=self.budget.consume(),
                stage=self.stage,
                state_key=key,
                prompt_text=prompt.agent_text,
                prompt_tokens=prompt.token_estimate,
                response=completion.text,
                stop_reason=completion.stop_reason,
                latency_seconds=completion.latency_seconds,
            )
            self.trace.log.append(record)
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
    """Run one stage: the depth-first search for one theorem.

    Returns (SearchOutcome, EpisodeTrace) and records on the trace how the
    stage ended; a budget spent before it starts ends it with no call to
    the environment. `rankings` maps a state key to its `retrieve`
    ranking: the stages of an episode share one, and a stage run alone
    gets its own, so each distinct state is ranked once an episode.
    An InfrastructureFailure aborts the trace and is not a proof failure:
    one of the backend or the environment, `init` included, a token budget
    too small for the goals, or an initial state that is already QED.
    """
    if trace is None:
        trace = EpisodeTrace(theorem=theorem_id, config=config.to_dict())
    if budget is None:
        budget = _Budget(config.max_queries, config.wall_timeout_seconds)
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
    except RecordedTimeout:  # the replayed run's clock ran out here: skip as it did
        budget.deadline = float("-inf")  # and end the next stage at its start, as it did
        trace.notes.append(f"skipped: {REASON_TIMEOUT}")
        return None
    except InfrastructureFailure as exc:
        trace.notes.append(f"skipped: infrastructure failure: {exc}")
        return None
    ordinal = budget.consume()
    trace.log.append(
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
    return completion.text


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
    budget = _Budget(config.max_queries, config.wall_timeout_seconds)
    rankings: dict = {}
    stages = [(STAGE_PLAIN, None)]
    if index is not None:
        stages += [(STAGE_RETRIEVAL, index), (STAGE_INFORMAL, index)]
    for stage, stage_index in stages:
        stage_gctx = gctx
        if stage == STAGE_INFORMAL:
            sketch = generate_informal_sketch(gctx.theorem_statement, backend, budget, trace)
            if sketch is not None:
                stage_gctx = replace(gctx, informal_hints=sketch)
        outcome, trace = prove(
            theorem_id, env, backend, stage_index, stage_gctx, config,
            trace=trace, budget=budget, stage=stage, rankings=rankings,
        )
        if outcome.failure_reason != REASON_EXHAUSTED:
            break
    return outcome, trace
