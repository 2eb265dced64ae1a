"""The episode trace: the query records and events of one episode, its
outcome, and the file that holds them (docs/trace-format.md).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from math import isfinite
from pathlib import Path

from .core import encode_json

TRACE_SCHEMA = "proofsearch-trace/3"

STAGE_PLAIN = "plain"
STAGE_RETRIEVAL = "retrieval"
STAGE_INFORMAL = "informal"

REASON_BUDGET = "budget"
REASON_TIMEOUT = "timeout"
REASON_EXHAUSTED = "search exhausted"
REASON_INFRASTRUCTURE = "infrastructure"

# An aborted episode's last note: this, then the failure's message
INFRASTRUCTURE_NOTE = "infrastructure failure: "


@dataclass(frozen=True)
class SearchOutcome:
    proved: bool
    proof: tuple = ()
    failure_reason: str | None = None

    def __post_init__(self):
        if self.proved and not self.proof:
            raise ValueError("a proved outcome needs a nonempty proof")


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


# The body lines `save` writes most are built from templates: each returns the
# text `encode_json` gives for the line's value, without building the value.
def _state_line(n: int, key: str) -> str:
    return f'{{"type": "state", "id": {n}, "key": {encode_basestring(key)}}}'


def _keyed_event_line(event: tuple, n: int) -> str:
    """The line of a `_KEYED_EVENTS` event, its state key written as id `n`;
    the kind is a plain name, so it needs no escaping."""
    if len(event) == 2:
        return f'{{"type": "event", "data": ["{event[0]}", {n}]}}'
    return f'{{"type": "event", "data": ["{event[0]}", {n}, {encode_json(event[2:])[1:-1]}]}}'


def _query_line(record: QueryRecord, n: int) -> str:
    """The line of `record`, its state key written as id `n`: the value is
    `{"type": "query", **vars(record), "state_key": n}`. A test holds the
    keys written here to the fields of QueryRecord, in order."""
    tactic, error, result = record.tactic, record.format_error, record.result_class
    latency = record.latency_seconds
    # the encoder writes a finite float as its repr, and nan and inf by name
    latency = (repr(latency) if type(latency) is float and isfinite(latency)
               else encode_json(latency))
    return (f'{{"type": "query", "ordinal": {record.ordinal}, '
            f'"stage": {encode_basestring(record.stage)}, "state_key": {n}, '
            f'"prompt_text": {encode_basestring(record.prompt_text)}, '
            f'"prompt_tokens": {record.prompt_tokens}, '
            f'"response": {encode_basestring(record.response)}, '
            f'"stop_reason": {encode_basestring(record.stop_reason)}, '
            f'"tactic": {"null" if tactic is None else encode_basestring(tactic)}, '
            f'"format_error": {"null" if error is None else encode_basestring(error)}, '
            f'"result_class": {"null" if result is None else encode_basestring(result)}, '
            f'"latency_seconds": {latency}}}')


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
            "outcome": None if self.outcome is None else vars(self.outcome),
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
            if key is None:
                append(f'{{"type": "event", "data": {encode_json(item)}}}')
                continue
            n = ids.get(key)  # written as its state id, after its state line
            if n is None:
                n = ids[key] = len(ids)
                append(_state_line(n, key))
            append(_query_line(item, n) if record else _keyed_event_line(item, n))
        for note in self.notes:
            append(encode_json({"type": "note", "text": note}))
        append("")  # the body ends in a newline
        data = "\n".join(lines).encode("utf-8")
        outcome = self.outcome or SearchOutcome(proved=False)
        last = encode_json({"type": "outcome", **vars(outcome),
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
            except ValueError:  # `overwrite_text` killed partway: a new prefix, then
                outcome = None  # a stale tail that ends in a newline; incomplete, as if cut
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
