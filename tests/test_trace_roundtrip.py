"""Trace files against the traces the search builds: on the seeded cases of
the reference-search test, every trace of `prove` and `ensemble_prove`
loads back equal to the one in memory and saves again to the same bytes.

The cases reach every ending: proofs, each failure reason, a backend that
raises after its prompt, and a skipped sketch.
For some seeds the environment also raises after a tactic parsed (the
reference test's `environment`).
"""

import json
import sys
from dataclasses import fields, replace

import proofsearch.trace
from proofsearch.agent import ensemble_prove, prove
from proofsearch.cli import main as cli_main
from proofsearch.core import encode_json
from proofsearch.trace import (EpisodeTrace, QueryRecord, SearchOutcome, _keyed_event_line,
                               _query_line, _state_line)

from conftest import CORPUS_PATH, SUITE_PATH
from test_reference_search import SEEDS, case, environment


def traces():
    """(seed, trace) for every seed, from `prove` and from `ensemble_prove`."""
    for seed in SEEDS:
        theorem, config, index, gctx, backend = case(seed)
        for search in (prove, ensemble_prove):
            _, trace = search(theorem.name, environment(seed, theorem), backend(), index,
                              gctx, config)
            yield seed, trace


def endings(trace) -> set:
    """The ways a trace can end or skip a step that its file must keep."""
    seen = set()
    if trace.events and trace.events[-1][0] == "promptify":
        seen.add("backend raised after promptify")
    if any(r.tactic is not None and r.result_class is None for r in trace.records):
        seen.add("environment raised after parse")
    if any(r.result_class == "sketch" for r in trace.records):
        seen.add("sketch")
    seen.update(note.split(":")[0] for note in trace.notes)
    seen.add("proved" if trace.outcome.proved else trace.outcome.failure_reason)
    return seen


def test_every_trace_round_trips(tmp_path):
    seen = set()
    for n, (seed, trace) in enumerate(traces()):
        first, second = tmp_path / f"{n}.jsonl", tmp_path / f"{n}.again.jsonl"
        trace.save(first)
        loaded = EpisodeTrace.load(first)
        assert loaded.comparable() == trace.comparable(), seed
        assert loaded.records == trace.records, seed  # latency_seconds included
        assert loaded.events == trace.events, seed
        assert loaded.wall_seconds == trace.wall_seconds, seed
        loaded.save(second)
        assert second.read_bytes() == first.read_bytes(), seed
        seen |= endings(trace)
    assert {
        "backend raised after promptify", "environment raised after parse", "sketch",
        "skipped", "proved", "budget", "search exhausted", "infrastructure",
    } <= seen


def test_every_trace_line_is_canonical_json(tmp_path, capsys):
    """`save` builds its state, query and keyed-event lines from templates:
    each line of every trace of the reference seeds, and of the bundled
    suite's run in process and over the loopback bridge, is what
    `json.dumps(value, ensure_ascii=False)` writes for the value it holds."""
    for n, (_, trace) in enumerate(traces()):
        trace.save(tmp_path / "reference" / f"{n}.jsonl")
    argv = ["run", "--suite", str(SUITE_PATH), "--corpus", str(CORPUS_PATH),
            "--oracle-depth", "2"]
    assert cli_main([*argv, "--out", str(tmp_path / "toy")]) == 0
    assert cli_main([*argv, "--out", str(tmp_path / "bridge"), "--bridge-cmd",
                     f"{sys.executable} -m proofsearch.bridge_adapter {SUITE_PATH}"]) == 0
    assert capsys.readouterr().out.count("20/32 episodes proved") == 2
    kinds = set()
    for where, count in (("reference", 2 * len(SEEDS)), ("toy/traces", 32), ("bridge/traces", 32)):
        paths = sorted((tmp_path / where).iterdir())
        assert len(paths) == count, where
        for path in paths:
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
                value = json.loads(line)
                assert line == json.dumps(value, ensure_ascii=False), f"{where}/{path.name}:{n}"
                kinds.add(value["type"])
    assert kinds == {"header", "state", "event", "query", "note", "outcome"}


# --- the line templates -------------------------------------------------------

TEXTS = ['"', "\\", "".join(map(chr, range(32))), "\u2028\u2029", "\U0001d538 \u00e9",
         "\ud800", 'a "b" \\ c\nd']
LATENCIES = [0.0, 1e-7, 1e22, 0.1 + 0.2, float("inf"), float("-inf"), float("nan")]


def adversarial_records():
    """Records whose strings are each of TEXTS and whose latency is each of
    LATENCIES, with every optional field set, then `None` in each in turn
    and in all of them."""
    for text in TEXTS:
        for latency in LATENCIES:
            for empty in ((), ("tactic",), ("format_error",), ("result_class",),
                          ("tactic", "format_error", "result_class")):
                record = QueryRecord(ordinal=7, stage=text, state_key=text, prompt_text=text,
                                     prompt_tokens=12, response=text, stop_reason=text,
                                     tactic=text, format_error=text, result_class=text,
                                     latency_seconds=latency)
                for name in empty:
                    setattr(record, name, None)
                yield record


class TestLineTemplates:
    """`save` builds its query, state and keyed-event lines from templates;
    each must be the text `encode_json` gives for the line's value."""

    def test_query_line_is_the_encoded_record(self):
        for record in adversarial_records():
            assert _query_line(record, 3) == encode_json(
                {"type": "query", **vars(record), "state_key": 3}), record

    def test_query_line_holds_every_field_in_order(self):
        """A field added to QueryRecord fails here until the template writes it."""
        record = next(adversarial_records())
        line = _query_line(replace(record, stage="plain", stop_reason="natural-stop"), 0)
        assert list(json.loads(line)) == ["type", *(f.name for f in fields(QueryRecord))]

    def test_state_and_keyed_event_lines_are_the_encoded_values(self):
        for text in TEXTS:
            for n in (0, 17):
                assert _state_line(n, text) == encode_json({"type": "state", "id": n,
                                                            "key": text})
                events = [(kind, text) for kind in ("push", "pop", "promptify")]
                events += [("bad", text, text),
                           ("retrieve", text, [[text, 1.5], [text, 1e22], [text, 0.0]]),
                           ("retrieve", text, [])]
                for event in events:
                    assert _keyed_event_line(event, n) == encode_json(
                        {"type": "event", "data": [event[0], n, *event[2:]]}), event

    def test_save_does_not_depend_on_the_c_escaper(self, tmp_path, monkeypatch):
        """The same bytes with the pure-Python string escaper, for the
        reference seeds' traces and one of adversarial records (a lone
        surrogate cannot be written as UTF-8, so that one leaves it out)."""
        saved = list(traces())
        adversarial = EpisodeTrace(theorem="t", config={}, outcome=SearchOutcome(proved=False))
        adversarial.log = [r for r in adversarial_records() if r.stage != "\ud800"]
        saved.append((None, adversarial))
        for n, (_, trace) in enumerate(saved):
            trace.save(tmp_path / f"{n}.c.jsonl")
        monkeypatch.setattr(proofsearch.trace, "encode_basestring",
                            json.encoder.py_encode_basestring)
        for n, (seed, trace) in enumerate(saved):
            trace.save(tmp_path / f"{n}.py.jsonl")
            assert ((tmp_path / f"{n}.py.jsonl").read_bytes()
                    == (tmp_path / f"{n}.c.jsonl").read_bytes()), seed
