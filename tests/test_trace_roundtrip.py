"""Trace files against the traces the search builds: on the seeded cases of
the reference-search test, every trace of `prove` and `ensemble_prove`
loads back equal to the one in memory and saves again to the same bytes.

The cases reach every ending: proofs, each failure reason, a backend that
raises after its prompt, a skipped sketch and one whose completion raised.
For some seeds the environment also raises after a tactic parsed (the
reference test's `environment`).
"""

import json
import sys

from proofsearch.agent import ensemble_prove, prove
from proofsearch.cli import main as cli_main
from proofsearch.trace import EpisodeTrace

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
    """`save` writes its state and event lines by hand around the encoder:
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
