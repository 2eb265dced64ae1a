"""Trace files against the traces the search builds: on the seeded cases of
the reference-search test, every trace of `prove` and `ensemble_prove`
loads back equal to the one in memory and saves again to the same bytes.

The cases reach every ending: proofs, each failure reason, a backend that
raises after its prompt, a skipped sketch and one whose completion raised.
For some seeds the environment also raises after a tactic parsed (the
reference test's `environment`).
"""

from proofsearch.agent import EpisodeTrace, ensemble_prove, prove

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
