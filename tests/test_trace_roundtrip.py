"""Trace files against the traces the search builds: on the seeded cases of
the reference-search test, every trace of `prove` and `ensemble_prove`
loads back equal to the one in memory and saves again to the same bytes.

The cases reach every ending: proofs, each failure reason, a backend that
raises after its prompt, a skipped sketch and one whose completion raised.
An environment that raises after a tactic parsed is added here by wrapping
the toy environment for some seeds.
"""

import random

import pytest

from proofsearch.agent import EpisodeTrace, ensemble_prove, prove
from proofsearch.bridge import BridgeFailure
from proofsearch.toy import ToyEnvironment

from test_reference_search import SEEDS, case


class FailingEnvironment(ToyEnvironment):
    """The toy environment, raising a bridge failure at one tactic."""

    def __init__(self, theorem, fail_at):
        super().__init__(theorem)
        self.fail_at = fail_at
        self.tactics = 0

    def apply_tactic(self, state, tactic):
        self.tactics += 1
        if self.tactics == self.fail_at:
            raise BridgeFailure(f"environment failure at tactic {self.tactics}")
        return super().apply_tactic(state, tactic)


def environment(seed, theorem):
    rng = random.Random(f"environment {seed}")
    if rng.random() < 0.2:
        return FailingEnvironment(theorem, rng.randint(1, 12))
    return ToyEnvironment(theorem)


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


@pytest.mark.parametrize("kind", ["promptify", "parse", "parse-error", "transition", "sketch"])
def test_save_refuses_a_trace_missing_a_derived_event(tmp_path, kind):
    """Each kind of derived event, taken out of the first trace that has
    one, makes `save` raise instead of writing a file that loads back
    different."""
    seed, trace = next((seed, trace) for seed, trace in traces() if trace.records
                       and any(event[0] == kind for event in trace.events))
    del trace.events[next(i for i, event in enumerate(trace.events) if event[0] == kind)]
    path = tmp_path / "trace.jsonl"
    with pytest.raises(ValueError, match="derived events of query"):
        trace.save(path)
    assert not path.exists(), seed
