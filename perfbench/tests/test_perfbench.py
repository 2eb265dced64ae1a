"""Fast tests of the benchmark itself: input generation, the reference
BM25, span arithmetic and a tiny run of every workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import random
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.checks import ReferenceBM25
from perfbench.spans import Tracer
from proofsearch.retrieval import LemmaRecord, build_index, retrieve
from proofsearch.core import Obligation, ProofState

TINY = dict(theorems=3, records=400, min_episodes=1)
DECLARED = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_same_seed_gives_identical_input_files(tmp_path, name):
    workload = harness.WORKLOADS[name]
    first = harness.make_inputs(workload, 7, tmp_path / "a")
    again = harness.make_inputs(workload, 7, tmp_path / "b")
    other = harness.make_inputs(workload, 8, tmp_path / "c")
    for a, b, c in zip(first, again, other):
        if a is None:
            continue
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


def test_reference_bm25_matches_hand_worked_example():
    # x1 has tokens [x1, a, b] (3), x2 has [x2, b, c, c] (4): N = 2, avg 3.5
    reference = ReferenceBM25([("x1", "a /\\ b"), ("x2", "b -> c = c")])
    # "c": df 1, idf = ln(1 + 1.5 / 1.5) = ln 2; tf 2 in x2
    c_score = math.log(2) * 2 * 2.2 / (2 + 1.2 * (0.25 + 0.75 * 4 / 3.5))
    assert reference.rank("c", 2) == [("x2", pytest.approx(c_score, rel=1e-12)), ("x1", 0.0)]
    # "b": df 2, idf = ln(1 + 0.5 / 2.5) = ln 1.2; the shorter document wins
    b1 = math.log(1.2) * 2.2 / (1 + 1.2 * (0.25 + 0.75 * 3 / 3.5))
    b2 = math.log(1.2) * 2.2 / (1 + 1.2 * (0.25 + 0.75 * 4 / 3.5))
    assert reference.rank("b", 2) == [("x1", pytest.approx(b1, rel=1e-12)),
                                      ("x2", pytest.approx(b2, rel=1e-12))]
    # equal scores: ties go to the smaller name
    tied = ReferenceBM25([("y2", "p"), ("y1", "p"), ("y3", "q")])
    assert [name for name, _ in tied.rank("p", 3)] == ["y1", "y2", "y3"]


def test_reference_bm25_agrees_with_retrieve():
    rng = random.Random(3)
    words = [f"w{i}" for i in range(40)]
    records = [(f"r{i:03d}", " -> ".join(rng.choices(words, k=rng.randint(1, 4))))
               for i in range(200)]
    index = build_index(LemmaRecord(name, statement) for name, statement in records)
    reference = ReferenceBM25(records)
    for _ in range(20):
        goal, hyp = rng.choice(words), " /\\ ".join(rng.choices(words, k=2))
        state = ProofState.of([Obligation.make(goal, {"h": hyp})])
        got = [(r.name, score) for r, score in retrieve(index, state, 8)]
        want = reference.rank(f"{goal} {hyp}", 8)
        assert [n for n, _ in got] == [n for n, _ in want]
        assert all(math.isclose(a, b, rel_tol=1e-12) for (_, a), (_, b) in zip(got, want))


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 6.0, 7.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks), keep_durations=("a",))
    root = tracer.open("root")
    a = tracer.open("a")
    tracer.episode = 5
    inner = tracer.open("inner")
    tracer.close(inner)  # 2 .. 4
    tracer.close(a)  # 1 .. 6
    b = tracer.open("b")
    tracer.close(b)  # 7 .. 8
    tracer.close(root)  # 0 .. 10
    spans = {span[1]: span for span in tracer.fold(scale=0.5)}
    assert spans["inner"][4] == spans["a"][0] and spans["a"][4] == spans["root"][0]
    assert spans["root"][4] == -1 and spans["inner"][5] == 5 and spans["a"][5] == 0
    # self = duration - direct children, times the scale
    assert tracer.self_time == {"root": 2.0, "a": 1.5, "inner": 1.0, "b": 0.5}
    assert tracer.durations["a"] == [2.5]
    assert tracer.calls == {"root": 1, "a": 1, "inner": 1, "b": 1}
    assert tracer.spans == []


def test_wrapped_call_records_a_span_even_when_it_raises():
    tracer = Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("f", fail)()
    assert [span[1] for span in tracer.spans] == ["f"] and tracer.stack == []


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_tiny_run_passes_every_check(tmp_path, name, trace):
    workload = replace(harness.WORKLOADS[name], **TINY)
    run = harness.run_workload(workload, 5, 0.0, trace, tmp_path)
    assert run.problems == []
    assert harness.failed_episodes(run) == 0
    assert harness.attempted_episodes(run) == 3 * len(run.rounds)
    metrics = harness.per_layer(run) if trace else harness.end_to_end(run)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in declared}
    if trace:
        assert metrics["agent.episodes"][0] == 3
        assert metrics["llm.complete.calls"][0] == metrics["agent.queries"][0]
    else:
        assert all(value > 0 for value, _ in metrics.values())
    with pytest.raises(ChildProcessError):  # no adapter is left running
        os.waitpid(-1, os.WNOHANG)
