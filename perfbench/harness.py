"""The three workloads and the loop that measures one of them.

A run generates its inputs from the seed, sets the program up (suite
load, corpus load, index build), runs an untimed warm-up, then repeats a
round of `run_suite` over the generated suite, a block of set-ups and a
block of reports rebuilt from that round's traces, until `seconds` have
passed and at least `min_episodes` episodes have run; then it checks
every output. Each workload is a closed loop with one client: episodes
run one after another in this process, with at most one loopback adapter
alive.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import proofsearch.agent
import proofsearch.bench
import proofsearch.bridge
import proofsearch.prompts
import proofsearch.toy.kernel
from proofsearch.agent import EpisodeTrace, SearchConfig
from proofsearch.bench import BenchmarkSuite, results_from_traces, run_suite, write_report
from proofsearch.bridge import BridgeSession
from proofsearch.retrieval import build_index, load_corpus
from proofsearch.toy import ToyEnvironment, load_suite

from . import checks, gen
from .model import CallCounter, StandInModel
from .probe import PROBE_SECONDS, probe_once
from .spans import EPISODE, Tracer, patched, percentile


@dataclass(frozen=True)
class Workload:
    name: str
    theorems: int  # episodes per round
    config: dict
    depth: int = 0  # intro-chain suites
    noise: int = 0  # unrelated hypotheses per theorem
    records: int = 0  # corpus size; 0 means no corpus
    environment: str = "toy"
    min_episodes: int = 100


# Why these three (BENCHMARK.json has the one-line reasons): search-enum
# runs the search with neither retrieval nor the bridge; retrieval-corpus
# puts retrieve and the index build on the critical path; bridge-loopback
# alone pays adapter spawns and wire round-trips. Each per-layer change
# thus has a workload that exercises it and one that bypasses it.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("search-enum", theorems=60, depth=15, noise=12,
                 config=dict(max_queries=400, per_state_budget=4, format_retry_cap=1)),
        Workload("retrieval-corpus", theorems=15, noise=3, records=10000,
                 config=dict(max_queries=60, per_state_budget=2, format_retry_cap=1)),
        Workload("bridge-loopback", theorems=12, depth=6, noise=4, environment="bridge",
                 config=dict(max_queries=400, per_state_budget=4, format_retry_cap=1)),
    )
}


def make_inputs(workload: Workload, seed: int, directory: Path) -> tuple:
    """Write the suite (and corpus) for the seed; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    suite_path = directory / "suite.toysuite"
    corpus_path = None
    if workload.records:
        suite_text, corpus_text = gen.retrieval_inputs(
            seed, workload.theorems, workload.records, workload.noise)
        corpus_path = directory / "corpus.tsv"
        corpus_path.write_text(corpus_text, encoding="utf-8")
    else:
        suite_text = gen.search_suite(seed, workload.theorems, workload.depth, workload.noise)
    suite_path.write_text(suite_text, encoding="utf-8")
    return suite_path, corpus_path


class AdapterPool:
    """Ends the loopback adapters that `run_suite` starts and never closes.

    While the pool is entered, `BridgeSession` is a subclass whose new
    session first closes the previous one; `close_all` ends the last one
    after a round, and leaving the pool ends any left."""

    def __init__(self, tracer: Tracer | None = None):
        self.live: list = []
        pool = self

        class TrackedSession(BridgeSession):
            def __init__(self, config):
                pool.close_all()
                if tracer is None:
                    super().__init__(config)
                else:
                    # spawned before the backend exists: the span belongs
                    # to the episode about to start
                    span = tracer.open("bridge.spawn")
                    span[EPISODE] += 1
                    try:
                        super().__init__(config)
                    finally:
                        tracer.close(span)
                pool.live.append(self)

        self._patch = patched([(proofsearch.bridge, "BridgeSession", TrackedSession)])

    def __enter__(self):
        self._patch.__enter__()
        return self

    def __exit__(self, *exc_info):
        try:
            self.close_all()
        finally:
            self._patch.__exit__(*exc_info)

    def close_all(self):
        while self.live:
            session = self.live.pop()
            session.close()
            if session._proc is not None:
                session._proc.stdin.close()


@dataclass
class Round:
    episode_seconds: list  # raw, probes excluded
    episode_scales: list
    results: list
    model_calls: int
    call_seconds: float  # raw, probes included

    @property
    def seconds(self) -> float:
        return sum(self.episode_seconds)

    @property
    def scaled(self) -> list:
        return [t * s for t, s in zip(self.episode_seconds, self.episode_scales)]


@dataclass
class Run:
    workload: Workload
    seed: int
    out: Path
    trace: bool
    tracer: Tracer | None = None
    counter: CallCounter = field(default_factory=CallCounter)
    problems: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    setup_seconds: list = field(default_factory=list)  # scaled, per call, as are the next two
    build_seconds: list = field(default_factory=list)
    report_seconds: list = field(default_factory=list)
    reports: int = 0
    rounds: list = field(default_factory=list)
    distinct_states: list = field(default_factory=list)
    last_spans: list = field(default_factory=list)
    measure_seconds: float = 0.0
    covered_seconds: float = 0.0  # raw time of the rounds and blocks in the measuring phase
    peak_rss_mb: float = 0.0


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, out: Path) -> Run:
    shutil.rmtree(out, ignore_errors=True)
    run = Run(workload, seed, out, trace)
    if trace:
        run.tracer = Tracer(keep_durations=(
            "prompts.promptify", "toy.apply_tactic", "retrieval.retrieve",
            "bridge.call", "bridge.spawn", "bridge.init",
        ))
    suite_path, corpus_path = make_inputs(workload, seed, out / "inputs")
    config = SearchConfig(**workload.config)
    command = [sys.executable, "-m", "proofsearch.bridge_adapter", str(suite_path)]
    bench = BenchmarkSuite(suite=None, name=workload.name, environment=workload.environment,
                           bridge_command=command)
    set_up = SetUp(bench, suite_path, corpus_path)
    start = time.perf_counter()
    set_up()
    setup_reps = _reps(time.perf_counter() - start)
    _setup_block(run, set_up, setup_reps)
    first_two = dict(list(bench.suite.theorems.items())[:2])
    with AdapterPool() as pool:
        _round(run, replace(bench, suite=replace(bench.suite, theorems=first_two)), config,
               out / "warmup", pool)
    with AdapterPool(run.tracer) as pool:
        _measure(run, bench, config, seconds, pool, set_up, setup_reps)
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _check(run, bench, config, corpus_path)
    return run


BLOCK_SECONDS = 0.05


def _reps(seconds: float) -> int:
    """Calls per timed block, so that a block lasts about BLOCK_SECONDS."""
    return max(1, round(BLOCK_SECONDS / max(seconds, 1e-6)))


def _block(run: Run, name: str, once, reps: int, into: list) -> float:
    """Call `once` `reps` times with probes before, between and after the
    calls (at least ten in all, timed apart from them); append the time of
    one call, scaled by the median probe, to `into` and return the scale."""
    gc.collect()
    per_gap = max(1, round(9 / reps))
    probes = [probe_once() for _ in range(per_gap)]
    elapsed = 0.0
    for _ in range(reps):
        if run.trace:
            span = run.tracer.open(name)
        start = time.perf_counter()
        once()
        elapsed += time.perf_counter() - start
        if run.trace:
            run.tracer.close(span)
        probes += [probe_once() for _ in range(per_gap)]
    median = statistics.median(probes)
    run.probes.append(median)
    run.covered_seconds += elapsed
    scale = PROBE_SECONDS / median
    into.append(elapsed / reps * scale)
    if run.trace:
        run.tracer.fold(scale)
    return scale


class SetUp:
    """The program's set-up: suite load, corpus load, index build. Each
    call replaces the suite and index in `bench`, dropping the old ones
    first so that only one copy is alive."""

    def __init__(self, bench, suite_path: Path, corpus_path: Path | None):
        self.bench = bench
        self.suite_path = suite_path
        self.corpus_path = corpus_path
        self.build_seconds = 0.0  # raw, summed over calls

    def __call__(self):
        self.bench.suite = self.bench.index = None
        suite = load_suite(self.suite_path)
        if self.corpus_path is not None:
            start = time.perf_counter()
            self.bench.index = build_index(load_corpus(self.corpus_path))
            self.build_seconds += time.perf_counter() - start
        self.bench.suite = suite


def _setup_block(run: Run, set_up: SetUp, reps: int):
    built = set_up.build_seconds
    scale = _block(run, "bench.setup", set_up, reps, run.setup_seconds)
    if set_up.corpus_path is not None:
        run.build_seconds.append((set_up.build_seconds - built) / reps * scale)


def _factory(run: Run, marks: list, traced: bool):
    """Backend factory that first probes the machine; `marks` gets the
    probe's (start, end)."""
    tracer = run.tracer if traced else None

    def backend_factory(theorem, attempt):
        if tracer is not None:
            tracer.episode += 1
            span = tracer.open("bench.probe")
        start = time.perf_counter()
        probe_once()
        marks.append((start, time.perf_counter()))
        if tracer is not None:
            tracer.close(span)
        return StandInModel(run.seed, run.counter)

    return backend_factory


def _round(run: Run, bench, config, out: Path, pool: AdapterPool, traced: bool = False) -> Round:
    """One `run_suite` call. Episode i runs from the start of its backend's
    creation to the next one's (the first from the call, the last to the
    return), minus its probe, so episode times add up to the call's time
    less the probes. Each episode is scaled by the median of the probes
    of the nine episodes around it."""
    marks: list = []
    calls = run.counter.calls
    gc.collect()
    if traced:
        span = run.tracer.open("bench.run_suite")
    start = time.perf_counter()
    results = run_suite(bench, config, out, _factory(run, marks, traced))
    end = time.perf_counter()
    if traced:
        run.tracer.close(span)
    pool.close_all()
    cuts = [start] + [m[0] for m in marks[1:]] + [end]
    probes = [b - a for a, b in marks]
    episodes = [b - a - p for a, b, p in zip(cuts, cuts[1:], probes)]
    scales = [PROBE_SECONDS / statistics.median(probes[max(0, i - 4):i + 5])
              for i in range(len(probes))]
    return Round(episodes, scales, results, run.counter.calls - calls, end - start)


def _tracing(run: Run, states: set) -> list:
    """Replacements that put spans around the program's public calls."""
    t = run.tracer
    wrap = t.wrap
    agent, bench, bridge = proofsearch.agent, proofsearch.bench, proofsearch.bridge
    retrieve = wrap("retrieval.retrieve", agent.retrieve)

    def retrieve_counted(index, state, k):
        states.add(state)
        return retrieve(index, state, k)

    call = wrap("bridge.call", BridgeSession.call)
    init = wrap("bridge.init", BridgeSession.call)

    def bridge_call(self, cmd, **fields):
        return (init if cmd == "init" else call)(self, cmd, **fields)

    load = EpisodeTrace.__dict__["load"].__func__
    replacements = [
        (agent, "prove", wrap("agent.search", agent.prove)),
        (bench, "ensemble_prove", wrap("agent.ensemble_prove", bench.ensemble_prove)),
        (agent, "promptify", wrap("prompts.promptify", agent.promptify)),
        (agent, "parse_tactic", wrap("prompts.parse_tactic", agent.parse_tactic)),
        (proofsearch.prompts, "system_prompt",
         wrap("prompts.system_prompt", proofsearch.prompts.system_prompt)),
        (agent, "canonical_key", wrap("core.canonical_key", agent.canonical_key)),
        (bridge, "canonical_key", wrap("core.canonical_key", bridge.canonical_key)),
        (agent, "at_least_as_hard", wrap("core.at_least_as_hard", agent.at_least_as_hard)),
        (agent, "retrieve", retrieve_counted),
        (ToyEnvironment, "apply_tactic", wrap("toy.apply_tactic", ToyEnvironment.apply_tactic)),
        (proofsearch.toy.kernel, "parse_term",
         wrap("toy.parse_term", proofsearch.toy.kernel.parse_term)),
        (StandInModel, "complete", wrap("llm.complete", StandInModel.complete)),
        (BridgeSession, "call", bridge_call),
        (EpisodeTrace, "save", wrap("bench.trace_save", EpisodeTrace.save)),
        (EpisodeTrace, "load", classmethod(wrap("metrics.trace_load", load))),
        (bench, "build_report", wrap("metrics.build_report", bench.build_report)),
    ]
    for name in ("render_metrics_text", "render_metrics_csv",
                 "render_timing_text", "render_timing_csv"):
        replacements.append((bench, name, wrap("metrics.render", getattr(bench, name))))
    return replacements


def _measure(run: Run, bench, config, seconds: float, pool: AdapterPool, set_up: SetUp,
             setup_reps: int):
    """Rounds until `seconds` have passed and `min_episodes` have run; after
    each round, one block of set-ups and one of reports (`proofsearch
    report` on the round's traces), so that every metric samples the
    whole run."""
    states: set = set()
    report_reps = 0

    def report():
        run.reports += 1
        write_report(results_from_traces(run.out / "traces"),
                     run.out / f"report{len(run.report_seconds)}")

    with patched(_tracing(run, states) if run.trace else []):
        start = time.perf_counter()
        while True:
            states.clear()
            run.rounds.append(_round(run, bench, config, run.out, pool, run.trace))
            rnd = run.rounds[-1]
            run.covered_seconds += rnd.call_seconds
            if run.trace:
                run.distinct_states.append(len(states))
                run.last_spans = run.tracer.fold(sum(rnd.scaled) / rnd.seconds)
            _setup_block(run, set_up, setup_reps)
            if not report_reps:
                first = time.perf_counter()
                report()
                report_reps = _reps(time.perf_counter() - first)
            _block(run, "bench.report", report, report_reps, run.report_seconds)
            episodes = sum(len(r.results) for r in run.rounds)
            if time.perf_counter() - start >= seconds and episodes >= run.workload.min_episodes:
                break
        run.measure_seconds = time.perf_counter() - start


def _check(run: Run, bench, config, corpus_path: Path | None):
    problems = run.problems
    traces = [EpisodeTrace.load(p) for p in sorted((run.out / "traces").glob("*.jsonl"))]
    problems += checks.replay_proofs(traces, bench.suite)
    problems += checks.query_accounting(traces, config.max_queries)
    first = [(r.theorem, r.proved, r.queries_used, r.stage) for r in run.rounds[0].results]
    for i, rnd in enumerate(run.rounds):
        if [(r.theorem, r.proved, r.queries_used, r.stage) for r in rnd.results] != first:
            problems.append(f"round {i} outcomes differ from round 0")
        queries = sum(r.queries_used for r in rnd.results)
        if queries != rnd.model_calls:
            problems.append(f"round {i}: {queries} queries in traces, "
                            f"{rnd.model_calls} stand-in model calls")
    if corpus_path is not None:
        records = [(name, statement) for name, _, statement in
                   (line.split("\t") for line in corpus_path.read_text(encoding="utf-8").splitlines())]
        events = [e for t in traces for e in t.events if e[0] == "retrieve"]
        sample = events[:: max(1, len(events) // 6)][:6]
        problems += checks.retrieval_rankings(sample, checks.ReferenceBM25(records), config.k_retrieve)
    for i, rnd in enumerate(run.rounds):  # report i was rebuilt from round i's traces
        write_report(rnd.results, run.out / "report-run")
        problems += checks.same_reports(run.out / "report-run", run.out / f"report{i}")
    problems += checks.pass_at_1(run.out / "results.csv", run.out / "report-run" / "metrics.csv")
    if run.workload.environment == "bridge":
        toy = replace(bench, environment="toy")
        run_suite(toy, config, run.out / "inprocess", lambda th, a: StandInModel(run.seed, CallCounter()))
        inproc = [EpisodeTrace.load(p) for p in sorted((run.out / "inprocess" / "traces").glob("*.jsonl"))]
        problems += checks.same_comparable(traces, inproc)


def failed_episodes(run: Run) -> int:
    return sum(1 for rnd in run.rounds for r in rnd.results if not r.proved or r.aborted)


def attempted_episodes(run: Run) -> int:
    return sum(len(rnd.results) for rnd in run.rounds)


def end_to_end(run: Run) -> dict:
    durations = [d for r in run.rounds for d in r.scaled]
    wall = sum(durations)
    return {
        "episodes_per_s": (attempted_episodes(run) / wall, "1/s"),
        "queries_per_s": (sum(r.model_calls for r in run.rounds) / wall, "1/s"),
        "episode_ms_p50": (percentile(durations, 50) * 1e3, "ms"),
        "episode_ms_p90": (percentile(durations, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(run.setup_seconds), "s"),
        "report_s": (statistics.median(run.report_seconds), "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MiB"),
    }


def per_layer(run: Run) -> dict:
    """Per-layer figures of a traced run. Counts and self times are per
    round of `theorems` episodes; metrics.* are per report; percentiles
    are per call. Times are scaled like the end-to-end ones."""
    t = run.tracer
    rounds = len(run.rounds)
    reports = run.reports
    traces = [EpisodeTrace.load(p) for p in sorted((run.out / "traces").glob("*.jsonl"))]
    out: dict = {}

    def calls(name, per=rounds):
        out[f"{name}.calls"] = (t.calls.get(name, 0) / per, "count")

    def self_ms(name, per=rounds):
        out[f"{name}.self_ms"] = (t.self_time.get(name, 0.0) * 1e3 / per, "ms")

    def micros(name, *ps):
        for p in ps:
            out[f"{name}.p{p}_us"] = (percentile(t.durations[name], p) * 1e6, "us")

    for name in ("prompts.system_prompt", "prompts.promptify", "prompts.parse_tactic",
                 "toy.apply_tactic", "core.canonical_key", "core.at_least_as_hard",
                 "retrieval.retrieve", "bridge.call", "bench.trace_save", "llm.complete"):
        calls(name)
        self_ms(name)
    micros("prompts.promptify", 50, 99)
    micros("toy.apply_tactic", 50, 99)
    micros("retrieval.retrieve", 50, 90)
    micros("bridge.call", 50, 99)
    queries = [r for trace in traces for r in trace.records if r.result_class != "sketch"]
    out["prompts.prompt_tokens"] = (
        sum(r.prompt_tokens for r in queries) / max(1, len(queries)), "tokens")
    calls("toy.parse_term")
    self_ms("toy.parse_term")
    out["retrieval.retrieve.distinct_states"] = (sum(run.distinct_states) / rounds, "count")
    out["retrieval.build_index.ms"] = (
        statistics.median(run.build_seconds) * 1e3 if run.build_seconds else 0.0, "ms")
    out["bridge.spawns"] = (t.calls.get("bridge.spawn", 0) / rounds, "count")
    spawn_init = [a + b for a, b in zip(t.durations["bridge.spawn"], t.durations["bridge.init"])]
    out["bridge.spawn_init.ms"] = (statistics.median(spawn_init) * 1e3 if spawn_init else 0.0, "ms")
    out["bench.trace_bytes"] = (
        sum(p.stat().st_size for p in (run.out / "traces").glob("*.jsonl")), "bytes")
    for name in ("metrics.trace_load", "metrics.build_report", "metrics.render"):
        self_ms(name, reports)
    out["agent.episodes"] = (len(traces), "count")
    out["agent.queries"] = (sum(trace.queries_used for trace in traces), "count")
    out["agent.backtracks"] = (sum(backtracks(trace) for trace in traces), "count")
    self_ms("agent.search")
    self_ms("agent.ensemble_prove")
    out["agent.stage_retrieval.episodes"] = (
        sum(1 for trace in traces if trace.stage in ("retrieval", "informal")), "count")
    out["agent.stage_informal.episodes"] = (
        sum(1 for trace in traces if trace.stage == "informal"), "count")
    out["bench.run_suite.ms"] = (sum(sum(r.scaled) for r in run.rounds) * 1e3 / rounds, "ms")
    self_ms("bench.run_suite")
    self_ms("bench.probe")
    out["bench.uncovered_share"] = (1.0 - run.covered_seconds / run.measure_seconds, "share")
    out["bench.probe_ms"] = (statistics.median(run.probes) * 1e3, "ms")
    return out


def backtracks(trace) -> int:
    """Pops that return to a parent state (a stage's root pop is not one)."""
    depth = count = 0
    for event in trace.events:
        if event[0] == "push":
            depth += 1
        elif event[0] == "pop":
            depth -= 1
            count += depth > 0
    return count
