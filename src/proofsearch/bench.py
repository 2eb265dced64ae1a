"""Benchmark runner and report emission.

Runs episodes over a theorem suite, persists one trace file per episode,
and renders metrics reports from those traces alone (reports are pure
functions of the trace directory, so regeneration is byte-stable).

Query-based metrics land in metrics.txt/metrics.csv; wall-clock metrics in
timing.txt/timing.csv, so determinism checks can ignore the latter.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

from .agent import SearchConfig, ensemble_prove, prove
from .core import GlobalContext, ProofEnvironment, canonical_key, lift_transition
from .llm import GuidanceBackend, ScriptedBackend
from .metrics import (
    DEFAULT_N_GRID,
    DEFAULT_SECONDS_GRID,
    REASON_INCOMPLETE,
    EpisodeResult,
    MetricsReport,
    build_report,
)
from .retrieval import RetrievalIndex
from .toy import ToyEnvironment, ToySuite, ToyTheorem
from .toy.oracle import brute_force_prove
from .trace import EpisodeTrace, SearchOutcome, overwrite_text


@dataclass
class BenchmarkSuite:
    """A named theorem set plus how to run it."""

    suite: ToySuite
    name: str = "suite"
    environment: str = "toy"  # "toy" | "bridge"
    bridge_command: Sequence[str] | None = None
    index: RetrievalIndex | None = None


def oracle_scripted_backend(theorem: ToyTheorem, max_depth: int = 6) -> ScriptedBackend | None:
    """Scripted backend programmed from the brute-force oracle's proof.

    Returns None when the oracle finds no proof within max_depth.
    """
    proof = brute_force_prove(theorem, max_depth)
    if proof is None:
        return None
    env = ToyEnvironment(theorem)
    state = env.initial_state(theorem.name)
    program = {}
    for tactic in proof:
        program[(canonical_key(state), 1)] = f"[RUN TACTIC] {tactic} [END]"
        state = env.apply_tactic(state, tactic)
    return ScriptedBackend(program)


def trace_file_name(theorem: str, attempt: int) -> str:
    """The name of an episode's trace file in a run's traces/ directory."""
    return f"{theorem}__a{attempt}.jsonl"


class ResumeError(ValueError):
    """A complete trace that a resumed run would keep was recorded with
    another search config. The message is one line that names the file."""


def run_suite(
    bench: BenchmarkSuite,
    config: SearchConfig,
    out_dir: str | Path,
    backend_factory: Callable[[ToyTheorem, int], GuidanceBackend],
    attempts: int = 1,
    ensemble: bool = True,
    resume: bool = False,
) -> list:
    """Run every theorem in the suite; returns EpisodeResults in suite
    order and writes one trace file per episode under out_dir/traces/.

    With `resume`, an episode whose trace file is already complete is not
    run again: its result is read from the trace's head. Missing,
    incomplete and infrastructure-aborted traces are run. Raises
    ResumeError, before any episode runs, when a kept trace holds another
    search config."""
    out_dir = Path(out_dir)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    episodes = [(theorem, attempt, traces_dir / trace_file_name(theorem.name, attempt))
                for theorem in bench.suite.theorems.values()
                for attempt in range(1, attempts + 1)]
    done = _completed([path for _, _, path in episodes], config) if resume else {}
    results = []
    search = ensemble_prove if ensemble else prove
    with _Environments(bench) as environments:
        for theorem, attempt, path in episodes:
            if path in done:
                results.append(done[path])
                continue
            env = environments.open(theorem)
            backend = backend_factory(theorem, attempt)
            gctx = GlobalContext(theorem_statement=theorem.statement())
            _, trace = search(theorem.name, env, backend, bench.index, gctx, config)
            if trace.aborted:
                environments.close()
            trace.attempt = attempt
            trace.category = theorem.category
            trace.save(path)
            results.append(result_from_trace(trace))
    write_results_csv(results, out_dir / "results.csv")
    return results


def _completed(paths: list, config: SearchConfig) -> dict:
    """The result of each episode whose trace file is complete and not
    aborted, by path."""
    done = {}
    for path in paths:
        if path.is_file():
            head = EpisodeTrace.load_head(path)
            if head.incomplete or head.aborted:
                continue
            if head.config != config.to_dict():
                raise ResumeError(f"{path}: recorded with another search config; "
                                  "resume with the flags of the run that wrote it")
            done[path] = result_from_trace(head)
    return done


class _Environments:
    """The environments of a run's episodes.

    A bridged run holds one adapter session at a time, and the session is
    each episode's environment: it is spawned for the first episode that
    needs one, and the `init` that starts each episode (or stage) drops
    the states of the one before. `close` ends it: after an aborted
    episode, so that a dead adapter costs one episode and a reply that
    came too late never answers a later request, and when the run ends."""

    def __init__(self, bench: BenchmarkSuite):
        if bench.environment not in ("toy", "bridge"):
            raise ValueError(f"unknown environment selector {bench.environment!r}")
        if bench.environment == "bridge" and not bench.bridge_command:
            raise ValueError("bridge environment needs a bridge command")
        self.bench = bench
        self.session = None

    def open(self, theorem: ToyTheorem) -> ProofEnvironment:
        if self.bench.environment == "toy":
            return ToyEnvironment(theorem)
        if self.session is None:
            from . import bridge  # BridgeSession is looked up at each spawn
            self.session = bridge.BridgeSession(
                bridge.BridgeConfig(command=self.bench.bridge_command))
        return self.session

    def close(self):
        if self.session is not None:
            self.session.close()
            self.session = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


# EpisodeResult fields copied from the EpisodeTrace attribute of the same name
_TRACE_FIELDS = tuple(f.name for f in fields(EpisodeResult)
                      if f.name not in ("proved", "failure_reason"))


def result_from_trace(trace: EpisodeTrace) -> EpisodeResult:
    outcome = trace.outcome or SearchOutcome(proved=False)
    return EpisodeResult(
        proved=outcome.proved,
        failure_reason=REASON_INCOMPLETE if trace.incomplete else outcome.failure_reason,
        **{name: getattr(trace, name) for name in _TRACE_FIELDS},
    )


def results_from_traces(traces_dir: str | Path) -> list:
    """One EpisodeResult per trace file, read from its header and outcome
    line (`EpisodeTrace.load_head`); an incomplete trace gives one with
    failure reason `incomplete`, which the metrics leave out and list."""
    return [result_from_trace(EpisodeTrace.load_head(path))
            for path in sorted(Path(traces_dir).glob("*.jsonl"))]


def replay_trace(trace: EpisodeTrace, env) -> bool:
    """Independently re-run a proved trace's tactic script; True iff QED."""
    if trace.outcome is None or not trace.outcome.proved:
        return False
    initial = env.initial_state(trace.theorem)
    return lift_transition(env, initial, list(trace.outcome.proof)).is_qed


def _fraction(value: float) -> str:
    return f"{value:.6f}"


def _percent(value: float) -> str:
    return f"{100.0 * value:.2f}%"


def _stat(value: float | None) -> str:
    return "absent" if value is None else f"{value:.2f}"


def _stat_rows(stats, prefix: str) -> list:
    """(row name, value) for each AggregateStats field named prefix*, in
    field order; the row name is the field name in kebab case."""
    return [(f.name.replace("_", "-"), getattr(stats, f.name))
            for f in fields(stats) if f.name.startswith(prefix)]


def _stat_line(stats, label: str, prefix: str) -> str:
    """One text-report line: the prefix* stats in field order."""
    return f"  {label}: " + " / ".join(_stat(v) for _, v in _stat_rows(stats, prefix)) + "\n"


def render_metrics_text(report: MetricsReport) -> str:
    out = io.StringIO()
    out.write("pass@k-with-n-queries\n")
    for k, n, fraction in report.pass_grid:
        out.write(f"  k={k} n={n}: {_percent(fraction)} ({_fraction(fraction)})\n")
    out.write("\naggregate queries (Total / Failure / Pass)\n")
    out.write(_stat_line(report.stats, "avg queries", "avg_queries_"))
    if report.category_breakdown:
        out.write("\nper-category proved\n")
        for category, proved, total in report.category_breakdown:
            out.write(f"  {category}: {proved}/{total}\n")
    for heading, episodes in (("infrastructure-aborted episodes", report.aborted),
                              ("incomplete traces", report.incomplete)):
        if episodes:
            out.write(f"\n{heading} (excluded from metrics)\n")
            for theorem, attempt in episodes:
                out.write(f"  {theorem} attempt {attempt}\n")
    return out.getvalue()


def render_timing_text(report: MetricsReport) -> str:
    out = io.StringIO()
    out.write("pass@k-seconds\n")
    for k, fraction in report.seconds_curve:
        out.write(f"  k={k:g}s: {_percent(fraction)} ({_fraction(fraction)})\n")
    out.write("\navg time in seconds (On Pass / On Fail / All)\n")
    out.write(_stat_line(report.stats, "per proof", "time_per_proof_"))
    out.write(_stat_line(report.stats, "per query", "time_per_query_"))
    return out.getvalue()


def render_metrics_csv(report: MetricsReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["metric", "k", "n", "fraction"])
    for k, n, fraction in report.pass_grid:
        writer.writerow(["pass@k-with-n-queries", k, n, _fraction(fraction)])
    for name, value in _stat_rows(report.stats, "avg_queries_"):
        writer.writerow([name, "", "", "" if value is None else f"{value:.6f}"])
    for category, proved, total in report.category_breakdown:
        writer.writerow([f"category:{category}", "", "", f"{proved}/{total}"])
    return out.getvalue()


def render_timing_csv(report: MetricsReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["metric", "k_seconds", "fraction"])
    for k, fraction in report.seconds_curve:
        writer.writerow(["pass@k-seconds", f"{k:g}", _fraction(fraction)])
    for name, value in _stat_rows(report.stats, "time_per_"):
        writer.writerow([name, "", "" if value is None else f"{value:.6f}"])
    return out.getvalue()


def _csv_cell(type_name: str, value):
    """A results.csv cell for a value of the annotated field type."""
    if type_name == "bool":
        return int(value)
    if type_name == "float":
        return f"{value:.3f}"
    return "" if value is None else value


def write_results_csv(results: Sequence[EpisodeResult], path: str | Path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    columns = fields(EpisodeResult)
    writer.writerow([f.name for f in columns])
    for r in results:
        writer.writerow([_csv_cell(f.type, getattr(r, f.name)) for f in columns])
    overwrite_text(path, out.getvalue())


def write_report(
    results: Sequence[EpisodeResult],
    out_dir: str | Path,
    attempts_grid: Sequence[int] = (1,),
    n_grid: Sequence[int] = DEFAULT_N_GRID,
    seconds_grid: Sequence[float] = DEFAULT_SECONDS_GRID,
) -> MetricsReport:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = build_report(results, attempts_grid, n_grid, seconds_grid)
    overwrite_text(out_dir / "metrics.txt", render_metrics_text(report))
    overwrite_text(out_dir / "metrics.csv", render_metrics_csv(report))
    overwrite_text(out_dir / "timing.txt", render_timing_text(report))
    overwrite_text(out_dir / "timing.csv", render_timing_csv(report))
    return report
