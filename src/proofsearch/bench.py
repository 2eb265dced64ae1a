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
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

from .agent import EpisodeTrace, SearchConfig, ensemble_prove, overwrite_text, prove
from .core import GlobalContext, lift_transition
from .llm import GuidanceBackend, ScriptedBackend
from .metrics import (
    DEFAULT_N_GRID,
    DEFAULT_SECONDS_GRID,
    EpisodeResult,
    MetricsReport,
    build_report,
)
from .retrieval import RetrievalIndex
from .toy import ToyEnvironment, ToySuite, ToyTheorem, brute_force_prove


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
    from .core import canonical_key

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


def run_suite(
    bench: BenchmarkSuite,
    config: SearchConfig,
    out_dir: str | Path,
    backend_factory: Callable[[ToyTheorem, int], GuidanceBackend],
    attempts: int = 1,
    ensemble: bool = True,
) -> list:
    """Run every theorem in the suite; returns EpisodeResults and writes
    one trace file per episode under out_dir/traces/."""
    out_dir = Path(out_dir)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for theorem in bench.suite.theorems.values():
        for attempt in range(1, attempts + 1):
            with _episode_env(bench, theorem) as env:
                backend = backend_factory(theorem, attempt)
                gctx = GlobalContext(theorem_statement=theorem.statement())
                if ensemble:
                    outcome, trace = ensemble_prove(
                        theorem.name, env, backend, bench.index, config, gctx
                    )
                else:
                    outcome, trace = prove(
                        theorem.name, env, backend, bench.index, gctx, config
                    )
            trace.attempt = attempt
            trace.category = theorem.category
            trace_path = traces_dir / f"{theorem.name}__a{attempt}.jsonl"
            trace.save(trace_path)
            results.append(result_from_trace(trace, str(trace_path)))
    write_results_csv(results, out_dir / "results.csv")
    return results


@contextmanager
def _episode_env(bench: BenchmarkSuite, theorem: ToyTheorem):
    """The environment of one episode; a bridged one's adapter is killed
    when the episode ends."""
    if bench.environment == "toy":
        yield ToyEnvironment(theorem)
    elif bench.environment == "bridge":
        from .bridge import BridgeConfig, BridgedEnvironment, BridgeSession

        if not bench.bridge_command:
            raise ValueError("bridge environment needs a bridge command")
        with BridgeSession(BridgeConfig(command=bench.bridge_command)) as session:
            yield BridgedEnvironment(session)
    else:
        raise ValueError(f"unknown environment selector {bench.environment!r}")


def result_from_trace(trace: EpisodeTrace, trace_path: str | None = None) -> EpisodeResult:
    outcome = trace.outcome
    return EpisodeResult(
        theorem=trace.theorem,
        attempt=trace.attempt,
        proved=bool(outcome and outcome.proved),
        queries_used=trace.queries_used,
        wall_seconds=trace.wall_seconds,
        stage=trace.stage,
        category=trace.category,
        aborted=trace.aborted,
        trace_path=trace_path,
    )


def results_from_traces(traces_dir: str | Path) -> list:
    results = []
    for path in sorted(Path(traces_dir).glob("*.jsonl")):
        results.append(result_from_trace(EpisodeTrace.load(path), str(path)))
    return results


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


def render_metrics_text(report: MetricsReport) -> str:
    out = io.StringIO()
    out.write("pass@k-with-n-queries\n")
    for k, n, fraction in report.pass_grid:
        out.write(f"  k={k} n={n}: {_percent(fraction)} ({_fraction(fraction)})\n")
    out.write("\naggregate queries (Total / Failure / Pass)\n")
    stats = report.stats
    out.write(
        f"  avg queries: {_stat(stats.avg_queries_total)} / "
        f"{_stat(stats.avg_queries_on_failure)} / {_stat(stats.avg_queries_on_pass)}\n"
    )
    if report.category_breakdown:
        out.write("\nper-category proved\n")
        for category, proved, total in report.category_breakdown:
            out.write(f"  {category}: {proved}/{total}\n")
    if report.aborted:
        out.write("\ninfrastructure-aborted episodes (excluded from metrics)\n")
        for theorem, attempt in report.aborted:
            out.write(f"  {theorem} attempt {attempt}\n")
    return out.getvalue()


def render_timing_text(report: MetricsReport) -> str:
    out = io.StringIO()
    out.write("pass@k-seconds\n")
    for k, fraction in report.seconds_curve:
        out.write(f"  k={k:g}s: {_percent(fraction)} ({_fraction(fraction)})\n")
    stats = report.stats
    out.write("\navg time in seconds (On Pass / On Fail / All)\n")
    out.write(
        f"  per proof: {_stat(stats.time_per_proof_on_pass)} / "
        f"{_stat(stats.time_per_proof_on_failure)} / {_stat(stats.time_per_proof_total)}\n"
    )
    out.write(
        f"  per query: {_stat(stats.time_per_query_on_pass)} / "
        f"{_stat(stats.time_per_query_on_failure)} / {_stat(stats.time_per_query_total)}\n"
    )
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


def write_results_csv(results: Sequence[EpisodeResult], path: str | Path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["theorem", "attempt", "proved", "queries_used", "wall_seconds",
         "stage", "category", "aborted"]
    )
    for r in results:
        writer.writerow(
            [r.theorem, r.attempt, int(r.proved), r.queries_used,
             f"{r.wall_seconds:.3f}", r.stage, r.category or "", int(r.aborted)]
        )
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
