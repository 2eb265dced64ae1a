"""Benchmark metrics: pass@k-with-n-queries, pass@k-seconds, and the
aggregate query/time statistics tables.

Infrastructure-aborted episodes measure the harness, not the method, and
an incomplete trace (a run cut off while writing it) holds no outcome: both
are excluded from every denominator and surfaced separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


# the failure reason of an episode read from an incomplete trace
REASON_INCOMPLETE = "incomplete"


@dataclass(frozen=True)
class EpisodeResult:
    theorem: str
    attempt: int
    proved: bool
    queries_used: int
    wall_seconds: float
    stage: str = "plain"
    category: str | None = None
    aborted: bool = False
    failure_reason: str | None = None

    def __post_init__(self):
        if self.attempt < 1:
            raise ValueError("attempt index must be >= 1")


def _valid(results: Iterable[EpisodeResult]) -> list:
    return [r for r in results if not r.aborted and r.failure_reason != REASON_INCOMPLETE]


def _by_theorem(results: Iterable[EpisodeResult]) -> dict:
    grouped: dict = {}
    for result in results:
        grouped.setdefault(result.theorem, []).append(result)
    for attempts in grouped.values():
        attempts.sort(key=lambda r: r.attempt)
    return grouped


def pass_at_k_with_n_queries(
    results: Iterable[EpisodeResult], k: int, n: int
) -> float:
    """Fraction of theorems proved by one of the first k attempts using at
    most n guidance queries; 0.0 when there is no theorem."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    grouped = _by_theorem(_valid(results))
    if not grouped:
        return 0.0
    passed = sum(
        1
        for attempts in grouped.values()
        if any(r.proved and r.queries_used <= n for r in attempts[:k])
    )
    return passed / len(grouped)


def pass_at_k_seconds(results: Iterable[EpisodeResult], k: float) -> float:
    """Fraction of theorems with a proving attempt faster than k seconds."""
    if k <= 0:
        raise ValueError("k must be > 0")
    grouped = _by_theorem(_valid(results))
    if not grouped:
        return 0.0
    passed = sum(
        1
        for attempts in grouped.values()
        if any(r.proved and r.wall_seconds < k for r in attempts)
    )
    return passed / len(grouped)


def _mean(values: Sequence[float]) -> float | None:
    return sum(values) / len(values) if values else None


@dataclass
class AggregateStats:
    """Means over the pass/fail subpopulations; None marks an empty one."""

    avg_queries_total: float | None = None
    avg_queries_on_failure: float | None = None
    avg_queries_on_pass: float | None = None
    time_per_proof_on_pass: float | None = None
    time_per_proof_on_failure: float | None = None
    time_per_proof_total: float | None = None
    time_per_query_on_pass: float | None = None
    time_per_query_on_failure: float | None = None
    time_per_query_total: float | None = None


def _per_query(subpopulation: list) -> float | None:
    total_queries = sum(r.queries_used for r in subpopulation)
    if total_queries == 0:
        return None
    return sum(r.wall_seconds for r in subpopulation) / total_queries


def aggregate_stats(results: Iterable[EpisodeResult]) -> AggregateStats:
    valid = _valid(results)
    passed = [r for r in valid if r.proved]
    failed = [r for r in valid if not r.proved]
    return AggregateStats(
        avg_queries_total=_mean([r.queries_used for r in valid]),
        avg_queries_on_failure=_mean([r.queries_used for r in failed]),
        avg_queries_on_pass=_mean([r.queries_used for r in passed]),
        time_per_proof_on_pass=_mean([r.wall_seconds for r in passed]),
        time_per_proof_on_failure=_mean([r.wall_seconds for r in failed]),
        time_per_proof_total=_mean([r.wall_seconds for r in valid]),
        time_per_query_on_pass=_per_query(passed),
        time_per_query_on_failure=_per_query(failed),
        time_per_query_total=_per_query(valid),
    )


@dataclass
class MetricsReport:
    pass_grid: list = field(default_factory=list)  # (k, n, fraction)
    seconds_curve: list = field(default_factory=list)  # (k_seconds, fraction)
    stats: AggregateStats = field(default_factory=AggregateStats)
    category_breakdown: list = field(default_factory=list)  # (category, proved, total)
    aborted: list = field(default_factory=list)  # (theorem, attempt)
    incomplete: list = field(default_factory=list)  # (theorem, attempt)


DEFAULT_N_GRID = (1, 5, 10, 20, 30, 60, 100)
DEFAULT_SECONDS_GRID = (1.0, 10.0, 60.0, 100.0, 300.0, 600.0)


def build_report(
    results: Iterable[EpisodeResult],
    attempts_grid: Sequence[int] = (1,),
    n_grid: Sequence[int] = DEFAULT_N_GRID,
    seconds_grid: Sequence[float] = DEFAULT_SECONDS_GRID,
) -> MetricsReport:
    results = sorted(results, key=lambda r: (r.theorem, r.attempt))
    report = MetricsReport(stats=aggregate_stats(results))
    valid = _valid(results)
    for k in attempts_grid:
        for n in n_grid:
            report.pass_grid.append((k, n, pass_at_k_with_n_queries(valid, k, n)))
    for k in seconds_grid:
        report.seconds_curve.append((k, pass_at_k_seconds(valid, k)))
    categories = sorted({r.category for r in valid if r.category})
    for category in categories:
        grouped = _by_theorem([r for r in valid if r.category == category])
        proved = sum(1 for attempts in grouped.values() if any(r.proved for r in attempts))
        report.category_breakdown.append((category, proved, len(grouped)))
    report.aborted = [(r.theorem, r.attempt) for r in results if r.aborted]
    report.incomplete = [(r.theorem, r.attempt) for r in results
                         if r.failure_reason == REASON_INCOMPLETE]
    return report
