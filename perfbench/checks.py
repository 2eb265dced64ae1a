"""Output checks computed apart from the code under measurement.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import Counter
from pathlib import Path

from proofsearch.toy import ToyEnvironment

_TOKEN = re.compile(r"[a-z0-9]+")


def replay_proofs(traces, suite) -> list:
    """Every proof in the traces reaches QED in a fresh ToyEnvironment."""
    problems = []
    for trace in traces:
        if trace.outcome is None or not trace.outcome.proved:
            continue
        env = ToyEnvironment(suite.theorem(trace.theorem))
        state = env.initial_state(trace.theorem)
        for tactic in trace.outcome.proof:
            state = env.apply_tactic(state, tactic)
        if not state.is_qed:
            problems.append(f"{trace.theorem}: proof does not replay to QED")
    return problems


def query_accounting(traces, max_queries: int) -> list:
    """queries_used equals the query records and stays within budget."""
    problems = []
    for trace in traces:
        if trace.queries_used != len(trace.records):
            problems.append(f"{trace.theorem}: queries_used {trace.queries_used} "
                            f"but {len(trace.records)} query records")
        if trace.queries_used > max_queries:
            problems.append(f"{trace.theorem}: {trace.queries_used} queries > {max_queries}")
    return problems


class ReferenceBM25:
    """BM25 from the formula: idf = ln(1 + (N - df + 0.5) / (df + 0.5)),
    each query token occurrence adding idf * tf * (k1 + 1) /
    (tf + k1 * (1 - b + b * len / avg_len)); ties broken by name."""

    def __init__(self, records, k1: float = 1.2, b: float = 0.75):
        self.names = [name for name, _ in records]
        self.docs = [Counter(_TOKEN.findall(f"{name} {statement}".lower()))
                     for name, statement in records]
        self.lengths = [sum(doc.values()) for doc in self.docs]
        self.avg = sum(self.lengths) / len(self.docs)
        self.df = Counter()
        for doc in self.docs:
            self.df.update(doc.keys())
        self.k1, self.b = k1, b

    def rank(self, query: str, k: int) -> list:
        tokens = _TOKEN.findall(query.lower())
        n = len(self.docs)
        idf = {t: math.log(1.0 + (n - self.df[t] + 0.5) / (self.df[t] + 0.5)) for t in tokens}
        scored = []
        for name, doc, length in zip(self.names, self.docs, self.lengths):
            score = 0.0
            for term in tokens:
                tf = doc.get(term, 0)
                if tf:
                    score += idf[term] * tf * (self.k1 + 1.0) / (
                        tf + self.k1 * (1.0 - self.b + self.b * length / self.avg))
            scored.append((-score, name))
        scored.sort()
        return [(name, -neg) for neg, name in scored[:k]]


def query_of_key(state_key: str) -> str:
    """Retrieval query text of a state, from its canonical key: each goal
    followed by its hypothesis propositions in name order."""
    parts = []
    for goal, hyps in json.loads(state_key)["obligations"]:
        parts.append(goal)
        parts.extend(prop for _, prop in sorted(hyps))
    return " ".join(parts)


def retrieval_rankings(events, reference: ReferenceBM25, k: int) -> list:
    """Logged `retrieve` events match the reference ranking exactly in
    names and to 1e-9 in scores."""
    problems = []
    for _, key, logged in events:
        expected = reference.rank(query_of_key(key), k)
        names = [name for name, _ in logged]
        if names != [name for name, _ in expected] or not all(
            math.isclose(score, want, rel_tol=1e-9, abs_tol=1e-12)
            for (_, score), (_, want) in zip(logged, expected)
        ):
            problems.append(f"retrieval ranking differs for query {query_of_key(key)!r}: "
                            f"got {logged[:3]}..., expected {expected[:3]}...")
    return problems


def same_reports(expected: Path, regenerated: Path) -> list:
    """A report regenerated from the traces is byte-identical."""
    return [f"{regenerated}/{name} differs from {expected}/{name}"
            for name in ("metrics.txt", "metrics.csv", "timing.txt", "timing.csv")
            if (expected / name).read_bytes() != (regenerated / name).read_bytes()]


def pass_at_1(results_csv: Path, metrics_csv: Path) -> list:
    """pass@1-with-n-queries recomputed from results.csv equals metrics.csv."""
    with results_csv.open(encoding="utf-8", newline="") as handle:
        rows = [r for r in csv.DictReader(handle) if r["aborted"] == "0"]
    theorems = {r["theorem"] for r in rows}
    firsts = {r["theorem"]: r for r in rows if r["attempt"] == "1"}
    problems = []
    with metrics_csv.open(encoding="utf-8", newline="") as handle:
        grid = [r for r in csv.DictReader(handle)
                if r["metric"] == "pass@k-with-n-queries" and r["k"] == "1"]
    if not grid:
        problems.append("metrics.csv has no pass@1 rows")
    for row in grid:
        n = int(row["n"])
        proved = sum(1 for r in firsts.values()
                     if r["proved"] == "1" and int(r["queries_used"]) <= n)
        expected = f"{proved / len(theorems):.6f}"
        if row["fraction"] != expected:
            problems.append(f"pass@1 n={n}: metrics.csv {row['fraction']}, recomputed {expected}")
    return problems


def same_comparable(left, right) -> list:
    """Two trace lists agree on every field outside wall-clock timing."""
    problems = []
    right_by_name = {t.theorem: t for t in right}
    for trace in left:
        other = right_by_name.get(trace.theorem)
        if other is None or trace.comparable() != other.comparable():
            problems.append(f"{trace.theorem}: bridged trace differs from the in-process trace")
    if len(left) != len(right):
        problems.append(f"{len(left)} bridged traces but {len(right)} in-process traces")
    return problems
