"""Benchmark harness: metrics arithmetic, aggregate statistics, report
rendering and regeneration, the suite runner, and the CLI verbs."""

import contextlib
import csv
import functools
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from proofsearch.bench import (
    BenchmarkSuite,
    oracle_scripted_backend,
    render_metrics_csv,
    render_metrics_text,
    render_timing_text,
    replay_trace,
    result_from_trace,
    results_from_traces,
    run_suite,
    trace_file_name,
    write_report,
    write_results_csv,
)
import proofsearch.agent
import proofsearch.bridge
from proofsearch import bridge_adapter
import proofsearch.cli
import proofsearch.trace
from proofsearch.agent import SearchConfig
from proofsearch.cli import main as cli_main
from proofsearch.llm import Completion, GuidanceBackend, InfrastructureFailure
from proofsearch.metrics import (
    EpisodeResult,
    aggregate_stats,
    build_report,
    pass_at_k_seconds,
    pass_at_k_with_n_queries,
)
from proofsearch.prompts import NATURAL_STOP
from proofsearch.retrieval import LemmaRecord, build_index
from proofsearch.toy import ToyEnvironment
from proofsearch.toy.oracle import brute_force_prove
from proofsearch.toy.suite import parse_suite
from proofsearch.trace import REASON_INFRASTRUCTURE, EpisodeTrace, SearchOutcome

from conftest import CORPUS_PATH, SRC_DIR, SUITE_PATH, SequenceBackend


def result(theorem, proved, queries=10, seconds=5.0, attempt=1, **kwargs):
    return EpisodeResult(
        theorem=theorem, attempt=attempt, proved=proved,
        queries_used=queries, wall_seconds=seconds, **kwargs
    )


def synthetic(total, proved, queries=10):
    return [
        result(f"t{i}", proved=i < proved, queries=queries) for i in range(total)
    ]


class TestPassAtKQueries:
    @pytest.mark.parametrize(
        "proved, expected",
        [(71, 0.2909), (73, 0.2992), (75, 0.3074)],
    )
    def test_published_fractions(self, proved, expected):
        value = pass_at_k_with_n_queries(synthetic(244, proved), k=1, n=60)
        assert abs(value - expected) <= 0.0001  # within ±0.01 percentage points

    def test_three_theorem_example(self):
        results = [
            result("a", True, queries=5),
            result("b", True, queries=70),
            result("c", False, queries=60),
        ]
        assert pass_at_k_with_n_queries(results, k=1, n=60) == pytest.approx(1 / 3)

    def test_empty_returns_zero(self):
        assert pass_at_k_with_n_queries([], 1, 60) == 0.0

    def test_first_k_attempts_only(self):
        results = [
            result("a", False, attempt=1),
            result("a", True, attempt=2, queries=3),
        ]
        assert pass_at_k_with_n_queries(results, k=1, n=60) == 0.0
        assert pass_at_k_with_n_queries(results, k=2, n=60) == 1.0

    def test_aborted_excluded(self):
        results = [result("a", True, queries=1, aborted=True),
                   result("b", False)]
        assert pass_at_k_with_n_queries(results, 1, 60) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pass_at_k_with_n_queries([result("a", True)], 0, 60)
        with pytest.raises(ValueError):
            pass_at_k_with_n_queries([result("a", True)], 1, 0)

    def test_monotone_in_k_and_n_random(self):
        rng = random.Random(20240820)
        for _ in range(100):
            results = [
                result(
                    f"t{rng.randint(0, 8)}", rng.random() < 0.5,
                    queries=rng.randint(1, 80),
                    seconds=rng.uniform(0.1, 700.0),
                    attempt=rng.randint(1, 3),
                )
                for _ in range(rng.randint(1, 30))
            ]
            grid_n = [1, 10, 30, 60, 100]
            grid_k = [1, 2, 3]
            for k in grid_k:
                values = [pass_at_k_with_n_queries(results, k, n) for n in grid_n]
                assert values == sorted(values)
            for n in grid_n:
                values = [pass_at_k_with_n_queries(results, k, n) for k in grid_k]
                assert values == sorted(values)
            seconds_values = [pass_at_k_seconds(results, k) for k in (1, 60, 600, 1200)]
            assert seconds_values == sorted(seconds_values)


class TestPassAtKSeconds:
    def test_two_theorem_example(self):
        results = [result("a", True, seconds=39.0), result("b", True, seconds=134.0)]
        assert pass_at_k_seconds(results, 100.0) == pytest.approx(0.5)

    def test_all_slower_than_k(self):
        results = [result("a", True, seconds=50.0)]
        assert pass_at_k_seconds(results, 10.0) == 0.0

    def test_strictly_less_than(self):
        results = [result("a", True, seconds=100.0)]
        assert pass_at_k_seconds(results, 100.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pass_at_k_seconds([], 0.0)


class TestAggregateStats:
    def test_single_proved_episode(self):
        stats = aggregate_stats([result("a", True, queries=7, seconds=70.0)])
        assert stats.avg_queries_on_pass == pytest.approx(7.0)
        assert stats.time_per_proof_on_pass == pytest.approx(70.0)
        assert stats.time_per_query_on_pass == pytest.approx(10.0)

    def test_pass_fail_split(self):
        stats = aggregate_stats(
            [result("a", True, queries=4), result("b", False, queries=28)]
        )
        assert stats.avg_queries_total == pytest.approx(16.0)
        assert stats.avg_queries_on_pass == pytest.approx(4.0)
        assert stats.avg_queries_on_failure == pytest.approx(28.0)

    def test_empty_subpopulation_absent_not_zero(self):
        stats = aggregate_stats([result("a", True, queries=3)])
        assert stats.avg_queries_on_failure is None
        assert stats.time_per_proof_on_failure is None
        rendered = render_metrics_text(build_report([result("a", True, queries=3)]))
        assert "absent" in rendered

    def test_aborted_counted_separately(self):
        results = [result("a", True, queries=10), result("b", False, queries=50, aborted=True)]
        assert aggregate_stats(results).avg_queries_total == 10
        assert build_report(results).aborted == [("b", 1)]


class TestReport:
    def test_category_breakdown(self):
        results = [
            result("a", True, category="algebra"),
            result("b", False, category="algebra"),
            result("c", True, category="number_theory"),
        ]
        report = build_report(results)
        assert report.category_breakdown == [
            ("algebra", 1, 2), ("number_theory", 1, 1)
        ]

    def test_aborted_listed(self):
        report = build_report([result("a", False, aborted=True)])
        assert report.aborted == [("a", 1)]
        assert "infrastructure-aborted" in render_metrics_text(report)

    def test_fractions_within_unit_interval(self):
        report = build_report(synthetic(10, 4))
        for _, _, fraction in report.pass_grid:
            assert 0.0 <= fraction <= 1.0
        for _, fraction in report.seconds_curve:
            assert 0.0 <= fraction <= 1.0

    def test_csv_contains_published_row(self):
        report = build_report(synthetic(244, 71), n_grid=(60,))
        csv_text = render_metrics_csv(report)
        assert "pass@k-with-n-queries,1,60,0.290984" in csv_text

    def test_timing_rendered_separately(self):
        report = build_report(synthetic(4, 2))
        assert "pass@k-seconds" in render_timing_text(report)
        assert "pass@k-seconds" not in render_metrics_text(report)

    def test_text_reports_exact(self):
        report = build_report(
            [
                result("a", True, queries=4, seconds=2.5, category="logic"),
                result("b", True, queries=2, seconds=0.5, category="logic"),
                result("c", False, queries=0, seconds=0.25, aborted=True),
            ],
            n_grid=(1, 5),
            seconds_grid=(1.0, 10.0),
        )
        assert render_metrics_text(report) == (
            "pass@k-with-n-queries\n"
            "  k=1 n=1: 0.00% (0.000000)\n"
            "  k=1 n=5: 100.00% (1.000000)\n"
            "\n"
            "aggregate queries (Total / Failure / Pass)\n"
            "  avg queries: 3.00 / absent / 3.00\n"
            "\n"
            "per-category proved\n"
            "  logic: 2/2\n"
            "\n"
            "infrastructure-aborted episodes (excluded from metrics)\n"
            "  c attempt 1\n"
        )
        assert render_timing_text(report) == (
            "pass@k-seconds\n"
            "  k=1s: 50.00% (0.500000)\n"
            "  k=10s: 100.00% (1.000000)\n"
            "\n"
            "avg time in seconds (On Pass / On Fail / All)\n"
            "  per proof: 1.50 / absent / 1.50\n"
            "  per query: 0.50 / absent / 0.50\n"
        )

    def test_results_csv_exact(self, tmp_path):
        results = [
            result("alpha", True, queries=3, seconds=1.23456, stage="retrieval",
                   category="algebra"),
            result("beta", False, queries=0, seconds=0.5, attempt=2, aborted=True,
                   failure_reason="infrastructure"),
            result("gamma", False, queries=7, seconds=2.0, category=None,
                   failure_reason="search exhausted"),
        ]
        path = tmp_path / "results.csv"
        write_results_csv(results, path)
        assert path.read_text(encoding="utf-8") == (
            "theorem,attempt,proved,queries_used,wall_seconds,stage,category,aborted,"
            "failure_reason\n"
            "alpha,1,1,3,1.235,retrieval,algebra,0,\n"
            "beta,2,0,0,0.500,plain,,1,infrastructure\n"
            "gamma,1,0,7,2.000,plain,,0,search exhausted\n"
        )


@pytest.fixture(scope="module")
def suite_run(suite, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bench_out")
    bench = BenchmarkSuite(suite=suite, name="basic")
    config = SearchConfig()

    def factory(theorem, attempt):
        return oracle_scripted_backend(theorem, max_depth=4)

    results = run_suite(bench, config, out_dir, factory, attempts=1, ensemble=False)
    return out_dir, results


class TestRunSuite:
    def test_all_proved_with_proof_length_queries(self, suite, suite_run):
        _, results = suite_run
        assert len(results) == len(suite.theorems)
        for episode in results:
            assert episode.proved, episode.theorem
            proof = brute_force_prove(suite.theorem(episode.theorem), 4)
            assert episode.queries_used == len(proof), episode.theorem

    def test_traces_written_one_per_episode(self, suite, suite_run):
        out_dir, _ = suite_run
        traces = sorted((out_dir / "traces").glob("*.jsonl"))
        assert len(traces) == len(suite.theorems)

    def test_every_trace_replays_to_qed(self, suite, suite_run):
        out_dir, _ = suite_run
        for path in sorted((out_dir / "traces").glob("*.jsonl")):
            trace = EpisodeTrace.load(path)
            assert replay_trace(trace, ToyEnvironment(suite.theorem(trace.theorem)))

    def test_results_csv_written(self, suite_run):
        out_dir, results = suite_run
        lines = (out_dir / "results.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("theorem,attempt,proved")
        assert len(lines) == len(results) + 1

    def test_report_regeneration_byte_identical(self, suite_run, tmp_path):
        out_dir, results = suite_run
        write_report(results, out_dir)
        regenerated = results_from_traces(out_dir / "traces")
        write_report(regenerated, tmp_path)
        first = (out_dir / "metrics.txt").read_text(encoding="utf-8")
        second = (tmp_path / "metrics.txt").read_text(encoding="utf-8")
        assert first == second
        assert (out_dir / "metrics.csv").read_text(encoding="utf-8") == (
            tmp_path / "metrics.csv"
        ).read_text(encoding="utf-8")

    def test_category_rows_present(self, suite_run):
        out_dir, results = suite_run
        report = write_report(results, out_dir)
        categories = {category for category, _, _ in report.category_breakdown}
        assert categories == {"implication", "conjunction", "equality", "lemma"}

    def test_replay_trace_rejects_unproved(self, suite):
        trace = EpisodeTrace(theorem="imp_self", config={})
        env = ToyEnvironment(suite.theorem("imp_self"))
        assert replay_trace(trace, env) is False


TWO_THEOREMS = """
theorem imp_self
  goal P -> P
end

theorem imp_const
  goal P -> Q -> P
end
"""


@pytest.fixture()
def recorded_sessions(monkeypatch):
    """Every BridgeSession the runner starts, kept for inspection, with the
    number of earlier adapters still alive at its spawn and the commands
    it sent."""
    sessions = []

    class RecordedSession(proofsearch.bridge.BridgeSession):
        def __init__(self, config):
            self.alive_at_spawn = sum(s._proc.poll() is None for s in sessions)
            self.commands = []
            super().__init__(config)
            sessions.append(self)

        def call(self, cmd, **fields):
            self.commands.append(cmd)
            return super().call(cmd, **fields)

    monkeypatch.setattr(proofsearch.bridge, "BridgeSession", RecordedSession)
    yield sessions
    for session in sessions:
        session.close()


def bridged_run(tmp_path, command, backend_factory, ensemble=True):
    suite = parse_suite(TWO_THEOREMS)
    bench = BenchmarkSuite(suite=suite, environment="bridge", bridge_command=command)
    out_dir = tmp_path / "out"
    return out_dir, run_suite(
        bench, SearchConfig(), out_dir, backend_factory, ensemble=ensemble
    )


def loopback_command(tmp_path):
    """The loopback adapter over TWO_THEOREMS."""
    suite_path = tmp_path / "adapter.toysuite"
    suite_path.write_text(TWO_THEOREMS, encoding="utf-8")
    return [sys.executable, "-m", "proofsearch.bridge_adapter", str(suite_path)]


def assert_all_closed(sessions):
    """No adapter alive, never two alive at once, every stdin closed."""
    assert all(s._proc.poll() is not None for s in sessions)
    assert all(s.alive_at_spawn == 0 for s in sessions)
    assert all(s._proc.stdin.closed for s in sessions)


class TestBridgedRunSuite:
    def test_one_adapter_serves_the_whole_run(self, tmp_path, recorded_sessions):
        _, results = bridged_run(
            tmp_path, loopback_command(tmp_path),
            lambda theorem, attempt: oracle_scripted_backend(theorem),
        )
        assert [r.proved for r in results] == [True, True]
        assert len(recorded_sessions) == 1  # one spawn for the run
        assert recorded_sessions[0].commands == [  # `init` alone starts each episode
            "init", "apply", "apply", "init", "apply", "apply", "apply",
        ]
        assert_all_closed(recorded_sessions)

    def test_killed_adapter_aborts_only_its_episode(self, tmp_path, recorded_sessions):
        class KillingBackend(SequenceBackend):
            def complete(self, request):
                adapter = recorded_sessions[-1]._proc
                adapter.kill()
                adapter.wait()
                return super().complete(request)

        def factory(theorem, attempt):
            if theorem.name == "imp_self":
                return KillingBackend([], default="[RUN TACTIC] intro h [END]")
            return oracle_scripted_backend(theorem)

        out_dir, results = bridged_run(tmp_path, loopback_command(tmp_path), factory)
        assert [(r.theorem, r.aborted, r.proved) for r in results] == [
            ("imp_self", True, False), ("imp_const", False, True),
        ]
        trace = EpisodeTrace.load(out_dir / "traces" / "imp_self__a1.jsonl")
        assert trace.outcome.failure_reason == REASON_INFRASTRUCTURE
        assert len(recorded_sessions) == 2  # a fresh spawn for episode 2
        assert recorded_sessions[1].commands[0] == "init"
        assert_all_closed(recorded_sessions)

    def test_late_reply_never_answers_the_next_episode(
        self, tmp_path, monkeypatch, recorded_sessions
    ):
        # the loopback adapter, but its first `apply` after `init imp_self`
        # is answered only after the client's timeout
        suite_path = loopback_command(tmp_path)[-1]
        script = (
            "import json, sys, time, types\n"
            "from proofsearch import bridge_adapter\n"
            "def lines(stdin=sys.stdin.buffer):\n"
            "    slow = False\n"
            "    for line in stdin:\n"
            "        request = json.loads(line)\n"
            "        if request['cmd'] == 'init':\n"
            "            slow = request['theorem'] == 'imp_self'\n"
            "        elif slow:\n"
            "            time.sleep(1.0)\n"
            "            slow = False\n"
            "        yield line\n"
            "sys.stdin = types.SimpleNamespace(buffer=lines())\n"
            f"bridge_adapter.serve({suite_path!r})\n"
        )
        monkeypatch.setattr(proofsearch.bridge, "BridgeConfig", functools.partial(
            proofsearch.bridge.BridgeConfig, timeout_seconds=0.3))
        out_dir, results = bridged_run(
            tmp_path, [sys.executable, "-c", script],
            lambda theorem, attempt: oracle_scripted_backend(theorem),
        )
        assert [(r.theorem, r.aborted, r.proved) for r in results] == [
            ("imp_self", True, False), ("imp_const", False, True),
        ]
        note, = EpisodeTrace.load(out_dir / "traces" / "imp_self__a1.jsonl").notes
        assert "timed out" in note
        assert len(recorded_sessions) == 2
        assert_all_closed(recorded_sessions)

    def test_adapter_dead_at_init_aborts_each_episode(self, tmp_path, recorded_sessions):
        command = [sys.executable, "-c", "pass"]
        out_dir, results = bridged_run(
            tmp_path, command, lambda theorem, attempt: SequenceBackend([])
        )
        assert [(r.theorem, r.aborted, r.proved) for r in results] == [
            ("imp_self", True, False), ("imp_const", True, False),
        ]
        for result in results:
            trace = EpisodeTrace.load(out_dir / "traces" / f"{result.theorem}__a1.jsonl")
            assert trace.aborted
            assert trace.outcome.failure_reason == REASON_INFRASTRUCTURE
            assert trace.queries_used == 0
            assert any(note.startswith("infrastructure failure:") for note in trace.notes)

    def test_adapter_dead_after_init_aborts_the_episode(self, tmp_path, recorded_sessions):
        # answers `init` with one obligation, then exits before any `apply`
        script = (
            "import json, sys; req = json.loads(sys.stdin.readline()); "
            "print(json.dumps({'id': req['id'], 'status': 'ok', 'state_id': 's0', "
            "'obligations': [{'goal': 'P -> P', 'hypotheses': []}]}), flush=True)"
        )
        out_dir, results = bridged_run(
            tmp_path, [sys.executable, "-c", script],
            lambda theorem, attempt: SequenceBackend([], default="[RUN TACTIC] intro h [END]"),
            ensemble=False,
        )
        assert [(r.aborted, r.proved, r.queries_used) for r in results] == [
            (True, False, 1), (True, False, 1),
        ]
        trace = EpisodeTrace.load(out_dir / "traces" / "imp_self__a1.jsonl")
        assert trace.outcome.failure_reason == REASON_INFRASTRUCTURE

    def test_unknown_theorem_at_init_aborts_as_infrastructure(
        self, tmp_path, recorded_sessions
    ):
        # the adapter's suite lacks imp_const, so its `init` answers `error`
        suite_path = tmp_path / "one.toysuite"
        suite_path.write_text("theorem imp_self\n  goal P -> P\nend\n", encoding="utf-8")
        command = [sys.executable, "-m", "proofsearch.bridge_adapter", str(suite_path)]
        out_dir, results = bridged_run(
            tmp_path, command, lambda theorem, attempt: oracle_scripted_backend(theorem)
        )
        assert [(r.theorem, r.aborted, r.proved) for r in results] == [
            ("imp_self", False, True), ("imp_const", True, False),
        ]
        trace = EpisodeTrace.load(out_dir / "traces" / "imp_const__a1.jsonl")
        assert trace.outcome.failure_reason == REASON_INFRASTRUCTURE
        assert trace.queries_used == 0
        assert any("init failed" in note for note in trace.notes)


class TestOracleScriptedBackend:
    def test_unprovable_theorem_gives_none(self):
        theorem = parse_suite("theorem q\n  goal Q\nend\n").theorem("q")
        assert oracle_scripted_backend(theorem, max_depth=3) is None


# files for the CLI's bad-input cases, written under each case's tmp_path
BAD_INPUT_FILES = {
    "garbage.toysuite": "garbage line\n",
    "bad-term.toysuite": "theorem t\n  goal P ->\nend\n",
    "other.toysuite": "theorem other\n  goal P -> P\nend\n",
    "bad.tsv": "l_pq\tlemma\n",
    "bad-kind.tsv": "# kinds are lemma and definition\nl_pq\ttheorem\tP -> Q\n",
}


def with_bad_inputs(tmp_path, argv, expected, **dirs):
    """`argv` and `expected` with `{tmp}` and each of `dirs` filled in, once
    BAD_INPUT_FILES are written under tmp_path."""
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")

    def fill(text):
        return text.format(tmp=tmp_path, **dirs)

    return [fill(arg) for arg in argv], fill(expected)


class TestCli:
    def test_run_and_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(
            [
                "run", "--suite", str(SUITE_PATH), "--corpus", str(CORPUS_PATH),
                "--out", str(out), "--backend", "oracle", "--oracle-depth", "4",
            ]
        )
        assert code == 0
        assert "32/32 episodes proved" in capsys.readouterr().out
        assert (out / "metrics.txt").exists()
        assert (out / "timing.csv").exists()

        report_out = tmp_path / "report"
        code = cli_main(
            ["report", "--traces", str(out / "traces"), "--out", str(report_out)]
        )
        assert code == 0
        assert (report_out / "metrics.txt").read_text(encoding="utf-8") == (
            out / "metrics.txt"
        ).read_text(encoding="utf-8")

    def test_replay_verb(self, tmp_path, capsys):
        out = tmp_path / "out"
        cli_main(
            ["run", "--suite", str(SUITE_PATH), "--out", str(out),
             "--backend", "oracle", "--oracle-depth", "4", "--no-ensemble"]
        )
        capsys.readouterr()
        trace = next((out / "traces").glob("imp_self__a1.jsonl"))
        code = cli_main(["replay", "--trace", str(trace), "--suite", str(SUITE_PATH)])
        assert code == 0
        assert "replays to QED" in capsys.readouterr().out

    def test_oracle_verb(self, capsys):
        code = cli_main(["oracle", "--suite", str(SUITE_PATH), "--max-depth", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "imp_self\tproved\tintro h; exact h" in out

    @pytest.mark.parametrize("outcome, printed", [
        (SearchOutcome(proved=False, failure_reason="budget"),
         "imp_self: trace reports no proof; nothing to verify\n"),
        (SearchOutcome(proved=True, proof=("exact h",)),
         "imp_self: proof does NOT replay to QED\n"),
    ], ids=["unproved", "wrong-proof"])
    def test_replay_verb_on_a_trace_without_a_proof_that_replays(self, tmp_path, capsys,
                                                                  outcome, printed):
        trace = tmp_path / "imp_self__a1.jsonl"
        EpisodeTrace(theorem="imp_self", config={}, outcome=outcome).save(trace)
        assert cli_main(["replay", "--trace", str(trace), "--suite", str(SUITE_PATH)]) == 1
        assert capsys.readouterr().out == printed

    def test_report_verb_over_a_directory_without_traces(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert cli_main(["report", "--traces", str(tmp_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"no trace files under {tmp_path}\n")
        assert not out.exists()

    def test_oracle_verb_names_an_unproved_theorem(self, tmp_path, capsys):
        suite = tmp_path / "two-steps.toysuite"
        suite.write_text("theorem t\n  goal P -> P\nend\n", encoding="utf-8")
        assert cli_main(["oracle", "--suite", str(suite), "--max-depth", "1"]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("t\tunproved\t\n",
                                                "# 0/1 proved within depth 1\n")

    def test_oracle_backend_without_a_proof_replies_empty(self, tmp_path, capsys):
        suite = tmp_path / "two-steps.toysuite"
        suite.write_text("theorem t\n  goal P -> P\nend\n", encoding="utf-8")
        out = tmp_path / "out"
        code = cli_main(["run", "--suite", str(suite), "--out", str(out), "--no-ensemble",
                         "--oracle-depth", "1", "--max-queries", "3"])
        assert code == 0
        captured = capsys.readouterr()
        assert "warning: oracle found no proof for t" in captured.err
        assert "0/1 episodes proved" in captured.out
        records = EpisodeTrace.load(out / "traces" / trace_file_name("t", 1)).records
        assert records and {(r.response, r.stop_reason) for r in records} == {
            ("", "natural-stop")}

    def test_rate_limit_builds_one_shared_limiter(self, tmp_path, monkeypatch, capsys):
        built = []

        class FakeHttpBackend(SequenceBackend):
            def __init__(self, config, rate_limiter=None):
                super().__init__([], default="")
                self.config = config
                self.rate_limiter = rate_limiter
                built.append(self)

        monkeypatch.setattr(proofsearch.cli, "HttpBackend", FakeHttpBackend)
        code = cli_main(
            ["run", "--suite", str(SUITE_PATH), "--out", str(tmp_path / "out"),
             "--backend", "http", "--base-url", "http://localhost:1", "--model", "m",
             "--rate-limit", "2", "--max-queries", "1", "--no-ensemble"]
        )
        capsys.readouterr()
        assert code == 0
        assert len(built) == 32
        limiter = built[0].rate_limiter
        assert limiter._interval == pytest.approx(0.5)
        assert all(backend.rate_limiter is limiter for backend in built)

    def run_without(self, tmp_path, flags):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", "--suite", str(SUITE_PATH), "--out", str(out), *flags])
        assert not out.exists()
        message = exit_info.value.code
        assert isinstance(message, str) and "\n" not in message  # non-zero, one line
        return message

    def test_replay_backend_needs_replay_dir(self, tmp_path):
        message = self.run_without(tmp_path, ["--backend", "replay"])
        assert message == "--replay-dir is required for --backend replay"

    def test_http_backend_needs_base_url_and_model(self, tmp_path):
        message = self.run_without(tmp_path, ["--backend", "http", "--base-url", "http://x"])
        assert message == "--model is required for --backend http"

    @pytest.mark.parametrize("flags, expected", [
        (["--replay-dir", "no-such-run/traces"], "--replay-dir needs --backend replay"),
        (["--backend", "http", "--base-url", "http://localhost:1", "--model", "m",
          "--replay-dir", "no-such-run/traces"], "--replay-dir needs --backend replay"),
        (["--base-url", "http://localhost:1"], "--base-url needs --backend http"),
        (["--model", "m"], "--model needs --backend http"),
        (["--rate-limit", "0.001"], "--rate-limit needs --backend http"),
        (["--backend", "replay", "--replay-dir", "no-such-run/traces", "--model", "m"],
         "--model needs --backend http"),
        (["--api-key-env", "KEY"], "--api-key-env needs --backend http"),
        (["--backend", "replay", "--replay-dir", "no-such-run/traces", "--oracle-depth", "4"],
         "--oracle-depth needs --backend oracle"),
    ], ids=["replay-dir", "replay-dir-with-http", "base-url", "model", "rate-limit",
            "model-with-replay", "api-key-env", "oracle-depth-with-replay"])
    def test_flag_without_its_backend_rejected(self, tmp_path, flags, expected):
        assert self.run_without(tmp_path, flags) == expected

    @pytest.mark.parametrize("flags, expected", [
        (["--attempts", "0"], "--attempts must be >= 1"),
        (["--oracle-depth", "0"], "--oracle-depth must be >= 1"),
        (["--rate-limit", "-2"], "--rate-limit must be > 0"),
        (["--max-queries", "0"], "--max-queries must be >= 1"),
        (["--timeout", "0"], "--timeout must be > 0"),
        (["--format-retry-cap", "-1"], "--format-retry-cap must be >= 0"),
        (["--backend", "replay", "--replay-dir", "no-such-run/traces"],
         "--replay-dir no-such-run/traces has no trace imp_self__a1.jsonl"),
        (["--suite", "{tmp}/none.toysuite"],
         "--suite {tmp}/none.toysuite: No such file or directory"),
        (["--suite", "{tmp}/garbage.toysuite"],
         "--suite {tmp}/garbage.toysuite: line 1: unexpected keyword 'garbage'"),
        (["--suite", "{tmp}/bad-term.toysuite"],
         "--suite {tmp}/bad-term.toysuite: line 2: unexpected end of input; "
         "expected a term at position 4"),
        (["--corpus", "{tmp}/bad.tsv"],
         "--corpus {tmp}/bad.tsv: line 1: expected 'name<TAB>kind<TAB>statement'"),
        (["--corpus", "{tmp}/none.tsv"], "--corpus {tmp}/none.tsv: No such file or directory"),
        (["--corpus", "{tmp}/bad-kind.tsv"],
         "--corpus {tmp}/bad-kind.tsv: line 2: unknown record kind 'theorem'"),
    ], ids=["attempts", "oracle-depth", "rate-limit", "max-queries", "timeout",
            "format-retry-cap", "replay-dir", "suite-missing", "suite-malformed",
            "suite-term", "corpus-malformed", "corpus-missing", "corpus-kind"])
    def test_bad_flag_value_rejected(self, tmp_path, flags, expected):
        flags, expected = with_bad_inputs(tmp_path, flags, expected)
        assert self.run_without(tmp_path, flags) == expected

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("run")
        cli_main(["run", "--suite", str(SUITE_PATH), "--out", str(out), "--no-ensemble"])
        return out / "traces"

    @pytest.mark.parametrize("argv, expected", [
        (["report", "--k-grid", "0"], "--k-grid values must be >= 1"),
        (["report", "--n-grid", "8", "0"], "--n-grid values must be >= 1"),
        (["oracle", "--max-depth", "0"], "--max-depth must be >= 1"),
        (["oracle", "--suite", "{tmp}/garbage.toysuite"],
         "--suite {tmp}/garbage.toysuite: line 1: unexpected keyword 'garbage'"),
        (["replay", "--trace", "{traces}/imp_self__a1.jsonl", "--suite", "{tmp}/none.toysuite"],
         "--suite {tmp}/none.toysuite: No such file or directory"),
        (["replay", "--trace", "{traces}/imp_self__a1.jsonl", "--suite", "{tmp}/other.toysuite"],
         "--suite {tmp}/other.toysuite has no theorem imp_self, "
         "the theorem of --trace {traces}/imp_self__a1.jsonl"),
        (["replay", "--trace", "{tmp}/none.jsonl"],
         "--trace {tmp}/none.jsonl: No such file or directory"),
    ], ids=["k-grid", "n-grid", "max-depth", "oracle-suite-malformed", "replay-suite-missing",
            "replay-suite-lacks-theorem", "replay-trace-missing"])
    def test_bad_verb_flag_value_rejected(self, tmp_path, traces, argv, expected):
        argv, expected = with_bad_inputs(tmp_path, argv, expected, traces=traces)
        verb, *flags = argv
        out = tmp_path / "out"
        where = (["--traces", str(traces), "--out", str(out)] if verb == "report"
                 else ["--suite", str(SUITE_PATH)])
        with pytest.raises(SystemExit) as exit_info:
            cli_main([verb, *where, *flags])
        assert not out.exists()
        assert exit_info.value.code == expected  # non-zero, one line

    def test_replay_needs_every_attempts_trace(self, tmp_path, capsys):
        first = tmp_path / "first"
        cli_main(["run", "--suite", str(SUITE_PATH), "--out", str(first), "--no-ensemble"])
        capsys.readouterr()
        message = self.run_without(
            tmp_path, ["--backend", "replay", "--replay-dir", str(first / "traces"),
                       "--attempts", "2"])
        assert message == f"--replay-dir {first / 'traces'} has no trace imp_self__a2.jsonl"

    def run_twice(self, tmp_path, flags, oracle_depth):
        """An oracle run at `oracle_depth`, then a replay of it from its
        traces with the same `flags`; returns both output directories."""
        out1, out2 = tmp_path / "first", tmp_path / "second"
        cli_main(["run", "--suite", str(SUITE_PATH), "--out", str(out1), *flags,
                  "--oracle-depth", str(oracle_depth)])
        code = cli_main(
            ["run", "--suite", str(SUITE_PATH), "--out", str(out2), *flags,
             "--backend", "replay", "--replay-dir", str(out1 / "traces")]
        )
        assert code == 0
        return out1, out2

    def test_record_then_replay_backend(self, tmp_path, capsys):
        out1, out2 = self.run_twice(tmp_path, ["--corpus", str(CORPUS_PATH), "--attempts", "2"],
                                    oracle_depth=4)
        capsys.readouterr()

        def without_wall_seconds(path):
            return re.sub(r'"wall_seconds": [^,]+,', '"wall_seconds": 0.0,',
                          path.read_text(encoding="utf-8"))

        names = sorted(p.name for p in (out1 / "traces").iterdir())
        assert names == sorted(p.name for p in (out2 / "traces").iterdir())
        assert len(names) == 64
        for name in names:
            assert without_wall_seconds(out2 / "traces" / name) == without_wall_seconds(
                out1 / "traces" / name)
        for name in ("metrics.txt", "metrics.csv"):
            assert (out2 / name).read_bytes() == (out1 / name).read_bytes()

    UNKNOWN_TACTIC = "[RUN TACTIC] no_such_tactic [END]"

    @pytest.mark.parametrize("flags, reply, step, sketch_fails", [
        (["--no-ensemble"], "", 0.25, False),
        (["--corpus", str(CORPUS_PATH)], UNKNOWN_TACTIC, 0.25, False),
        (["--corpus", str(CORPUS_PATH)], UNKNOWN_TACTIC, 0.125, False),
        (["--corpus", str(CORPUS_PATH)], UNKNOWN_TACTIC, 0.12, True),
    ], ids=["mid-stage", "at-a-stage-start", "at-the-sketch", "at-a-sketch-failure"])
    def test_replay_ends_each_episode_as_recorded(self, tmp_path, monkeypatch, capsys,
                                                  flags, reply, step, sketch_fails):
        """A replay gives the recorded run's metrics.csv, results.csv
        (wall_seconds masked) and comparable traces for episodes that end
        proved, at the query budget, in an exhausted search and at the
        wall-clock timeout: mid-stage, at a stage's start or at the sketch.
        The search's clock is faked: it moves `step` seconds at each query
        of the first theorem, whose backend never proves it, so the
        recording times out after 1 / step queries. An empty reply costs a
        repair query; the tactic is unknown, so an attempt costs one query.
        With `sketch_fails`, that backend raises at the sketch, its 9th
        query, after the clock has run out: the episode ends aborted by
        the failure, and so does its replay, with the recorded note."""
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(proofsearch.agent, "time",
                            SimpleNamespace(monotonic=lambda: clock.now))

        class Ticking(GuidanceBackend):
            def complete(self, request):
                clock.now += step
                if sketch_fails and request.metadata["state_key"] == "sketch":
                    raise InfrastructureFailure("the model went away")
                return Completion(reply, NATURAL_STOP, 0.0)

        oracle = proofsearch.cli.oracle_scripted_backend
        timed, exhausted, spent = list(parse_suite(SUITE_PATH.read_text(encoding="utf-8"))
                                       .theorems)[:3]
        scripted = {timed: Ticking, exhausted: lambda: SequenceBackend([], self.UNKNOWN_TACTIC),
                    spent: lambda: SequenceBackend([], "")}
        monkeypatch.setattr(proofsearch.cli, "oracle_scripted_backend", lambda theorem, max_depth:
                            scripted.get(theorem.name, lambda: oracle(theorem, max_depth))())
        flags = [*flags, "--max-queries", "14", "--timeout", "1"]
        out1, out2 = self.run_twice(tmp_path, flags, oracle_depth=2)
        capsys.readouterr()

        def rows(out):
            with open(out / "results.csv", encoding="utf-8", newline="") as f:
                return [{**row, "wall_seconds": None} for row in csv.DictReader(f)]

        recorded = rows(out1)
        ending = REASON_INFRASTRUCTURE if sketch_fails else "timeout"
        assert {(row["theorem"], row["failure_reason"]) for row in recorded} >= {
            (timed, ending), (exhausted, "search exhausted"), (spent, "budget")}
        assert any(row["proved"] == "1" for row in recorded)
        assert rows(out2) == recorded
        assert (out2 / "metrics.csv").read_bytes() == (out1 / "metrics.csv").read_bytes()
        names = sorted(path.name for path in (out1 / "traces").iterdir())
        assert names == sorted(path.name for path in (out2 / "traces").iterdir())
        for name in names:
            assert (EpisodeTrace.load(out2 / "traces" / name).comparable()
                    == EpisodeTrace.load(out1 / "traces" / name).comparable()), name
        replayed = EpisodeTrace.load(out2 / "traces" / trace_file_name(timed, 1))
        assert replayed.queries_used == (8 if sketch_fails else round(1 / step))
        if sketch_fails:
            assert replayed.notes == ["infrastructure failure: the model went away"]

    def test_replay_of_a_different_question_aborts(self, tmp_path, capsys):
        # the replay has no corpus, so its first prompt lacks the recorded lemmas
        out1, out2 = tmp_path / "first", tmp_path / "second"
        cli_main(["run", "--suite", str(SUITE_PATH), "--out", str(out1), "--no-ensemble",
                  "--corpus", str(CORPUS_PATH)])
        code = cli_main(["run", "--suite", str(SUITE_PATH), "--out", str(out2), "--no-ensemble",
                         "--backend", "replay", "--replay-dir", str(out1 / "traces")])
        assert code == 1
        assert "0/32 episodes proved" in capsys.readouterr().out
        for path in sorted((out2 / "traces").iterdir()):
            trace = EpisodeTrace.load(path)
            assert trace.aborted
            assert trace.notes == ["infrastructure failure: replay mismatch at query 1"]

    def test_replay_with_another_prompt_style_aborts(self, tmp_path, capsys):
        # depth 2 leaves episodes unproved, so the runs hold sketch queries too
        flags = ["--corpus", str(CORPUS_PATH)]
        out1, out2 = self.run_twice(tmp_path, flags, oracle_depth=2)
        assert any(r.stage == "informal" for r in results_from_traces(out1 / "traces"))
        for name in ("metrics.txt", "metrics.csv"):
            assert (out2 / name).read_bytes() == (out1 / name).read_bytes()
        capsys.readouterr()
        # the prompt style is a search flag, which the trace headers record
        message = self.run_without(tmp_path, [
            *flags, "--backend", "replay", "--replay-dir", str(out1 / "traces"),
            "--prompt-style", "coq"])
        assert message == (f"--replay-dir {out1 / 'traces'}: imp_self__a1.jsonl was recorded "
                           "with another search config; replay with the flags of the run that "
                           "wrote it")
        assert capsys.readouterr().out == ""

    def test_replay_with_other_search_flags_stops_before_any_output(self, tmp_path, capsys):
        first = tmp_path / "first"
        cli_main(["run", "--suite", str(SUITE_PATH), "--out", str(first), "--no-ensemble",
                  "--max-queries", "60"])
        capsys.readouterr()
        message = self.run_without(tmp_path, [
            "--no-ensemble", "--backend", "replay", "--replay-dir", str(first / "traces"),
            "--max-queries", "5"])
        assert message == (f"--replay-dir {first / 'traces'}: imp_self__a1.jsonl was recorded "
                           "with another search config; replay with the flags of the run that "
                           "wrote it")
        assert capsys.readouterr().out == ""

    def test_bridged_run_equals_the_in_process_run(self, tmp_path, capsys, recorded_sessions):
        # depth 2 leaves 24 episodes unproved, and each of them runs all
        # three ensemble stages, so sends `init` three times
        flags = ["--corpus", str(CORPUS_PATH), "--attempts", "2", "--oracle-depth", "2"]
        toy, bridged = tmp_path / "toy", tmp_path / "bridge"
        cli_main(["run", "--suite", str(SUITE_PATH), "--out", str(toy), *flags])
        code = cli_main(
            ["run", "--suite", str(SUITE_PATH), "--out", str(bridged), *flags,
             "--bridge-cmd",
             f"{sys.executable} -m proofsearch.bridge_adapter {SUITE_PATH}"]
        )
        assert code == 0
        assert capsys.readouterr().out.count("40/64 episodes proved") == 2
        names = sorted(p.name for p in (toy / "traces").iterdir())
        assert names == sorted(p.name for p in (bridged / "traces").iterdir())
        assert len(names) == 64
        for name in names:
            expected, actual = (json.dumps(EpisodeTrace.load(out / "traces" / name).comparable())
                                for out in (toy, bridged))
            assert actual == expected, name
        for name in ("metrics.txt", "metrics.csv"):
            assert (bridged / name).read_bytes() == (toy / name).read_bytes()
        session, = recorded_sessions
        assert set(session.commands) == {"init", "apply"}  # `init` alone starts an episode
        assert session.commands.count("init") == 40 + 3 * 24
        assert_all_closed(recorded_sessions)

    def test_run_where_every_episode_aborts_exits_non_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(["run", "--suite", str(SUITE_PATH), "--out", str(out),
                         "--bridge-cmd", f"{sys.executable} -c pass"])  # exits at once
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.endswith(f"0/32 episodes proved; reports written to {out}\n")
        assert captured.err == f"all 32 episodes aborted; see {out / 'results.csv'}\n"
        rows = (out / "results.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 32 and all(row.endswith(",1,infrastructure") for row in rows)

    def test_report_of_an_aborted_run_equals_the_runs_own(self, tmp_path, capsys):
        # the suite's order is not its trace files' name order
        out, again = tmp_path / "out", tmp_path / "again"
        assert cli_main(["run", "--suite", str(SUITE_PATH), "--out", str(out), "--attempts", "2",
                         "--bridge-cmd", "false"]) == 1
        assert cli_main(["report", "--traces", str(out / "traces"), "--out", str(again)]) == 0
        capsys.readouterr()
        text = (out / "metrics.txt").read_text(encoding="utf-8")
        assert text.count(" attempt ") == 64
        for name in ("metrics.txt", "metrics.csv"):
            assert (again / name).read_bytes() == (out / name).read_bytes(), name

    @pytest.mark.parametrize("case", ["trace-is-a-directory", "trace-is-a-directory-resume",
                                      "run-out-is-a-file", "report-out-is-a-file",
                                      "bridge-cmd-missing"])
    def test_os_error_exits_with_one_line(self, tmp_path, capsys, case):
        suite = tmp_path / "one.toysuite"
        suite.write_text("theorem ok\n  goal P -> P\nend\n", encoding="utf-8")
        out, regular = tmp_path / "out", tmp_path / "regular"
        regular.write_text("", encoding="utf-8")
        run = ["run", "--suite", str(suite), "--out", str(out)]
        if case.startswith("trace-is-a-directory"):
            trace = out / "traces" / trace_file_name("ok", 1)
            trace.mkdir(parents=True)
            argv = run + ["--resume"] * case.endswith("resume")
            expected = f"proofsearch run: {trace}: Is a directory"
        elif case == "run-out-is-a-file":
            argv = ["run", "--suite", str(suite), "--out", str(regular)]
            expected = f"proofsearch run: {regular / 'traces'}: Not a directory"
        elif case == "report-out-is-a-file":
            assert cli_main(run) == 0
            argv = ["report", "--traces", str(out / "traces"), "--out", str(regular)]
            expected = f"proofsearch report: {regular}: File exists"
        else:
            argv = run + ["--bridge-cmd", "no-such-adapter-command --flag"]
            expected = "proofsearch run: no-such-adapter-command: No such file or directory"
        capsys.readouterr()
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [expected]

    def test_qed_reply_to_init_aborts_each_episode_without_a_traceback(self, tmp_path):
        # an adapter that answers every `init` with `qed`: no episode has a
        # tactic script, so none is a proof; each aborts, and the run exits 1
        adapter = tmp_path / "closed.py"
        adapter.write_text(
            "import json, sys\n"
            "for line in sys.stdin:\n"
            "    request = json.loads(line)\n"
            "    status = 'qed' if request['cmd'] == 'init' else 'ok'\n"
            "    print(json.dumps({'id': request['id'], 'status': status}), flush=True)\n"
            "    if request['cmd'] == 'shutdown':\n"
            "        break\n", encoding="utf-8")
        suite_path = tmp_path / "two.toysuite"
        suite_path.write_text("theorem pp\n  goal P -> P\nend\n\n"
                              "theorem qq\n  goal Q -> Q\nend\n", encoding="utf-8")
        out = tmp_path / "out"
        ran = subprocess.run(
            [sys.executable, "-m", "proofsearch.cli", "run", "--suite", str(suite_path),
             "--out", str(out), "--bridge-cmd", f"{sys.executable} {adapter}"],
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
            capture_output=True, text=True, timeout=120)
        assert ran.returncode == 1
        assert "Traceback" not in ran.stderr
        assert ran.stderr == f"all 2 episodes aborted; see {out / 'results.csv'}\n"
        for theorem in ("pp", "qq"):
            trace = EpisodeTrace.load(out / "traces" / trace_file_name(theorem, 1))
            assert trace.aborted and not trace.outcome.proved
            assert trace.outcome.failure_reason == REASON_INFRASTRUCTURE
            assert trace.notes == ["infrastructure failure: the theorem was closed at "
                                   "its initial state: no tactic script to replay"]

    def test_token_budget_too_small_aborts_only_its_episode(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(
            ["run", "--suite", str(SUITE_PATH), "--corpus", str(CORPUS_PATH), "--out", str(out),
             "--oracle-depth", "2", "--token-budget", "40"]
        )
        capsys.readouterr()
        assert code == 0
        aborted = [r for r in results_from_traces(out / "traces") if r.aborted]
        assert len(aborted) == 4
        assert (out / "results.csv").exists()
        metrics = (out / "metrics.txt").read_text(encoding="utf-8")
        assert all(f"  {r.theorem} attempt 1\n" in metrics for r in aborted)
        for r in aborted:
            trace_path = out / "traces" / trace_file_name(r.theorem, r.attempt)
            note, = EpisodeTrace.load(trace_path).notes
            assert note.startswith("infrastructure failure: token budget 40 cannot fit")


def run_digest(out) -> str:
    """One sha256 over a run's outputs that must not move: every trace's
    `comparable()` JSON, in file-name order, then metrics.txt and metrics.csv."""
    digest = hashlib.sha256()
    for path in sorted((out / "traces").iterdir()):
        digest.update(json.dumps(EpisodeTrace.load(path).comparable()).encode())
    for name in ("metrics.txt", "metrics.csv"):
        digest.update((out / name).read_bytes())
    return digest.hexdigest()


def claimed_interpreters(minors=(10, 12, 13)) -> dict:
    """For each 3.N, the first CPython 3.N that starts: `python3.N` on PATH,
    then `$PYENV_ROOT/versions/3.N.*/bin/python` (PYENV_ROOT defaults to
    ~/.pyenv). One that does not start, such as a pyenv shim for a version
    that is not selected, is passed over."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    probe = "import sys; print(sys.implementation.name, *sys.version_info[:2])"
    found = {}
    for minor in minors:
        candidates = [shutil.which(f"python3.{minor}"),
                      *sorted(root.glob(f"versions/3.{minor}.*/bin/python"))]
        for python in filter(None, candidates):
            try:
                started = subprocess.run([python, "-c", probe], capture_output=True,
                                         text=True, timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                continue
            if started.returncode == 0 and started.stdout.split() == ["cpython", "3", str(minor)]:
                found[f"3.{minor}"] = str(python)
                break
    return found


class TestBundledSuiteBytes:
    """The bundled suite's traces and query metrics, pinned. At depth 2 the
    oracle leaves 24 of 64 episodes unproved, so these runs reach every
    stage boundary: at 16 queries the retrieval stage never starts, at 32
    the sketch is skipped, and at 33 the sketch spends the last query."""

    Q60 = (["--max-queries", "60"],
           "49eb3e0947c253ded5ba9fef050b82bb68a058604f2e896adb5896c89de4c27b")

    @staticmethod
    def argv(out) -> list:
        return ["run", "--suite", str(SUITE_PATH), "--corpus", str(CORPUS_PATH),
                "--out", str(out), "--oracle-depth", "2", "--attempts", "2"]

    @pytest.mark.parametrize("flags, expected", [
        (["--max-queries", "16"],
         "e4003634f3dc2bfba88c0e25b51e788557052aaee83a7099e65a8e9f93dc9fb6"),
        (["--max-queries", "32"],
         "b513dc58f87f3e3b537f3aa40eb914aeafbc27658745aef2ef22464463da4571"),
        (["--max-queries", "33"],
         "b9392a5edc6458ebf99b71a075b17533187106f5f21d91a81916f774bb580ee3"),
        Q60,
        (["--no-ensemble"],
         "292fb7b117aab24f351b2c4338b411c9b3142da60432e323ebf635d2cdc3a68f"),
    ], ids=["q16", "q32", "q33", "q60", "no-ensemble"])
    def test_run_bytes_unchanged(self, tmp_path, capsys, flags, expected):
        out = tmp_path / "out"
        code = cli_main([*self.argv(out), *flags])
        capsys.readouterr()
        assert code == 0
        assert run_digest(out) == expected, (
            "the traces or metrics of the bundled suite changed; a digest here may "
            "change only for a deliberate change of output that CHANGES.md lists")

    def test_q60_bytes_under_each_claimed_interpreter(self, tmp_path):
        """`pyproject.toml` claims Python 3.10 and later: the q60 run gives
        the pinned bytes under every CPython 3.10, 3.12 and 3.13 that starts
        here."""
        found = claimed_interpreters()
        if not found:
            pytest.skip("no CPython 3.10, 3.12 or 3.13 starts here, as python3.N on "
                        "PATH or under $PYENV_ROOT/versions (PYENV_ROOT defaults to ~/.pyenv)")
        for version, python in found.items():
            out = tmp_path / version
            ran = self.q60_in_child(python, out)
            assert ran.returncode == 0, f"CPython {version} at {python}: {ran.stderr}"
            assert run_digest(out) == self.Q60[1], f"CPython {version} at {python}"

    @pytest.mark.parametrize("seed", ["0", "12345"])
    def test_q60_bytes_under_each_hash_seed(self, tmp_path, seed):
        """The q60 run gives the pinned bytes in a child of this interpreter
        under each fixed `PYTHONHASHSEED`: no output may follow the
        iteration order of a set or dict of strings."""
        out = tmp_path / "out"
        ran = self.q60_in_child(sys.executable, out, PYTHONHASHSEED=seed)
        assert ran.returncode == 0, f"PYTHONHASHSEED={seed}: {ran.stderr}"
        assert run_digest(out) == self.Q60[1], f"PYTHONHASHSEED={seed}"

    def q60_in_child(self, python, out, **env) -> subprocess.CompletedProcess:
        """The q60 run in a child process of `python`, with `env` added to
        this process's environment. The child needs no pytest; the digest
        is taken in this process."""
        return subprocess.run([python, "-m", "proofsearch.cli", *self.argv(out), *self.Q60[0]],
                              env={**os.environ, "PYTHONPATH": str(SRC_DIR), **env},
                              capture_output=True, text=True, timeout=300)



def deep_suite_text() -> str:
    """Three intro chains of depth 12. Each theorem holds 11 noise
    hypotheses (atoms and conjunctions) and an equation `e` whose rewrite
    leads into a dead end. `d0` and `d1` close with `exact t`. `d2` has
    no `t`: its plain stage is exhausted, and its retrieval stage closes
    with `apply lk`, a lemma that only the retrieved entries name."""
    lines = ["lemma lk : x2 = y2", ""]
    for k in range(3):
        premises = [f"a{k}p{j:02d} /\\ c{k}p{j:02d}" if j % 3 == 1 else f"a{k}p{j:02d}"
                    for j in range(12)]
        lines += [f"theorem d{k}", "  goal " + " -> ".join(premises + [f"x{k} = y{k}"])]
        if k < 2:
            lines.append(f"  hyp t : x{k} = y{k}")
        lines.append(f"  hyp e : y{k} = z{k}")
        lines += [f"  hyp n{i:02d} : " + (f"b{k}n{i} /\\ c{k}n{i}" if i % 2 else f"b{k}n{i}")
                  for i in range(11)]
        if k == 2:
            lines.append("  use lk")
        lines += ["  category deep", "end", ""]
    return "\n".join(lines)


DEEP_CORPUS = [LemmaRecord("lk", "x2 = y2"), LemmaRecord("l_x1", "x1 = z1 -> x1"),
               LemmaRecord("d_y2", "y2 /\\ z2", "definition"),
               LemmaRecord("l_b", "b2n0 -> b2n2 -> b2n4")]


class DeepBackend(GuidanceBackend):
    """Answers the n-th query at a (stage, state) with the n-th candidate
    for the state's first goal. The first query of an episode gets a
    reply that is not in the response format."""

    def __init__(self):
        self.asked: dict = {}  # (stage, state key) -> queries answered there
        self.malformed = False  # the reply out of format was sent

    def complete(self, request):
        meta = request.metadata
        if meta["state_key"] == "sketch":
            return Completion("Use the lemma.", NATURAL_STOP, 0.0)
        if not self.malformed:
            self.malformed = True
            return Completion("intro, I think", NATURAL_STOP, 0.0)
        goal, hyps = json.loads(meta["state_key"])["obligations"][0]
        if "->" in goal:
            fresh = 1 + sum(name.startswith("h") for name, _ in hyps)
            candidates = ["exact n00", f"intro h{fresh}"]
        else:
            candidates = ["rw e"]
            if "[THEOREM] lk :" in request.turns[-1][1]:
                candidates.append("apply lk")
            candidates += ["rw ← e", "exact t"]
        n = self.asked.get((meta["stage"], meta["state_key"]), 0)
        self.asked[(meta["stage"], meta["state_key"])] = n + 1
        tactic = candidates[n] if n < len(candidates) else "split"
        return Completion(f"[RUN TACTIC] {tactic} [END]", NATURAL_STOP, 0.0)


class ServedAdapter:
    """What a BridgeSession uses of its `subprocess.Popen`, for
    `bridge_adapter.serve` run on a thread of this process over two real
    pipes. `serve` reads `sys.stdin.buffer` and writes `sys.stdout.buffer`,
    so the caller swaps both streams for the adapter's ends of the pipes,
    opened as text over a buffer. The thread closes its ends when `serve`
    returns, as an exiting process would."""

    def __init__(self, suite_path, monkeypatch):
        requests_read, requests_write = os.pipe()
        replies_read, replies_write = os.pipe()
        self.stdin = open(requests_write, "wb", buffering=0)
        self.stdout = open(replies_read, "rb", buffering=0)
        adapter_in = open(requests_read, encoding="utf-8")
        adapter_out = open(replies_write, "w", encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", adapter_in)
        monkeypatch.setattr(sys, "stdout", adapter_out)

        def run():
            with adapter_in, adapter_out:
                bridge_adapter.serve(str(suite_path))

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()

    def poll(self):
        return None if self.thread.is_alive() else 0

    def kill(self):
        self.stdin.close()

    def wait(self):
        self.thread.join()


@contextlib.contextmanager
def serving(suite_path, monkeypatch):
    """While entered, the `subprocess.Popen` that a BridgeSession calls
    starts a ServedAdapter over `suite_path` instead of a process."""
    with monkeypatch.context() as patch:
        patch.setattr(proofsearch.bridge.subprocess, "Popen",
                      lambda command, **options: ServedAdapter(suite_path, monkeypatch))
        yield


class TestDeepSuiteBytes:
    """Deep states, pinned: every trace's `comparable()` of a suite whose
    states hold up to 25 hypotheses, run in-process and through the bridge
    over `bridge_adapter.serve` in this process. The bundled suite has no
    state this large, so a slip in sorting, escaping or caching that shows
    only on long hypothesis lists is caught here."""

    DIGESTS = {
        "d0__a1.jsonl": "1caf3286a7ca733ed590551c94c26ca20be3158028664a2a442082fc7a16e18a",
        "d1__a1.jsonl": "f68402b8a0ced449cec365ab9b547e7edc7a0d8b1218120e1400bdb3ae7faff3",
        "d2__a1.jsonl": "ba467834d41aadcda306d222ce2a37ded55378ee064d782d384e16cabd8caa2e",
    }

    def run(self, out_dir, bench):
        config = SearchConfig(max_queries=200, per_state_budget=3, format_retry_cap=1)
        results = run_suite(bench, config, out_dir, lambda theorem, attempt: DeepBackend())
        assert [(r.theorem, r.proved, r.stage) for r in results] == [
            ("d0", True, "plain"), ("d1", True, "plain"), ("d2", True, "retrieval")]
        return {path.name: hashlib.sha256(
                    json.dumps(EpisodeTrace.load(path).comparable()).encode()).hexdigest()
                for path in sorted((out_dir / "traces").iterdir())}

    def test_in_process(self, tmp_path):
        bench = BenchmarkSuite(suite=parse_suite(deep_suite_text()),
                               index=build_index(DEEP_CORPUS))
        assert self.run(tmp_path / "out", bench) == self.DIGESTS

    def test_bridged_over_in_process_serve(self, tmp_path, monkeypatch):
        suite_path = tmp_path / "deep.toysuite"
        suite_path.write_text(deep_suite_text(), encoding="utf-8")
        sessions = []

        class ServedSession(proofsearch.bridge.BridgeSession):
            def __init__(self, config):
                with serving(suite_path, monkeypatch):
                    super().__init__(config)
                sessions.append(self)

        monkeypatch.setattr(proofsearch.bridge, "BridgeSession", ServedSession)
        bench = BenchmarkSuite(suite=parse_suite(deep_suite_text()), environment="bridge",
                               bridge_command=["served in-process"],
                               index=build_index(DEEP_CORPUS))
        assert self.run(tmp_path / "out", bench) == self.DIGESTS
        assert len(sessions) == 1 and sessions[0]._proc.poll() == 0

    def test_progress_check_asks_only_frames_under_the_states_goals(self, tmp_path,
                                                                      monkeypatch):
        """A state at least as hard as a frame has the frame's least goal,
        so the progress check skips each frame whose least goal the new
        state lacks. The `rw e`, `rw ← e` dead ends lead back to a state on
        the stack, so the check also fires."""
        asked = []  # (new state, frame's state, answer)
        check = proofsearch.agent.at_least_as_hard

        def recording(state, frame_state):
            asked.append((state, frame_state, check(state, frame_state)))
            return asked[-1][2]

        monkeypatch.setattr(proofsearch.agent, "at_least_as_hard", recording)
        bench = BenchmarkSuite(suite=parse_suite(deep_suite_text()),
                               index=build_index(DEEP_CORPUS))
        assert self.run(tmp_path / "out", bench) == self.DIGESTS
        assert asked
        for state, frame_state, _ in asked:
            goals = {ob.goal for ob in state.obligations}
            assert frame_state.obligations[0].goal in goals
        assert any(answer for _, _, answer in asked)


class TestDamagedTraces:
    """A trace cut short is listed apart from the metrics, and a trace this
    version cannot read stops a verb with one line that names it."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        # depth 2 leaves some episodes unproved, so dropping one moves the metrics
        out = tmp_path_factory.mktemp("run")
        cli_main(["run", "--suite", str(SUITE_PATH), "--out", str(out), "--no-ensemble",
                  "--oracle-depth", "2", "--attempts", "2"])
        return out

    def copy_traces(self, run, to, skip=None):
        to.mkdir()
        for path in (run / "traces").iterdir():
            if path.name != skip:
                (to / path.name).write_bytes(path.read_bytes())
        return to

    @pytest.mark.parametrize("cut", [
        lambda text: text[:-20],  # inside the outcome line
        lambda text: text[:text.rindex('{"type": "outcome"')],  # before it
    ], ids=["inside-outcome", "before-outcome"])
    def test_cut_trace_is_left_out_of_the_metrics(self, run, tmp_path, capsys, cut):
        name = trace_file_name("imp_self", 2)
        damaged = self.copy_traces(run, tmp_path / "damaged")
        (damaged / name).write_text(cut((damaged / name).read_text(encoding="utf-8")),
                                    encoding="utf-8")
        without = self.copy_traces(run, tmp_path / "without", skip=name)
        for traces in (damaged, without):
            assert cli_main(["report", "--traces", str(traces),
                             "--out", str(tmp_path / f"{traces.name}-report")]) == 0
        capsys.readouterr()
        left, right = tmp_path / "damaged-report", tmp_path / "without-report"
        for report in ("metrics.csv", "timing.txt", "timing.csv"):
            assert (left / report).read_bytes() == (right / report).read_bytes()
        assert (left / "metrics.txt").read_text(encoding="utf-8") == (
            (right / "metrics.txt").read_text(encoding="utf-8")
            + "\nincomplete traces (excluded from metrics)\n  imp_self attempt 2\n")

    def older_schema(self, run, tmp_path, version="1"):
        traces = self.copy_traces(run, tmp_path / "traces")
        path = traces / trace_file_name("imp_self", 1)
        path.write_text(path.read_text(encoding="utf-8").replace(
            "proofsearch-trace/3", f"proofsearch-trace/{version}", 1), encoding="utf-8")
        return traces, path

    def one_line_error(self, capsys, argv) -> str:
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message, = captured.err.splitlines()
        return message

    def test_report_on_a_version_1_trace(self, run, tmp_path, capsys):
        traces, path = self.older_schema(run, tmp_path)
        out = tmp_path / "report"
        message = self.one_line_error(
            capsys, ["report", "--traces", str(traces), "--out", str(out)])
        assert message == (f"proofsearch report: {path}: trace schema 'proofsearch-trace/1' "
                           "is not supported; this version reads 'proofsearch-trace/3'")
        assert not out.exists()

    def test_report_on_a_version_2_trace(self, run, tmp_path, capsys):
        traces, path = self.older_schema(run, tmp_path, version="2")
        out = tmp_path / "report"
        message = self.one_line_error(
            capsys, ["report", "--traces", str(traces), "--out", str(out)])
        assert message == (f"proofsearch report: {path}: trace schema 'proofsearch-trace/2' "
                           "is not supported; this version reads 'proofsearch-trace/3'")
        assert not out.exists()

    def test_report_on_a_same_length_body_edit(self, run, tmp_path, capsys):
        traces = self.copy_traces(run, tmp_path / "traces")
        path = traces / trace_file_name("imp_self", 1)
        text = path.read_text(encoding="utf-8")
        at = text.index('"prompt_text": "') + len('"prompt_text": "')
        edited = text[:at] + ("x" if text[at] != "x" else "y") + text[at + 1:]
        path.write_text(edited, encoding="utf-8")
        assert edited != text and all(json.loads(line) for line in edited.splitlines())
        out = tmp_path / "report"
        message = self.one_line_error(
            capsys, ["report", "--traces", str(traces), "--out", str(out)])
        assert message == (f"proofsearch report: {path}: damaged proofsearch-trace/3 trace: "
                           "its lines do not match the crc32 on its outcome line")
        assert not out.exists()

    def test_report_on_an_unreadable_trace(self, run, tmp_path, capsys):
        traces = self.copy_traces(run, tmp_path / "traces")
        path = traces / trace_file_name("imp_self", 1)
        path.write_text('{"type": "head', encoding="utf-8")
        message = self.one_line_error(
            capsys, ["report", "--traces", str(traces), "--out", str(tmp_path / "report")])
        assert message == (f"proofsearch report: {path}: not a trace file: its first line "
                           "is not a proofsearch-trace/3 header")

    def test_report_on_a_directory_named_as_a_trace(self, run, tmp_path, capsys):
        traces = self.copy_traces(run, tmp_path / "traces")
        path = traces / "x.jsonl"
        path.mkdir()
        out = tmp_path / "report"
        message = self.one_line_error(
            capsys, ["report", "--traces", str(traces), "--out", str(out)])
        assert message == f"proofsearch report: {path}: Is a directory"
        assert not out.exists()

    def test_replay_verb_on_a_version_1_trace(self, run, tmp_path, capsys):
        _, path = self.older_schema(run, tmp_path)
        message = self.one_line_error(
            capsys, ["replay", "--trace", str(path), "--suite", str(SUITE_PATH)])
        assert message.startswith(f"proofsearch replay: {path}: trace schema "
                                  "'proofsearch-trace/1'")

    def test_replay_verb_on_an_incomplete_trace(self, run, tmp_path, capsys):
        traces = self.copy_traces(run, tmp_path / "traces")
        path = traces / trace_file_name("imp_self", 1)
        path.write_text(path.read_text(encoding="utf-8")[:-5], encoding="utf-8")
        assert cli_main(["replay", "--trace", str(path), "--suite", str(SUITE_PATH)]) == 1
        assert capsys.readouterr().out == f"imp_self: trace {path} is incomplete; nothing to verify\n"

    def test_replay_backend_on_a_version_1_trace(self, run, tmp_path, capsys):
        traces, path = self.older_schema(run, tmp_path)
        out = tmp_path / "out"
        message = self.one_line_error(
            capsys, ["run", "--suite", str(SUITE_PATH), "--out", str(out), "--no-ensemble",
                     "--backend", "replay", "--replay-dir", str(traces)])
        assert message.startswith(f"proofsearch run: {path}: trace schema "
                                  "'proofsearch-trace/1'")
        assert not out.exists()

    def test_replay_backend_on_an_incomplete_trace(self, run, tmp_path):
        traces = self.copy_traces(run, tmp_path / "traces")
        path = traces / trace_file_name("imp_self", 2)
        path.write_text(path.read_text(encoding="utf-8")[:-5], encoding="utf-8")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", "--suite", str(SUITE_PATH), "--out", str(out), "--no-ensemble",
                      "--attempts", "2", "--backend", "replay", "--replay-dir", str(traces)])
        assert exit_info.value.code == (
            f"--replay-dir {traces} has no complete trace imp_self__a2.jsonl")
        assert not out.exists()

    def test_results_from_heads_equal_results_from_loads(self, run, tmp_path, capsys):
        """`results_from_traces` reads only each trace's two ends; the
        results are those of fully loaded traces, cut and aborted ones too."""
        aborted = tmp_path / "aborted"
        cli_main(["run", "--suite", str(SUITE_PATH), "--corpus", str(CORPUS_PATH),
                  "--out", str(aborted), "--oracle-depth", "2", "--token-budget", "40"])
        capsys.readouterr()
        cut = self.copy_traces(run, tmp_path / "cut")
        for attempt, at in ((1, -20), (2, -400)):
            path = cut / trace_file_name("imp_self", attempt)
            path.write_bytes(path.read_bytes()[:at])
        for traces in (run / "traces", aborted / "traces", cut):
            expected = [result_from_trace(EpisodeTrace.load(path))
                        for path in sorted(traces.glob("*.jsonl"))]
            assert results_from_traces(traces) == expected
        assert any(r.aborted for r in results_from_traces(aborted / "traces"))
        assert sum(r.failure_reason == "incomplete" for r in results_from_traces(cut)) == 2

    def test_report_parses_two_lines_per_trace(self, run, monkeypatch):
        """A guard against parsing whole bodies again to build a report."""
        parsed = []
        loads = proofsearch.trace.json.loads

        def counting_loads(text):
            parsed.append(text)
            return loads(text)

        monkeypatch.setattr(proofsearch.trace, "json", SimpleNamespace(loads=counting_loads))
        results = results_from_traces(run / "traces")
        assert len(results) == 64 and not any(r.failure_reason == "incomplete" for r in results)
        assert len(parsed) == 2 * len(results)


class FailingBackend(GuidanceBackend):
    """A guidance backend that fails the way a bug would, not as an
    infrastructure failure, so the run stops."""

    def complete(self, request):
        raise RuntimeError("backend bug")


class TestResume:
    """`run --resume` keeps the complete traces of an interrupted run and
    runs only the episodes it lacks."""

    FLAGS = ["--corpus", str(CORPUS_PATH), "--oracle-depth", "2", "--attempts", "2"]

    def run(self, out, monkeypatch, *flags, fail_at=None):
        """A CLI run; returns the theorem of each episode it queried, in
        order. With `fail_at`, that episode's backend raises."""
        queried = []

        def backend(theorem, max_depth):
            queried.append(theorem.name)
            if len(queried) == fail_at:
                return FailingBackend()
            return oracle_scripted_backend(theorem, max_depth=max_depth)

        monkeypatch.setattr(proofsearch.cli, "oracle_scripted_backend", backend)
        cli_main(["run", "--suite", str(SUITE_PATH), "--out", str(out), *self.FLAGS, *flags])
        return queried

    def test_resumed_run_matches_an_uninterrupted_one(self, tmp_path, monkeypatch, capsys):
        whole, resumed = tmp_path / "whole", tmp_path / "resumed"
        episodes = self.run(whole, monkeypatch)
        assert len(episodes) == 64
        with pytest.raises(RuntimeError, match="backend bug"):
            self.run(resumed, monkeypatch, fail_at=30)
        assert not (resumed / "results.csv").exists()
        cut = resumed / "traces" / trace_file_name(episodes[4], 1)  # episode 5 is cut short
        cut.write_bytes(cut.read_bytes()[:-30])
        assert self.run(resumed, monkeypatch, "--resume") == [episodes[4], *episodes[29:]]
        capsys.readouterr()
        for name in ("metrics.txt", "metrics.csv"):
            assert (resumed / name).read_bytes() == (whole / name).read_bytes(), name
        assert run_digest(resumed) == run_digest(whole)

        def rows(out):  # results.csv without its wall-clock column
            lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
            column = lines[0].split(",").index("wall_seconds")
            return [line.split(",")[:column] + line.split(",")[column + 1:] for line in lines]

        assert rows(resumed) == rows(whole)

    def test_resume_reruns_aborted_episodes(self, tmp_path, monkeypatch, capsys):
        whole, resumed = tmp_path / "whole", tmp_path / "resumed"
        episodes = self.run(whole, monkeypatch)
        assert len(self.run(resumed, monkeypatch, "--bridge-cmd", "false")) == 64
        assert all(r.aborted for r in results_from_traces(resumed / "traces"))
        assert self.run(resumed, monkeypatch, "--resume") == episodes
        capsys.readouterr()
        for name in ("metrics.txt", "metrics.csv"):
            assert (resumed / name).read_bytes() == (whole / name).read_bytes(), name
        assert run_digest(resumed) == run_digest(whole)

    def test_resume_of_a_complete_run_queries_nothing(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        self.run(out, monkeypatch)
        metrics = (out / "metrics.txt").read_bytes()
        assert self.run(out, monkeypatch, "--resume") == []
        assert capsys.readouterr().out.endswith(f"40/64 episodes proved; reports written to {out}\n")
        assert (out / "metrics.txt").read_bytes() == metrics

    def test_resume_with_other_flags_stops_before_any_episode(self, tmp_path, monkeypatch,
                                                              capsys):
        out = tmp_path / "out"
        self.run(out, monkeypatch)
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in (out / "traces").iterdir()}
        assert self.run(out, monkeypatch, "--resume", "--max-queries", "16") == []
        captured = capsys.readouterr()
        first = out / "traces" / trace_file_name("imp_self", 1)
        assert captured.err == (f"proofsearch run: {first}: recorded with another search "
                                "config; resume with the flags of the run that wrote it\n")
        assert {p.name: p.read_bytes() for p in (out / "traces").iterdir()} == before
