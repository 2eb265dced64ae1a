"""Benchmark harness: metrics arithmetic, aggregate statistics, report
rendering and regeneration, the suite runner, and the CLI verbs."""

import random
import re
import sys

import pytest

from proofsearch.bench import (
    BenchmarkSuite,
    oracle_scripted_backend,
    render_metrics_csv,
    render_metrics_text,
    render_timing_text,
    replay_trace,
    results_from_traces,
    run_suite,
    write_report,
    write_results_csv,
)
import proofsearch.bridge
import proofsearch.cli
from proofsearch.agent import REASON_INFRASTRUCTURE, EpisodeTrace, SearchConfig
from proofsearch.cli import main as cli_main
from proofsearch.llm import SequenceBackend
from proofsearch.metrics import (
    EpisodeResult,
    aggregate_stats,
    build_report,
    pass_at_k_seconds,
    pass_at_k_with_n_queries,
)
from proofsearch.toy import ToyEnvironment, brute_force_prove, parse_suite

from conftest import CORPUS_PATH, SUITE_PATH


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

    def test_empty_returns_zero_with_warning(self):
        with pytest.warns(UserWarning):
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
        stats = aggregate_stats(
            [result("a", True), result("b", False, aborted=True)]
        )
        assert stats.episodes == 1
        assert stats.aborted == 1


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
                   category="algebra", trace_path="traces/alpha__a1.jsonl"),
            result("beta", False, queries=0, seconds=0.5, attempt=2, aborted=True),
            result("gamma", False, queries=7, seconds=2.0, category=None),
        ]
        path = tmp_path / "results.csv"
        write_results_csv(results, path)
        assert path.read_text(encoding="utf-8") == (
            "theorem,attempt,proved,queries_used,wall_seconds,stage,category,aborted\n"
            "alpha,1,1,3,1.235,retrieval,algebra,0\n"
            "beta,2,0,0,0.500,plain,,1\n"
            "gamma,1,0,7,2.000,plain,,0\n"
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
    """Every BridgeSession the runner starts, kept for inspection."""
    sessions = []

    class RecordedSession(proofsearch.bridge.BridgeSession):
        def __init__(self, config):
            super().__init__(config)
            sessions.append(self)

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


class TestBridgedRunSuite:
    def test_no_adapter_outlives_its_episode(self, tmp_path, recorded_sessions):
        suite_path = tmp_path / "two.toysuite"
        suite_path.write_text(TWO_THEOREMS, encoding="utf-8")
        command = [sys.executable, "-m", "proofsearch.bridge_adapter", str(suite_path)]
        _, results = bridged_run(
            tmp_path, command, lambda theorem, attempt: oracle_scripted_backend(theorem)
        )
        assert [r.proved for r in results] == [True, True]
        assert len(recorded_sessions) == 2  # one spawn per episode
        assert all(s._proc.poll() is not None for s in recorded_sessions)
        assert all(s._proc.stdin.closed for s in recorded_sessions)

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
        from proofsearch.toy import parse_suite

        theorem = parse_suite("theorem q\n  goal Q\nend\n").theorem("q")
        assert oracle_scripted_backend(theorem, max_depth=3) is None


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

    def test_bridge_env_needs_bridge_cmd(self, tmp_path):
        message = self.run_without(tmp_path, ["--env", "bridge"])
        assert message == "--bridge-cmd is required for --env bridge"

    def test_http_backend_needs_base_url_and_model(self, tmp_path):
        message = self.run_without(tmp_path, ["--backend", "http", "--base-url", "http://x"])
        assert message == "--model is required for --backend http"

    @pytest.mark.parametrize("flags, expected", [
        (["--attempts", "0"], "--attempts must be >= 1"),
        (["--oracle-depth", "0"], "--oracle-depth must be >= 1"),
        (["--rate-limit", "-2"], "--rate-limit must be > 0"),
        (["--max-queries", "0"], "--max-queries must be >= 1"),
        (["--timeout", "0"], "--timeout must be > 0"),
        (["--format-retry-cap", "-1"], "--format-retry-cap must be >= 0"),
        (["--backend", "replay", "--replay-dir", "no-such-run/traces"],
         "--replay-dir no-such-run/traces has no trace imp_self__a1.jsonl"),
    ], ids=["attempts", "oracle-depth", "rate-limit", "max-queries", "timeout",
            "format-retry-cap", "replay-dir"])
    def test_bad_flag_value_rejected(self, tmp_path, flags, expected):
        assert self.run_without(tmp_path, flags) == expected

    def test_replay_needs_every_attempts_trace(self, tmp_path, capsys):
        first = tmp_path / "first"
        cli_main(["run", "--suite", str(SUITE_PATH), "--out", str(first), "--no-ensemble"])
        capsys.readouterr()
        message = self.run_without(
            tmp_path, ["--backend", "replay", "--replay-dir", str(first / "traces"),
                       "--attempts", "2"])
        assert message == f"--replay-dir {first / 'traces'} has no trace imp_self__a2.jsonl"

    def run_twice(self, tmp_path, flags, replay_flags=()):
        """A run, then a replay of it from its traces; returns both output
        directories."""
        out1, out2 = tmp_path / "first", tmp_path / "second"
        cli_main(["run", "--suite", str(SUITE_PATH), "--out", str(out1), *flags])
        code = cli_main(
            ["run", "--suite", str(SUITE_PATH), "--out", str(out2), *flags,
             "--backend", "replay", "--replay-dir", str(out1 / "traces"), *replay_flags]
        )
        assert code == 0
        return out1, out2

    def test_record_then_replay_backend(self, tmp_path, capsys):
        out1, out2 = self.run_twice(tmp_path, ["--corpus", str(CORPUS_PATH), "--attempts", "2",
                                               "--oracle-depth", "4"])
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

    def test_replay_of_a_different_question_aborts(self, tmp_path, capsys):
        out1, out2 = self.run_twice(tmp_path, ["--corpus", str(CORPUS_PATH), "--no-ensemble"],
                                    ["--k-retrieve", "1"])
        assert "0/32 episodes proved" in capsys.readouterr().out
        for path in sorted((out2 / "traces").iterdir()):
            trace = EpisodeTrace.load(path)
            assert trace.aborted
            assert trace.notes == ["infrastructure failure: replay mismatch at query 1"]

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
            note, = EpisodeTrace.load(r.trace_path).notes
            assert note.startswith("infrastructure failure: token budget 40 cannot fit")
