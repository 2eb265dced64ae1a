"""Command-line entry point.

Verbs:
  run     run a suite with a guidance backend and emit traces + reports
  replay  verify a trace's proof against a fresh environment session
  report  regenerate metrics reports from a directory of trace files
  oracle  run the brute-force oracle over a toy suite
"""

from __future__ import annotations

import argparse
import shlex
import sys
from dataclasses import fields
from pathlib import Path

from .agent import EpisodeTrace, SearchConfig
from .bench import (
    BenchmarkSuite,
    oracle_scripted_backend,
    replay_trace,
    results_from_traces,
    run_suite,
    write_report,
)
from .llm import (
    HttpBackend,
    HttpBackendConfig,
    RateLimiter,
    RecordingBackend,
    ReplayBackend,
)
from .retrieval import build_index, load_corpus
from .toy import ToyEnvironment, brute_force_prove, load_suite


# SearchConfig fields whose flag is not the field name in kebab case, and
# argparse settings beyond the field's type and default
_FLAG_DESTS = {"wall_timeout_seconds": "timeout"}
_FLAG_EXTRAS = {
    "wall_timeout_seconds": {"help": "wall-clock timeout in seconds per episode"},
    "prompt_style": {"choices": ["lean", "coq"]},
}


def _add_config_flags(parser: argparse.ArgumentParser):
    for f in fields(SearchConfig):
        flag = "--" + _FLAG_DESTS.get(f.name, f.name).replace("_", "-")
        parser.add_argument(flag, type=type(f.default), default=f.default,
                            **_FLAG_EXTRAS.get(f.name, {}))


def _config_from(args) -> SearchConfig:
    return SearchConfig(**{
        f.name: getattr(args, _FLAG_DESTS.get(f.name, f.name)) for f in fields(SearchConfig)
    })


def cmd_run(args) -> int:
    suite = load_suite(args.suite)
    index = build_index(load_corpus(args.corpus)) if args.corpus else None
    bench = BenchmarkSuite(
        suite=suite,
        name=Path(args.suite).stem,
        environment=args.env,
        bridge_command=shlex.split(args.bridge_cmd) if args.bridge_cmd else None,
        index=index,
    )
    config = _config_from(args)
    out_dir = Path(args.out)
    record_dir = out_dir / "completions"
    limiter = RateLimiter(args.rate_limit)  # one spacing across all episodes

    def backend_factory(theorem, attempt):
        if args.backend == "oracle":
            backend = oracle_scripted_backend(theorem, max_depth=args.oracle_depth)
            if backend is None:
                print(f"warning: oracle found no proof for {theorem.name}", file=sys.stderr)
                backend = _empty_backend()
        elif args.backend == "replay":
            backend = ReplayBackend(
                Path(args.replay_dir) / f"{theorem.name}__a{attempt}.jsonl"
            )
        else:
            if not args.base_url or not args.model:
                raise SystemExit("--base-url and --model are required for the http backend")
            backend = HttpBackend(
                HttpBackendConfig(
                    base_url=args.base_url,
                    model=args.model,
                    api_key_env=args.api_key_env,
                    requests_per_second=args.rate_limit,
                ),
                limiter,
            )
        if args.record:
            backend = RecordingBackend(
                backend, record_dir / f"{theorem.name}__a{attempt}.jsonl"
            )
        return backend

    results = run_suite(
        bench, config, out_dir, backend_factory,
        attempts=args.attempts, ensemble=not args.no_ensemble,
    )
    write_report(results, out_dir)
    proved = sum(1 for r in results if r.proved)
    print(f"{proved}/{len(results)} episodes proved; reports written to {out_dir}")
    return 0


def _empty_backend():
    from .llm import SequenceBackend

    return SequenceBackend([], default="")


def cmd_replay(args) -> int:
    trace = EpisodeTrace.load(args.trace)
    suite = load_suite(args.suite)
    env = ToyEnvironment(suite.theorem(trace.theorem))
    if trace.outcome is None or not trace.outcome.proved:
        print(f"{trace.theorem}: trace reports no proof; nothing to verify")
        return 1
    if replay_trace(trace, env):
        print(f"{trace.theorem}: proof replays to QED "
              f"({len(trace.outcome.proof)} tactics)")
        return 0
    print(f"{trace.theorem}: proof does NOT replay to QED")
    return 1


def cmd_report(args) -> int:
    results = results_from_traces(args.traces)
    if not results:
        print(f"no trace files under {args.traces}", file=sys.stderr)
        return 1
    n_grid = tuple(args.n_grid) if args.n_grid else None
    kwargs = {"n_grid": n_grid} if n_grid else {}
    write_report(results, args.out, attempts_grid=tuple(args.k_grid), **kwargs)
    print(f"reports written to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    suite = load_suite(args.suite)
    found = 0
    for theorem in suite.theorems.values():
        proof = brute_force_prove(theorem, args.max_depth)
        if proof is None:
            print(f"{theorem.name}\tunproved\t")
        else:
            found += 1
            print(f"{theorem.name}\tproved\t{'; '.join(proof)}")
    print(f"# {found}/{len(suite.theorems)} proved within depth {args.max_depth}",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proofsearch",
        description="LLM-guided backtracking proof search with an offline toy prover",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmark suite")
    run.add_argument("--suite", required=True)
    run.add_argument("--corpus", help="lemma corpus file enabling retrieval stages")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--backend", choices=["oracle", "replay", "http"], default="oracle")
    run.add_argument("--replay-dir", help="recorded completions for --backend replay")
    run.add_argument("--record", action="store_true",
                     help="record completions for later replay")
    run.add_argument("--oracle-depth", type=int, default=6)
    run.add_argument("--attempts", type=int, default=1)
    run.add_argument("--no-ensemble", action="store_true",
                     help="single plain-search stage instead of the staged ensemble")
    run.add_argument("--env", choices=["toy", "bridge"], default="toy")
    run.add_argument("--bridge-cmd", help="adapter command line for --env bridge")
    run.add_argument("--base-url", help="chat-completions base URL (http backend)")
    run.add_argument("--model", help="model id (http backend)")
    run.add_argument("--api-key-env", default="PROOFSEARCH_API_KEY")
    run.add_argument("--rate-limit", type=float, help="max requests per second")
    _add_config_flags(run)
    run.set_defaults(func=cmd_run)

    replay = sub.add_parser("replay", help="verify a trace's proof")
    replay.add_argument("--trace", required=True)
    replay.add_argument("--suite", required=True)
    replay.set_defaults(func=cmd_replay)

    report = sub.add_parser("report", help="metrics from trace files")
    report.add_argument("--traces", required=True)
    report.add_argument("--out", required=True)
    report.add_argument("--k-grid", type=int, nargs="+", default=[1])
    report.add_argument("--n-grid", type=int, nargs="+")
    report.set_defaults(func=cmd_report)

    oracle = sub.add_parser("oracle", help="brute-force oracle over a toy suite")
    oracle.add_argument("--suite", required=True)
    oracle.add_argument("--max-depth", type=int, default=6)
    oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
