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

from .agent import SearchConfig
from .bench import (
    BenchmarkSuite,
    ResumeError,
    oracle_scripted_backend,
    replay_trace,
    results_from_traces,
    run_suite,
    trace_file_name,
    write_report,
)
from .llm import (
    HttpBackend,
    HttpBackendConfig,
    RateLimiter,
    ReplayBackend,
    ScriptedBackend,
)
from .retrieval import build_index, load_corpus
from .toy import ToyEnvironment, load_suite
from .toy.oracle import brute_force_prove
from .trace import EpisodeTrace, TraceFormatError


# SearchConfig fields whose flag is not the field name in kebab case, and
# argparse settings beyond the field's type and default
_FLAG_DESTS = {"wall_timeout_seconds": "timeout"}
_FLAG_EXTRAS = {
    "wall_timeout_seconds": {"help": "wall-clock timeout in seconds per episode"},
    "prompt_style": {"choices": ["lean", "coq"]},
}


def _flag(name: str) -> str:  # of a SearchConfig field
    return "--" + _FLAG_DESTS.get(name, name).replace("_", "-")


def _add_config_flags(parser: argparse.ArgumentParser):
    for f in fields(SearchConfig):
        parser.add_argument(_flag(f.name), type=type(f.default), default=f.default,
                            **_FLAG_EXTRAS.get(f.name, {}))


def _config_from(args) -> SearchConfig:
    try:
        return SearchConfig(**{
            f.name: getattr(args, _FLAG_DESTS.get(f.name, f.name)) for f in fields(SearchConfig)
        })
    except ValueError as exc:  # "<field> must be ...": name its flag instead
        name, _, rule = str(exc).partition(" ")
        raise SystemExit(f"{_flag(name)} {rule}") from None


def _read(flag: str, path: str, load):
    """`load(path)`, or a one-line exit naming the flag and its unreadable file."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{flag} {path}: {getattr(exc, 'strerror', None) or exc}") from None


def cmd_run(args) -> int:
    if args.attempts < 1:  # these checks come before any output
        raise SystemExit("--attempts must be >= 1")
    if args.oracle_depth is not None and args.oracle_depth < 1:
        raise SystemExit("--oracle-depth must be >= 1")
    if args.rate_limit is not None and args.rate_limit <= 0:
        raise SystemExit("--rate-limit must be > 0")
    # each backend's flags: whether it needs them, and that no other backend is given them
    for backend, dest, required in [("replay", "replay_dir", True), ("http", "base_url", True),
                                    ("http", "model", True), ("http", "rate_limit", False),
                                    ("http", "api_key_env", False),
                                    ("oracle", "oracle_depth", False)]:
        flag = "--" + dest.replace("_", "-")
        if args.backend == backend and required and not getattr(args, dest):
            raise SystemExit(f"{flag} is required for --backend {backend}")
        if args.backend != backend and getattr(args, dest) is not None:
            raise SystemExit(f"{flag} needs --backend {backend}")
    oracle_depth = 6 if args.oracle_depth is None else args.oracle_depth
    api_key_env = "PROOFSEARCH_API_KEY" if args.api_key_env is None else args.api_key_env
    config = _config_from(args)
    suite = _read("--suite", args.suite, load_suite)
    recorded = {}
    if args.backend == "replay":  # every episode's trace, before any output
        for theorem in suite.theorems.values():
            for attempt in range(1, args.attempts + 1):
                name = trace_file_name(theorem.name, attempt)
                path = Path(args.replay_dir) / name
                if not path.is_file():
                    raise SystemExit(f"--replay-dir {args.replay_dir} has no trace {name}")
                trace = recorded[name] = EpisodeTrace.load(path)
                if trace.incomplete:
                    raise SystemExit(f"--replay-dir {args.replay_dir} has no complete trace {name}")
                if trace.config != config.to_dict():
                    raise SystemExit(f"--replay-dir {args.replay_dir}: {name} was recorded with "
                                     "another search config; replay with the flags of the run "
                                     "that wrote it")
    index = build_index(_read("--corpus", args.corpus, load_corpus)) if args.corpus else None
    bench = BenchmarkSuite(
        suite=suite,
        name=Path(args.suite).stem,
        environment="bridge" if args.bridge_cmd else "toy",
        bridge_command=shlex.split(args.bridge_cmd) if args.bridge_cmd else None,
        index=index,
    )
    out_dir = Path(args.out)
    limiter = RateLimiter(args.rate_limit)  # one spacing across all episodes

    def backend_factory(theorem, attempt):
        if args.backend == "oracle":
            backend = oracle_scripted_backend(theorem, max_depth=oracle_depth)
            if backend is None:
                print(f"warning: oracle found no proof for {theorem.name}", file=sys.stderr)
                backend = ScriptedBackend({})
        elif args.backend == "replay":
            backend = ReplayBackend(recorded[trace_file_name(theorem.name, attempt)])
        else:
            backend = HttpBackend(
                HttpBackendConfig(
                    base_url=args.base_url,
                    model=args.model,
                    api_key_env=api_key_env,
                ),
                limiter,
            )
        return backend

    results = run_suite(
        bench, config, out_dir, backend_factory,
        attempts=args.attempts, ensemble=not args.no_ensemble, resume=args.resume,
    )
    write_report(results, out_dir)
    proved = sum(1 for r in results if r.proved)
    print(f"{proved}/{len(results)} episodes proved; reports written to {out_dir}")
    if results and all(r.aborted for r in results):
        print(f"all {len(results)} episodes aborted; see {out_dir / 'results.csv'}",
              file=sys.stderr)
        return 1
    return 0


def cmd_replay(args) -> int:
    try:
        trace = EpisodeTrace.load(args.trace)
    except OSError as exc:  # not `_read`: a TraceFormatError goes on to `main`
        raise SystemExit(f"--trace {args.trace}: {exc.strerror or exc}") from None
    if trace.incomplete:
        print(f"{trace.theorem}: trace {args.trace} is incomplete; nothing to verify")
        return 1
    suite = _read("--suite", args.suite, load_suite)
    if trace.theorem not in suite.theorems:
        raise SystemExit(f"--suite {args.suite} has no theorem {trace.theorem}, "
                         f"the theorem of --trace {args.trace}")
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
    for flag in ("k_grid", "n_grid"):
        if min(getattr(args, flag) or [1]) < 1:  # before any output
            raise SystemExit(f"--{flag.replace('_', '-')} values must be >= 1")
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
    if args.max_depth < 1:
        raise SystemExit("--max-depth must be >= 1")
    suite = _read("--suite", args.suite, load_suite)
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
    run.add_argument("--replay-dir", help="an earlier run's traces/ directory for --backend replay")
    run.add_argument("--oracle-depth", type=int, help="oracle search depth (default 6)")
    run.add_argument("--attempts", type=int, default=1)
    run.add_argument("--no-ensemble", action="store_true",
                     help="one stage, labelled plain, instead of the staged ensemble; "
                          "it retrieves when --corpus is given")
    run.add_argument("--bridge-cmd",
                     help="adapter command line; the run then steps tactics through it")
    run.add_argument("--base-url", help="chat-completions base URL (http backend)")
    run.add_argument("--model", help="model id (http backend)")
    run.add_argument("--api-key-env",
                     help="environment variable holding the API key (default PROOFSEARCH_API_KEY)")
    run.add_argument("--rate-limit", type=float, help="max requests per second")
    run.add_argument("--resume", action="store_true",
                     help="keep each episode whose trace under --out is complete and not "
                          "aborted, and run only the others")
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
    try:
        return args.func(args)
    except (TraceFormatError, ResumeError) as exc:  # one line, not a traceback
        print(f"proofsearch {args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a file, directory or command the verb could not use
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"proofsearch {args.command}: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
