"""Run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload search-enum --seed 1 --seconds 30 --trace 0

Prints every metric by name with its unit, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the run is traced and
the metrics are the per-layer ones. Exits 1 when a check fails and 2 when
the program's sources are not beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "proofsearch" / "__init__.py").is_file():
        print(f"error: no proofsearch sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    # the loopback adapter runs in a child interpreter that needs them too
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    from perfbench import harness
    from perfbench.spans import dump

    if args.workload != "all" and args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(harness.WORKLOADS)} or all")
    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        out = ROOT / "perfbench" / "out" / name
        run = harness.run_workload(harness.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), out)
        if args.trace:
            metrics = harness.per_layer(run)
            dump(run.last_spans, out / "spans.jsonl")
        else:
            metrics = harness.end_to_end(run)
        attempted, failed = harness.attempted_episodes(run), harness.failed_episodes(run)
        problems = list(run.problems)
        if failed:
            problems.append(f"{failed} of {attempted} episodes not proved")
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        print(f"# {name}: seed {args.seed}, {len(run.rounds)} rounds, "
              f"{attempted} episodes attempted, {failed} failed")
        for metric, (value, unit) in metrics.items():
            print(f"{metric:40s} {value:16.6f} {unit}")
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
        }))
        status = status or (1 if problems else 0)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
