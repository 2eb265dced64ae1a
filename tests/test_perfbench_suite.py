"""The benchmark harness against this source tree: its own tests pass, and
every per-layer span a workload is judged by measures something.

`perfbench` patches functions of `src/` by name to time them, so renaming
one of them breaks the harness. Its tests run here, in a child process:
`tests/` and `perfbench/tests` each have a `conftest` that their tests
import by name, so the two directories cannot share one pytest session.

A call that bypasses the name perfbench patches (a local import, a
function kept under another name) leaves its span at 0 calls without any
error, and perfbench's own tests still pass. So a tiny traced run of each
workload is checked here too.
"""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # perfbench sits beside src/
    sys.path.append(str(ROOT))

from perfbench import harness  # noqa: E402

# The layers perfbench/README.md names for each workload. Left out:
# `metrics.trace_load`, which reads 0 on every workload because reports
# read trace heads through `EpisodeTrace.load_head`, which perfbench does
# not wrap (an open `FOUND:` line in CHANGES.md names this).
# `agent.search` and `agent.ensemble_prove` are spans perfbench puts on
# `prove` and `ensemble_prove`, which read 0 if `ensemble_prove` stopped
# calling `prove` through `proofsearch.agent`.
SEARCH = ("agent.search.self_ms", "agent.ensemble_prove.self_ms")
LAYERS = {
    "search-enum": ("prompts.promptify.calls", "prompts.parse_tactic.calls",
                    "toy.apply_tactic.calls", "core.canonical_key.calls",
                    "bench.trace_save.calls", "llm.complete.calls", *SEARCH),
    "retrieval-corpus": ("retrieval.retrieve.calls", *SEARCH),
    "bridge-loopback": ("bridge.call.calls", "bridge.spawns", *SEARCH),
}


def test_perfbench_tests_pass():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]


@pytest.mark.parametrize("name", list(LAYERS))
def test_every_layer_of_a_workload_counts_calls(tmp_path, name):
    workload = replace(harness.WORKLOADS[name], theorems=3, records=400, min_episodes=1)
    run = harness.run_workload(workload, 5, 0.0, True, tmp_path)
    assert run.problems == []
    metrics = harness.per_layer(run)
    assert [layer for layer in LAYERS[name] if metrics[layer][0] == 0] == []
