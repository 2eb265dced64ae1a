"""The benchmark harness's own tests pass against this source tree.

`perfbench` patches functions of `src/` by name to time them, so renaming
one of them breaks the harness. Its tests run here, in a child process:
`tests/` and `perfbench/tests` each have a `conftest` that their tests
import by name, so the two directories cannot share one pytest session.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tests_pass():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
