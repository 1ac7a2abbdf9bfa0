"""The benchmark harness's self-test passes against the package as it is.

``bench/selftest.py`` drives the CLI on tiny inputs, with and without
tracing, and fails when a traced name, a counter or the numerator memo it
clears no longer matches the package.  Running it here makes such a change
fail the test suite, not only a later benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "selftest passed" in done.stdout
