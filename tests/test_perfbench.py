"""The benchmark harness's own self-test, run as part of the test suite.

perfbench/tracing.py wraps exacthom's classes from outside by replacing
entries of each class's own namespace, so a refactor that moves one of
those methods into a base class breaks the benchmark; this catches it.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
