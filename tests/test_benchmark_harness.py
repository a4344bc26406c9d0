"""The benchmark harness's self-test passes against this checkout.

``perfbench/tracer.py`` binds program functions by name, so deleting or
renaming one of them breaks the benchmark; its self-test catches that.
"""

import subprocess
import sys

from conftest import REPO_ROOT


def test_perfbench_selftest_passes():
    run = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=REPO_ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "0 failed checks" in run.stdout, run.stdout
