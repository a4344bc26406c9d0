"""The benchmark harness runs against this checkout.

``perfbench/tracer.py`` binds program functions by name, so deleting or
renaming one of them breaks the benchmark; its self-test catches that.  One
checked, traced repetition of each workload catches what the self-test does
not: a wrong output, or a tracer counter that reads a field the program no
longer has.
"""

import json
import subprocess
import sys

import pytest

from conftest import REPO_ROOT


def test_perfbench_selftest_passes():
    run = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=REPO_ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "0 failed checks" in run.stdout, run.stdout


@pytest.mark.parametrize("workload", ["threshold", "groundstate", "continuation"])
def test_traced_workload_repetition_is_correct(tmp_path, workload):
    out = tmp_path / f"{workload}.json"
    run = subprocess.run(
        [sys.executable, "perfbench/worker.py", "op", "--workload", workload,
         "--workdir", str(tmp_path), "--out", str(out), "--trace", "1"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    result = json.loads(out.read_text())
    assert result["ops"] and all(op["ok"] for op in result["ops"]), result["ops"]
    assert result["failures"] == {}
