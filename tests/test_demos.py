"""The narrative demos run in fresh interpreters."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def run_python(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


@pytest.mark.parametrize("name", ["01_build_collection.py", "02_cohomology_oracle.py",
                                  "03_forbidden_cones.py", "04_generation_certificate.py"])
def test_demo_runs_cleanly(name):
    proc = run_python(str(DEMOS / name))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
