"""Each demo script runs to completion against this checkout's sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SLOW = {"05_train_synthetic.py"}   # a 4000-step fit; the others take about a second


def demo_params():
    for path in sorted((ROOT / "demos").glob("*.py")):
        marks = [pytest.mark.slow] if path.name in SLOW else []
        yield pytest.param(path, id=path.stem, marks=marks)


@pytest.mark.parametrize("path", demo_params())
def test_demo_runs(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
