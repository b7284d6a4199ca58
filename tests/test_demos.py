"""Smoke test of the demos: each script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cominuscule

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(cominuscule.__file__).resolve().parents[1])


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": SRC if not path else SRC + os.pathsep + path}
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=demo.parent,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
