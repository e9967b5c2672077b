import os
import subprocess
import sys
from pathlib import Path

import pytest

import tauforge

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(tauforge.__file__).resolve().parent.parent)
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
