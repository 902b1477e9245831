"""The demos run to completion.

Each runs as its own subprocess with `src` on PYTHONPATH, as the README
shows.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "01_flow_basics.py",
    "02_mixed_speeds.py",
    "03_resolvent.py",
    "04_irrational_speeds.py",
    "05_absorption.py",
    "06_infinite_path.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
