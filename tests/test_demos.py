"""Each demo prints exactly its recorded stdout.

The goldens in tests/demo_output/ are the demos' stdout byte for byte; a
change that moves any printed digit must update them on purpose.
Warnings go to stderr and are not compared.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_its_golden_output(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    golden = ROOT / "tests" / "demo_output" / f"{demo.stem}.txt"
    assert done.stdout == golden.read_bytes()
