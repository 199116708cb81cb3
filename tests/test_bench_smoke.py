"""The benchmark harness runs every workload end to end in its smoke mode."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke():
    res = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
                         cwd=ROOT, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    lines = [line for line in res.stdout.splitlines() if line.startswith("smoke ")]
    assert lines  # one line per workload, untraced and traced
    assert all("correct=True" in line for line in lines), res.stdout
