"""Smoke tests: the quick demos run against the current API.

The demo runs in a fresh interpreter, as a user would run it, so an API
change that breaks it fails here instead of going unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_attention_views_demo_runs():
    proc = run_demo("attention_views.py")
    assert "multi-view block: (1, 6, 64) -> (1, 6, 64)" in proc.stdout
    assert "all paths on: 58,185 parameters" in proc.stdout


def test_grad_precision_demo_runs_one_seed():
    proc = run_demo("grad_precision.py", "--seeds", "1")
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("seed   0: ")
    error = float(lines[-1].removeprefix("median over 1 seeds: ").removesuffix("%"))
    assert 0.0 < error < 5.0
