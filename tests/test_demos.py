"""Smoke test: the quick demo runs against the current API.

The demo runs in a fresh interpreter, as a user would run it, so an API
change that breaks it fails here instead of going unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_attention_views_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "attention_views.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "multi-view block: (1, 6, 64) -> (1, 6, 64)" in proc.stdout
    assert "all paths on: 58,185 parameters" in proc.stdout
