"""Smoke tests: the quick demos run against the current API.

The demo runs in a fresh interpreter, as a user would run it, so an API
change that breaks it fails here instead of going unnoticed.
"""

import os
import re
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


def test_step_hashes_demo_prints_every_digest():
    """The bit-identity instrument runs end to end. Its digests are not
    pinned here: they are compared against a parent tree by hand."""
    lines = run_demo("step_hashes.py").stdout.splitlines()
    digest = "[0-9a-f]{64}"
    assert lines[0].startswith("loss ") and float(lines[0].removeprefix("loss ")) > 0.0
    assert re.fullmatch(f"step {digest}", lines[1])
    assert re.fullmatch(f"eval {digest}", lines[2])
    files = [line.split() for line in lines if line.startswith("tempo=")]
    assert all(re.fullmatch(digest, words[2]) for words in files)
    assert [words[:2] for words in files] == [
        [f"tempo={tempo}", name] for tempo in ("no", "yes")
        for name in ("train_log.txt", "last.ckpt", "best.ckpt")]
