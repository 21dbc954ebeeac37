"""The names the benchmark harness imports from manner still exist.

perfbench/worker.py wraps module attributes by name at run time, so a
renamed or deleted name breaks the benchmark, not the program. This test
runs what its traced jobs install, in a fresh interpreter from the repo
root, so that such a change fails here first.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import worker
import tracing
import manner.tensor as tensor

worker.install_tracer(tracing.Tracer())
for workload in ("enhance-short", "train-step"):
    worker.install_op_clock(workload, worker.OpClock(None))

from manner.tensor import meter
meter.reset_peak()
int(meter.peak)
# neg is a stale entry of tracing.POINTWISE; tensor.neg is gone
missing = [n for n in tracing.POINTWISE if n != "neg" and not hasattr(tensor, n)]
assert not missing, missing
print("ok")
"""


def test_perfbench_worker_finds_every_name_it_wraps():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
