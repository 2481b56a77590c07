"""Smoke test: the scripts under ``scripts/`` run to completion, and the
battery visits the work it visited when its counters were pinned.  The
sizing harness runs the ``truth`` workload against its own checkout."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script -> fields of its last output line, which a change to what the
# search visits would alter
PINNED = {"battery.py": {
    "sequents": 197, "found": 0, "frames": 788, "frames_unrooted": 1182,
    "const_vectors": 788, "interpretations": 9760, "passes": 394, "cell_plans": 10,
    "cell_plan_hits": 384}}


@pytest.mark.parametrize("argv", [
    ["search_demo.py"],
    ["curry_demo.py"],
    ["reduction_stats.py", "--size", "20"],
    ["battery.py", "--bounds", "2", "1"],
    ["ab_rounds.py", str(ROOT), str(ROOT), "--workload", "truth", "--rounds", "2"],
])
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    pinned = PINNED.get(argv[0])
    if pinned:
        got = json.loads(done.stdout.splitlines()[-1])
        assert {k: got[k] for k in pinned} == pinned
