"""One round of each benchmark workload passes its oracle checks.

``perfbench/run.py --seconds 0`` runs exactly one round, so a library
change that breaks a benchmark check fails here, in a few seconds per
workload, rather than in a full benchmark run.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["box-lattice", "continuum-thermal", "algebra-phase-space"])
def test_one_benchmark_round_passes(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
    assert json.loads(run.stdout.splitlines()[-1])["failed"] == 0
