"""Set-up probe: import weylgas in a fresh process and run one workload's
warm-up calls, which finish any lazy first-call set-up.  ``run.py`` times
this script from the outside for ``setup_s``.

    python3 perfbench/probe.py box-lattice
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import weylgas  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].warmup()
