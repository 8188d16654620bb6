"""Set-up of one workload in a fresh interpreter: import ptb.cli, then make
and validate the workload's inputs.  run.py times this process from outside.

    python3 perfbench/setup_probe.py <workload> <seed> <out_dir>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ptb.cli  # noqa: E402,F401  (first, so -X importtime sees its full cost)

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    WORKLOADS[name](seed, out_dir).validate()
