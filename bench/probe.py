"""Set-up probe: import tensortopo, parse a workload's strata and make one
warm-up call, then print the seconds that took.

    python3 bench/probe.py <workload>

Run in a fresh interpreter so that the import is really paid.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tensortopo as tt  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    name = sys.argv[1]
    for text in workloads.strata(name):
        tt.parse_stratum(text)
    workloads.warm_up(tt, name)
    print(f"{time.perf_counter() - START:.6f}")
