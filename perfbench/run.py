"""Benchmark entry point: one workload, one run, in a fresh single-threaded process.

    python3 perfbench/run.py --workload case1_ladder --seed 1 --seconds 30 --trace 0

Workloads: case1_ladder, case4_compare, scatter_dominated (see workloads.py).
The run happens in a child process started with the BLAS/OpenMP thread
variables set to 1 and RTE_THREADS unset, so every run sees the same
single-threaded numpy; the child's stdout, whose last line is the JSON
result, is passed through unchanged and its exit code returned.
"""

import os
import subprocess
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# A run must end within 180 s; the worker stops starting passes at --seconds.
TIMEOUT_S = 175


def main():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env.pop("RTE_THREADS", None)
    worker = Path(__file__).resolve().with_name("worker.py")
    try:
        proc = subprocess.run([sys.executable, str(worker), *sys.argv[1:]], env=env, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
