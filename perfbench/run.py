"""Entry point of the benchmark; see harness.py and README.md.

Run from the repository root::

    python3 perfbench/run.py --workload mapping_loop --seed 1 --seconds 25 --trace 0

BLAS/OpenMP threads are capped at the CPUs this process may use before
NumPy is imported.  Exits with code 2, printing no result, when the
program under ``src/`` cannot be imported.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(int(os.environ.get(var, nproc)), nproc))
    return nproc


if __name__ == "__main__":
    nproc = cap_threads()
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    try:
        import harness
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(harness.main(nproc))
