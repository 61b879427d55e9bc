"""sqluq benchmark: runs one workload and prints its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload planted-train --seed 0 --seconds 30 --trace 0

Workloads are planted-train, serve and wide-deep (see workloads.py).  With
--trace 0 the run reports the end-to-end metrics, measured with tracing
off.  With --trace 1 it wraps sqluq's entry points in spans and reports the
per-layer metrics.  Every metric is printed as "name = value unit"; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is non-zero when an output
check fails.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Single-threaded native code, pinned before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path("src")
RUN_DIR = Path(".perfbench")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("planted-train", "serve", "wide-deep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sqluq" / "__init__.py").is_file():
        print(f"error: {SRC / 'sqluq'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))
    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), RUN_DIR)


if __name__ == "__main__":
    sys.exit(main())
