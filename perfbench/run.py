"""Run one seeded workload of the qrobust benchmark and print its metrics.

    python3 perfbench/run.py --workload opa-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src.
One process, one op at a time (a closed loop with one client), BLAS
pinned to one thread.  The timed loop cycles through the workload's
seeded ops until --seconds have passed; every output is then checked
independently, outside the timed window.  --trace 0 prints the
end-to-end metrics; --trace 1 runs the window twice, first untraced and
then with span wrappers installed, and prints the per-layer metrics
(the two throughputs give the tracing overhead).  The last line of
stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A record of the run
(environment, inputs, failures, spans) is written under .perfbench_out/.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("opa-sweep", "loose-multimode", "tight-lowmode", "oracle-suite",
             "oracle-unscreened")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, warm up, print the set-up time and exit")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qrobust" / "__init__.py").is_file():
        sys.stderr.write(f"error: program source not found at {SRC}/qrobust; "
                         "run from the root of a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import qrobust
    if Path(qrobust.__file__).resolve().parent != (SRC / "qrobust").resolve():
        sys.stderr.write(f"error: imported qrobust from {qrobust.__file__}, not {SRC}\n")
        return 2
    import bench
    return bench.run(args, T_START)


if __name__ == "__main__":
    sys.exit(main())
