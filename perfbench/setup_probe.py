"""Time one workload's library set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

The clock covers ``import alglat`` and the workload's set-up (its library
imports, rings and one warm-up call); it leaves out interpreter start-up and
the generation of the warm-up input.  The host-speed kernel is timed right
after, so run.py can scale the set-up time to the host's uncontended speed.
Prints {"setup_s": ..., "kernel_s": ...} on stdout.  run.py starts this
script several times per timed run.
"""

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import alglat  # noqa: F401

    t1 = time.perf_counter()
    import workloads

    w = workloads.WORKLOADS[name](seed)
    warm = w.make_input(workloads.WARMUP_INDEX)
    t2 = time.perf_counter()
    w.setup(warm)
    t3 = time.perf_counter()
    import hostspeed

    hostspeed.kernel()  # first call loads LAPACK
    kernel_s = statistics.median(hostspeed.time_kernel() for _ in range(15))
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2), "kernel_s": kernel_s}))


if __name__ == "__main__":
    main()
