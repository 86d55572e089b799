"""Time one workload's set-up in a fresh interpreter.

``python3 perfbench/setup_probe.py <workload> <seed>`` prints the host
seconds from the first line of this script to the point just before the
workload's first simulating call, through the workload's own ``setup``:
repro imports, elaboration, ``compile_system``, ``load_default_table``
and fuzz configurations, whichever the workload does.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    from perfbench.workloads import WORKLOADS
    workload = WORKLOADS[argv[0]]
    workload.setup(workload.inputs(int(argv[1])))
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main(sys.argv[1:])
