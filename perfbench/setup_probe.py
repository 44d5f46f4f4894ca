"""Set-up time of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD INPUT_DIR

Times `import pdflow` (with numpy) plus the problem, parameter and start
resolution the workload does before its first solver call, and prints the
seconds.  `perfbench/run.py` starts it several times and reports the median.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports numpy and pdflow)

workloads.WORKLOADS[sys.argv[1]].resolve(sys.argv[2])
print(repr(time.perf_counter() - t0))
