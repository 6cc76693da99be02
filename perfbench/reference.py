"""A fixed reference computation that calibrates the benchmark's clock.

On a shared machine the speed of the same code drifts by up to a factor of
two within minutes, as neighbours come and go. Every time the benchmark
reports is therefore scaled to reference speed: a measured time t is
reported as t * nominal / r, where r is the mean of the reference times
measured right before and right after the measurement. The computation is
plain-Python float work of the kind eulercc does (powers, fsum, list
building) and does not use eulercc, so no change to the library changes it.

Work done in this process is scaled by the computation itself. A fresh
interpreter's start-up does not slow down in step with it, so whole
processes are scaled by a fresh interpreter that runs this file.

    python3 perfbench/reference.py    # the reference process
"""

import math
import subprocess
import sys
import time

# Nominal times, about those of a 2-vCPU Intel Xeon under Python 3.11 in a
# quiet period; scaled times are seconds at that speed.
REF_S = 0.010
REF_PROCESS_S = 0.080
REF_PROCESS_TIMEOUT_S = 60
_TERMS = ((1.5, -2.3, 1.7), (-2.0, 0.7, 2.9), (0.3, 1.9, 1.1), (4.0, -0.4, 3.3), (-1.0, 2.5, 0.6))
_STEPS = 6000


def reference_s():
    """Seconds taken by one run of the reference computation."""
    t0 = time.perf_counter()
    for k in range(_STEPS):
        x = 1.0 + k * 1e-3
        vals = [c * (b * x) ** e for c, e, b in _TERMS]
        math.fsum(vals) / math.fsum(abs(v) for v in vals)
    return time.perf_counter() - t0


def reference_process_s(env):
    """Wall seconds of a fresh interpreter that runs the reference computation."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], env=env, check=True, capture_output=True,
                   timeout=REF_PROCESS_TIMEOUT_S)
    return time.perf_counter() - t0


if __name__ == "__main__":
    reference_s()
