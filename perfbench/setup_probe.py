"""Time one set-up in a fresh interpreter: `import eulercc`, then one warm-up operation.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints {"import_s": ..., "setup_s": ...}, both scaled to reference speed
(see reference.py) by reference runs before the import and after the
warm-up, and the raw seconds; setup_s includes import_s.
"""

import json
import sys
import time

from reference import REF_S, reference_s

r0 = reference_s()
t0 = time.perf_counter()
import eulercc  # noqa: E402,F401

import_s = time.perf_counter() - t0


def main():
    from workloads import WORKLOADS

    workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    t1 = time.perf_counter()
    workload.warm_up()
    warm_s = time.perf_counter() - t1
    scale = 2.0 * REF_S / (r0 + reference_s())
    print(json.dumps({"import_s": import_s * scale, "setup_s": (import_s + warm_s) * scale,
                      "raw_import_s": import_s, "raw_setup_s": import_s + warm_s}))


if __name__ == "__main__":
    main()
