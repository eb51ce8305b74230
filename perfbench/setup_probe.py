"""Time one cold set-up of a workload in a fresh interpreter.

Measures importing qcorr (with numpy and scipy), generating the workload's
inputs and one warm-up call, then prints {"setup_s": ...} as JSON.
Started by run.py; run it by hand as
    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
import time

T0 = time.perf_counter()

import bootstrap  # noqa: E402  (after T0: the clock covers every import)


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    bootstrap.pin_threads()
    bootstrap.import_qcorr()
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    wl.warmup()
    print(json.dumps({"setup_s": time.perf_counter() - T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
