"""Time one workload's set-up in a fresh interpreter: import aesimc, run
RunConfig.load and build the Pipeline or BankFarm the workload uses.

Usage: python3 setup_probe.py <workload>. Prints the seconds taken and
the calibration kernel's time just before and just after, measured in
this process because it may run on another CPU than its parent. numpy is
imported before the clock starts, so the figure is the package's own
import and build time.
"""

import sys
import time
from pathlib import Path

# What each workload builds; the benchmark's in-process set-up uses the
# same functions.
BUILD = {
    "verify_bulk": lambda config: config.bank_farm(banks=4),
    "block_latency": lambda config: config.pipeline(),
    "sweep_design": lambda config: config.bank_farm(),
    "encrypt_traced": lambda config: config.pipeline(trace_detail=True),
}


def main(workload):
    from run import calibrate  # imports numpy, outside the measurement

    calibrate()
    before = calibrate()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    t0 = time.perf_counter()
    if workload == "block_latency":
        from aesimc.config import RunConfig
    else:
        import aesimc.cli  # noqa: F401
        from aesimc.config import RunConfig
    BUILD[workload](RunConfig.load(None))
    seconds = time.perf_counter() - t0
    print(seconds, before, calibrate())


if __name__ == "__main__":
    main(sys.argv[1])
