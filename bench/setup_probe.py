"""Set-up probe, run in a fresh interpreter by run.py to measure `setup_s`.

    python3 bench/setup_probe.py WORKLOAD SEED OUT_DIR

Imports duolink and duolink.cli from the checkout, builds and validates the
workload's configs for SEED, creates OUT_DIR, then prints time.monotonic()
(one clock for every process on Linux) as the moment it became ready.
"""

import sys
import time
from pathlib import Path

from run import use_checkout_source


def main(argv) -> int:
    name, seed, out_dir = argv
    if not use_checkout_source():
        return 2
    import duolink  # noqa: F401
    import duolink.cli  # noqa: F401
    import workloads

    workloads.WORKLOADS[name].prepare(int(seed), Path(out_dir))
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
