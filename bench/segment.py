"""One segment of a timed run, in a fresh interpreter started by run.py.

    python3 bench/segment.py WORK_DIR SEED SECONDS FIRST_OP

Runs operations FIRST_OP, FIRST_OP+1, ... of the workload that run.py pickled
into WORK_DIR/workload.pickle, in a closed loop for SECONDS, and prints their
outcomes as one JSON line.
"""

import json
import pickle
import sys
from dataclasses import asdict
from pathlib import Path

from run import closed_loop, use_checkout_source


def main(argv) -> int:
    work_dir, seed, seconds, first = Path(argv[0]), int(argv[1]), float(argv[2]), int(argv[3])
    if not use_checkout_source():
        return 2
    with open(work_dir / "workload.pickle", "rb") as fh:
        wl = pickle.load(fh)
    outcomes = closed_loop(wl, seed, seconds, work_dir, first=first)
    print(json.dumps([asdict(o) for o in outcomes]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
