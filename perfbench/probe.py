"""One set-up measurement in a fresh process.

    python3 perfbench/probe.py WORKLOAD SEED

Builds the workload's inputs, then times importing ozk, building the
workload's Session or Simulation and parsing its program once.  It then
runs one reference pass (see ``calibrate.py``) and prints the set-up
seconds twice: as measured, and scaled to the nominal host by that pass.
``run.py`` starts several of these and reports the median of the scaled
seconds as ``setup_s``.  Interpreter start-up is not included.
"""

import sys
from pathlib import Path
from time import perf_counter

import calibrate
import programs


def main(argv) -> int:
    name, seed = argv[1], int(argv[2])
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    inputs = programs.make_inputs(name, seed)
    t0 = perf_counter()
    import workloads
    workloads.build(name, inputs).setup()
    elapsed = perf_counter() - t0
    scaled = calibrate.scale(elapsed, calibrate.pass_seconds())
    print(repr(elapsed), repr(scaled))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
