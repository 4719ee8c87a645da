"""Set-up time of one workload, measured in a fresh interpreter.

Prints the seconds taken to import the CLI entry point of rankeffect and to
build and validate the given built-in scenario grids at ``reps``
replications.  ``run.py`` starts this script several times and reports the
median.

    python3 perfbench/setup_probe.py 5 table3
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rankeffect.cli  # noqa: E402,F401
from rankeffect.simulate import builtin_grid  # noqa: E402

reps = int(sys.argv[1])
for grid in sys.argv[2:]:
    for scenario in builtin_grid(grid, reps=reps):
        scenario.validate()
print(time.perf_counter() - start)
