"""Set-up time of one workload, measured in this fresh interpreter.

    python3 bench/setup_probe.py nodes|commands|weight

Prints the seconds taken to import biorth and resolve the workload's
families, scaled by the reference computation (calibration.py) timed
just before and after in the same interpreter.  run.py starts it several times
and reports the median.
"""
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import calibration  # noqa: E402
import workloads  # noqa: E402  (imports nothing from biorth)

before = [calibration.reference_seconds() for _ in range(2)]
start = time.perf_counter()
workloads.resolve_families(sys.argv[1])
seconds = time.perf_counter() - start
reference = statistics.median(
    before + [calibration.reference_seconds() for _ in range(2)])
print(repr(seconds * calibration.REFERENCE_S / reference))
