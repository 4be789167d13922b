"""Cold set-up of one workload, timed inside a fresh interpreter.

    python3 setup_probe.py SRC_DIR INPUT...

Imports smetriclab from SRC_DIR, loads every INPUT with
``load_experiment`` and prints the calibrated seconds this took.  The
calibration runs afterwards, so it imports nothing the set-up would.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from smetriclab.experiment import load_experiment  # noqa: E402

for path in sys.argv[2:]:
    load_experiment(path)
elapsed = time.perf_counter() - start

from calibration import Calibrated  # noqa: E402

print(elapsed * Calibrated().scale())
