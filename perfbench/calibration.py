"""Calibrated wall time on a host whose speed drifts.

On a shared host the speed of every Python workload drifts by tens of
percent within a minute.  A fixed task (``calibrate``) runs around each
timed interval, and the interval is scaled by ``REFERENCE_S`` over the
calibration time, so the drift cancels while a change to smetriclab, which
does not touch the calibration task, still shows.  Calibrated times read as
times on the reference host.  A change that moves the interpreter itself,
such as another Python version, moves the calibration too and is hidden.
"""

from fractions import Fraction
from time import perf_counter

STEPS = 3000
# calibrate()'s median on the reference host (2-vCPU Intel Xeon VM,
# Python 3.11.7)
REFERENCE_S = 0.042


def calibrate() -> float:
    """Wall seconds of a fixed task: exact-rational arithmetic and dict
    stores, the kind of work smetriclab's kernels do."""
    started = perf_counter()
    seen = {}
    for i in range(1, STEPS):
        x, y = Fraction(i % 89, 7), Fraction(i % 53, 11)
        seen[i % 101] = abs(x - y) + abs(y - x) <= x + y
    return perf_counter() - started


class Calibrated:
    """Scale factors for intervals between consecutive calibrations."""

    def __init__(self):
        self.last = calibrate()
        self.factors: list[float] = []

    def scale(self) -> float:
        """Calibrate again; the factor for the interval since the last time."""
        now = calibrate()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return factor
