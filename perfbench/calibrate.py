"""A fixed piece of reference work that measures how fast the CPU runs now.

On a shared 2-vCPU VM (Intel Xeon) the CPU switches between a fast
state and one about 1.5-1.8x slower, for seconds to minutes at a time,
because of load outside it; CPU time drifts with wall time, so neither
separates the program from the machine.  Timing this loop next to every
solve and rescaling the solve's wall time to a loop of NOMINAL_S gives
times that stay steady across those states: over 14 passes of one
rects-dense set, the spread (standard deviation / mean) of the pass time
fell from 0.112 in wall seconds to 0.028 in reference seconds.  The loop
does what the solvers' inner loops do: it builds, sorts and compares
frozen dataclasses of Fractions.
"""
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.001  # reference-speed seconds: one loop takes exactly this


@dataclass(frozen=True)
class _Point:
    x: Fraction
    y: Fraction


def reference():
    """Rational points built, sorted and swept, like the solvers' inner
    loops; about 1 ms on that VM in its fast state."""
    pts = [_Point(Fraction(i * 37 % 101, 8), Fraction(i * 53 % 97, 8))
           for i in range(110)]
    pts.sort(key=lambda p: (p.x, p.y))
    acc = Fraction(0)
    for a, b in zip(pts, pts[1:]):
        if a.x <= b.x and a.y <= b.y + 1:
            acc += b.x - a.x
    return acc


def timed_reference():
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def scale(seconds, ref_seconds):
    """Wall seconds rescaled to the speed at which the loop takes
    NOMINAL_S."""
    return seconds * NOMINAL_S / ref_seconds
