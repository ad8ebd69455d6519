"""Machine-speed calibration for timings taken on a shared machine.

On a shared host the same pure-Python work can run at half speed for
seconds at a time (measured: a fixed loop swinging between 40 and 80 ms
in phases of 1–20 s), which swamps any change to the program.  Every
timed pass therefore samples :func:`calibrate` — a fixed interpreter
kernel of dict and integer work, like the program's own — about every
``INTERVAL_S`` while it runs, with the sampling time excluded from the
pass, and reports its timings scaled to a machine on which the kernel
takes ``REFERENCE_S``.  Each measured interval (the stretch between two
samples, or the gap between two verdicts) is scaled by the two samples
bracketing it:

    scaled = measured * REFERENCE_S / mean(kernel before, kernel after)

Raw timings are printed next to the scaled ones.
"""

from time import perf_counter

#: the kernel's duration on the reference machine
REFERENCE_S = 0.004
#: seconds between kernel samples during a pass
INTERVAL_S = 0.2


def calibrate() -> float:
    """Seconds one run of the fixed kernel takes right now."""
    start = perf_counter()
    table: dict = {}
    for i in range(20000):
        table[i & 255] = table.get(i & 255, 0) + (i * 3 >> 1)
    return perf_counter() - start


def scale(samples) -> float:
    """The factor that turns timings taken during ``samples`` into
    reference-machine timings."""
    return REFERENCE_S * len(samples) / sum(samples)
