"""Host-speed probe: a fixed piece of pure-Python work, timed next to every
measurement, so that timings can be stated at one reference host speed.

The host this benchmark was written on changed speed by up to 1.7x within an
hour, in phases from seconds to many minutes long, because other tenants
share it.  A raw time then measures the host as much as the program.  Each
measured time is scaled by ``REFERENCE_S / probe``, where ``probe`` is the
probe time taken around that measurement.  A change to grexplain moves the
measured time but not the probe, so it still shows in full.
"""

from time import perf_counter

REFERENCE_S = 0.005  # probe time that defines the reference host speed


def probe() -> float:
    """Seconds this host takes for the fixed work right now."""
    started = perf_counter()
    seen = {}
    for i in range(10_000):
        key = frozenset((i & 255, i >> 8))
        seen[key] = seen.get(key, 0) + 1
    return perf_counter() - started
