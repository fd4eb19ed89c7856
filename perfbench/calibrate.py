"""Machine speed, measured between requests.

The benchmark's host runs identical work anywhere from 1.0x to 1.9x its
fastest time, in phases that last from seconds to minutes. To keep the
figures comparable across runs, the timed loop runs ``sample()`` before
and after each request. That sample is a fixed piece of pure-Python work
of the kinds the program does: ``Fraction`` arithmetic, as in exact
pivoting; float arithmetic, as in the float backend; and integer set
operations, as in the clique search. Its time divided by ``REFERENCE_S``
is the machine's slowdown at that moment. A request's time divided by the
slowdown around it is the request's time at reference speed.

Work in the worker pool keeps both cores busy, and the two cores slow
down partly independently, and more when both are busy. ``sample_pair()``
runs the work in this process and in a forked child at once, as the pool
does.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

# The median time of sample() on a 2-vCPU KVM guest on an Intel Xeon
# (Sapphire Rapids) host with Python 3.11.7.
REFERENCE_S = 0.010


def work() -> tuple:
    for _ in range(7):
        total = Fraction(0)
        for i in range(1, 60):
            total += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 1)
        x = 0.0
        for i in range(6000):
            x += (i % 7) * 0.5 - x * 1e-3
        seen = set()
        for i in range(3000):
            seen.add(i * 7919 % 10007)
    return total, x, len(seen)


def sample() -> float:
    """Seconds that one run of work() takes now."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def sample_pair() -> float:
    """Mean seconds of work() run at once here and in a forked child."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            os.write(write, repr(sample()).encode())
        finally:
            os._exit(0)
    os.close(write)
    mine = sample()
    with os.fdopen(read) as fh:
        theirs = float(fh.read())
    os.waitpid(pid, 0)
    return (mine + theirs) / 2
