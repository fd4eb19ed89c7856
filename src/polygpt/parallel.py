"""One order-preserving map over a process pool, shared by every parallel
stage (hypergraph edge filter, hypercube pair sweep, Monte Carlo)."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

# Below this many items a pool costs more to start than it saves.
MIN_POOLED_ITEMS = 8


def usable_cpus() -> int:
    """CPUs this process may run on; all CPUs where affinity is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_map(fn: Callable, items: Sequence, workers: int) -> list:
    """Return [fn(x) for x in items], in order. With workers > 1 and enough
    items, chunks run in at most usable_cpus() worker processes; fn and
    the items must pickle (a module-level function, or functools.partial
    of one)."""
    workers = min(workers, usable_cpus())
    if workers <= 1 or len(items) < MIN_POOLED_ITEMS:
        return [fn(x) for x in items]
    chunk = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
