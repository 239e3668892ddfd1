"""The package's one rule for running independent items of work on threads.

``thread_map`` runs the items on a pool of min(items, ``cpus()``) threads,
one per CPU in the process's affinity mask, which ``taskset`` or a cgroup
cpuset restricts; one item, or one CPU, starts no pool.  Results are gathered
in item order, so a caller whose items do not depend on each other gets the
same answer, bit for bit, on any number of CPUs.  Threads gain only while the
work releases the GIL, as numpy's stacked LAPACK calls do.  Scipy's compiled
sparse product in ``stepping`` gains only on long calls: on 2 vCPUs, two
threads making 21 or 118 us ``csr_matvec`` calls ran at a median 1.0x one
thread's speed, and only calls of 0.55 ms or more gained, 1.5-2.4x.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def workers(items: int) -> int:
    """The threads ``thread_map`` runs ``items`` items on; 1 starts no pool."""
    return min(items, cpus())


def thread_map(fn, items, order=None) -> list:
    """``[fn(item) for item in items]`` on ``workers(len(items))`` threads.

    ``order`` lists the item indices in the order they are submitted
    (default: item order), say the costliest first.  When several items
    raise, the exception of the first in item order propagates, as in the
    serial loop, and the items not yet started are cancelled.  ``fn`` must
    be safe to call from several threads at once."""
    items = list(items)
    threads = workers(len(items))
    if threads <= 1:
        return [fn(item) for item in items]
    futures = [None] * len(items)
    with ThreadPoolExecutor(threads) as executor:
        for i in range(len(items)) if order is None else order:
            futures[i] = executor.submit(fn, items[i])
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()


__all__ = ["cpus", "workers", "thread_map"]
