"""One process pool per command, forked before the command reads its input
and shared by every stage that splits its work: the leg parse, the
`variation.csv` write and the Monte Carlo replications.

Jobs are module-level functions, so the pool can pickle them by name.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager


def usable_cores():
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        return os.cpu_count() or 1


class Pool:
    """A started pool of `workers` processes."""

    def __init__(self, executor, workers):
        self.executor = executor
        self.workers = workers

    def map(self, fn, jobs):
        """`fn` over `jobs`, results in order. At most two jobs per worker
        are in flight, so neither their inputs nor their results pile up
        in this process."""
        pending = deque()
        for job in jobs:
            pending.append(self.executor.submit(fn, job))
            if len(pending) == 2 * self.workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def pool_map(pool, fn, jobs):
    """`fn` over `jobs`, results in order: on `pool`, or here without one."""
    return map(fn, jobs) if pool is None else pool.map(fn, jobs)


@contextmanager
def fork_pool(workers):
    """A started Pool of `workers` processes, or None for one worker. Every
    worker is gone when the block exits.

    On Linux the workers are forked, so they inherit this process's imports
    instead of importing their own (Python 3.14 no longer forks by default
    there); other platforms keep their default start method. The first job
    starts all forked workers, so they start here, before the executor starts
    its own threads and while this process holds little more than its
    imports: they stay small whatever it reads later."""
    if workers <= 1:
        yield None
        return
    # numpy loads numpy.random on first use; loaded here, forked workers
    # inherit it instead of each loading it for its first Monte Carlo job
    import numpy.random  # noqa: F401
    context = multiprocessing.get_context("fork") if sys.platform == "linux" else None
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as executor:
        executor.submit(int)
        yield Pool(executor, workers)
