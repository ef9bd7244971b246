"""Block size of a trial's elementwise stages, and the thread pool they run on.

A trial holds whole only the arrays that a whole-trace step needs: the two
received streams, the two phase traces and the uint8 quadrant indices.
Every stage in between runs over blocks of BLOCK symbols, so its temporaries
stay the size of one block per thread however long the trial is: the payload
draws, the channel, the fourth-power extraction, the delay search (each
block with max_lag samples of margin), the shift of channel 2 and the
detection. No report depends on BLOCK; it can move the delay search's
peak_correlation only by rounding, as it sets the order in which the
search's sums are added.

The blocks of a stage run on a thread per CPU this process may run on: the
calling thread and a pool started on first use, one per process (numpy
releases the interpreter lock inside them). Only the shift moves its blocks
in order on the calling thread, as each move frees the room of the next.
Each task writes its own part of an output or returns partial results that
are added in a fixed order, so no result depends on the number of threads.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

BLOCK = 1 << 15

THREADS = len(os.sched_getaffinity(0))

# (size, pool), created on the first call of `each` that needs it
_pool: tuple[int, ThreadPoolExecutor] | None = None
_pool_lock = threading.Lock()


def blocks(start: int, stop: int):
    """Consecutive slices of at most BLOCK indices covering [start, stop)."""
    for a in range(start, stop, BLOCK):
        yield slice(a, min(a + BLOCK, stop))


def each(fn, items) -> list:
    """[fn(x) for x in items], computed by the calling thread together with
    up to THREADS - 1 pool threads, each taking the next item as it is free.

    A plain loop with one thread or one item. An exception is raised once
    no call is running any more; items not started by then may be skipped.
    """
    items = list(items)
    helpers = min(THREADS, len(items)) - 1
    if helpers < 1:
        return [fn(x) for x in items]
    results = [None] * len(items)
    todo = iter(range(len(items)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            results[i] = fn(items[i])

    pool = _executor()
    futures = [pool.submit(work) for _ in range(helpers)]
    try:
        work()
    finally:
        # a helper that has not started finds nothing left to do: cancel it
        # rather than wait for a pool thread to take it up, which may be
        # the thread waiting here (a call of `each` from a task)
        started = [f for f in futures if not f.cancel()]
        wait(started)
    for f in started:
        f.result()
    return results


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != THREADS:
            if _pool is not None:
                _pool[1].shutdown(wait=False)
            _pool = THREADS, ThreadPoolExecutor(THREADS - 1, thread_name_prefix="duolink")
        return _pool[1]


def _forget_pool() -> None:
    # a forked child has none of the parent's threads: it starts its own pool
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)
