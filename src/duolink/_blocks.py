"""Block size of a trial's elementwise stages, and the threads they run on.

A trial holds whole only the arrays that a whole-trace step needs: the two
received streams, the two phase traces and the uint8 transmitted quadrant
indices. Every stage in between runs over blocks of BLOCK symbols, so its
temporaries stay the size of one block per thread however long the trial
is: the fourth-power extraction, the delay search (each block with a margin
as wide as the shifts it takes; a wide run of shifts takes its FFTs over
sub-blocks of the block, each reading its own margin) and the settle pass,
whose blocks return the open symbols' keys and indices and are cut where
the pass's reading of channel 2 wraps, so that each reads views. The open
symbols are gathered and detected whole, with no blocks or threads. The
payload draws and the channel run over their random chunks (channel.CHUNK)
instead, and the shaped phase's filter over its FFT blocks.
No report depends on BLOCK; it can move the delay search's peak_correlation
only by rounding, as it sets the order in which the search's sums are added
and where its FFTs' sub-blocks start.

The blocks of a stage run on a thread per CPU this process may run on: the
calling thread and helper threads that `each` starts for the call and joins
before it returns or raises (numpy releases the interpreter lock inside the
blocks). No duolink thread is alive between calls, so a process forked after
a trial has none to miss. Each task writes its own part of an output or
returns partial results that are added in a fixed order, so no result
depends on the number of threads. No block's work threads on its own:
numpy's einsum, its FFTs (pocketfft) and its elementwise kernels run each
call on the calling thread, and nothing calls BLAS on floats.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

BLOCK = 1 << 15

THREADS = len(os.sched_getaffinity(0))


def blocks(start: int, stop: int):
    """Consecutive slices of at most BLOCK indices covering [start, stop)."""
    for a in range(start, stop, BLOCK):
        yield slice(a, min(a + BLOCK, stop))


def each(fn, items) -> list:
    """[fn(x) for x in items], computed by the calling thread together with
    up to THREADS - 1 helper threads, each taking the next item as it is free.

    A plain loop with one thread or one item. The helpers are started for
    this call and joined before it returns or raises, so a call of `each`
    from inside fn runs on threads of its own. An exception is raised once
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

    with ThreadPoolExecutor(helpers, thread_name_prefix="duolink") as pool:
        futures = [pool.submit(work) for _ in range(helpers)]
        work()
    for f in futures:
        f.result()
    return results
