"""The one thread pool behind the classical scan's slabs.

Pools are kept per thread count and live for the whole process, so worker
threads (and the malloc arenas they hold) are reused from call to call
instead of being started afresh by each scan.  The searches use no pool:
their starts hold the interpreter lock for most of their short life, so a
second thread only adds hand-off cost, and they run on the calling thread.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


@functools.lru_cache(maxsize=None)
def _executor(threads: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=threads)


def parallel_map(threads: int, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """[fn(x) for x in items], run on `threads` shared workers.

    Results keep item order and a worker's exception propagates to the
    caller.  One thread or one item runs serially on the calling thread.
    fn must not itself call parallel_map with more than one thread: the
    outer call's workers would wait on a pool they occupy.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    return list(_executor(threads).map(fn, items))
